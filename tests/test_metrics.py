import math
from dataclasses import fields

import numpy as np
import pytest

from avsrkit.metrics import DcfParams, compute_metrics
from avsrkit.store import ScoreSet
from conftest import make_score_set
from oracles import brute_act_dcf, brute_auc, brute_eer, brute_min_dcf


def metrics_of(tar, non, params=DcfParams()):
    return compute_metrics(make_score_set(tar, non), params)


def random_score_set(rng, max_size=100):
    n_tar = int(rng.integers(1, max_size // 2))
    n_non = int(rng.integers(1, max_size // 2))
    # mix continuous scores with deliberate ties
    tar = np.round(rng.normal(1.0, 1.0, n_tar), int(rng.integers(1, 4)))
    non = np.round(rng.normal(0.0, 1.0, n_non), int(rng.integers(1, 4)))
    return tar, non


def roc_of(scores):
    report = compute_metrics(scores)
    return report.thresholds, report.p_miss, report.p_fa


class TestRocPoints:
    def test_separable_reaches_origin(self):
        _, p_miss, p_fa = roc_of(make_score_set([0.9, 0.8], [0.1, 0.2]))
        assert np.any((p_miss == 0.0) & (p_fa == 0.0))

    def test_all_equal_scores(self):
        thresholds, p_miss, p_fa = roc_of(make_score_set([0.5], [0.5, 0.5]))
        assert (p_miss[0], p_fa[0]) == (0.0, 1.0)
        assert (p_miss[-1], p_fa[-1]) == (1.0, 0.0)
        assert len(thresholds) == 3  # endpoints plus the single tie threshold

    def test_monotone_on_random_sets(self, rng):
        for _ in range(200):
            tar, non = random_score_set(rng)
            thresholds, p_miss, p_fa = roc_of(make_score_set(tar, non))
            assert np.all(thresholds[1:] > thresholds[:-1])
            assert np.all(p_miss[1:] >= p_miss[:-1])
            assert np.all(p_fa[1:] <= p_fa[:-1])

    def test_requires_labels(self):
        from avsrkit.store import ScoreEntry, ScoreSet
        with pytest.raises(ValueError):
            roc_of(ScoreSet([ScoreEntry("a", "b", 1.0)]))


class TestEer:
    def test_separable(self):
        assert metrics_of([0.9, 0.8], [0.1, 0.2]).eer == 0.0

    def test_interleaved_half(self):
        assert metrics_of([0.8, 0.2], [0.6, 0.4]).eer == pytest.approx(0.5)

    def test_third(self):
        assert metrics_of([3.0, 2.0, 1.0], [2.5, 0.0, -1.0]).eer == pytest.approx(1.0 / 3.0)

    def test_bounds_after_orientation(self, rng):
        for _ in range(100):
            tar, non = random_score_set(rng)
            report = metrics_of(tar, non)
            assert 0.0 <= report.eer <= 1.0
            if report.auc >= 0.5:
                assert report.eer <= 0.5 + 1e-12


class TestAuc:
    def test_separable(self):
        assert metrics_of([0.9, 0.8], [0.1, 0.2]).auc == 1.0

    def test_fully_tied(self):
        assert metrics_of([1.0, 1.0], [1.0, 1.0, 1.0]).auc == 0.5

    def test_matches_pair_enumeration(self, rng):
        tar, non = random_score_set(rng, max_size=50)
        assert metrics_of(tar, non).auc == brute_auc(tar, non)


class TestMinDcf:
    def test_separable(self):
        assert metrics_of([0.9, 0.8], [0.1, 0.2]).min_dcf == 0.0

    def test_no_information_normalizes_to_one(self):
        report = metrics_of([0.5, 0.5], [0.5, 0.5], DcfParams(p_target=0.05))
        assert report.min_dcf == pytest.approx(1.0)

    def test_matches_exhaustive_sweep(self, rng):
        p = DcfParams(p_target=0.05)
        for _ in range(50):
            tar, non = random_score_set(rng, max_size=30)
            report = metrics_of(tar, non, p)
            b_value, b_threshold = brute_min_dcf(tar, non, 0.05, 1.0, 1.0)
            assert report.min_dcf == pytest.approx(b_value, abs=1e-12)
            assert report.min_dcf_threshold == b_threshold


class TestActDcf:
    def test_bayes_threshold_value(self):
        p = DcfParams(p_target=0.05, c_miss=1.0, c_fa=1.0)
        assert p.bayes_threshold == pytest.approx(math.log(19.0), abs=1e-12)
        assert p.bayes_threshold == pytest.approx(2.944439, abs=1e-6)

    def test_calibrated_separable_is_zero(self):
        theta = DcfParams().bayes_threshold
        assert metrics_of([theta + 1.0, theta + 2.0], [theta - 1.0, theta - 2.0]).act_dcf == 0.0

    def test_never_below_min_dcf(self, rng):
        p = DcfParams()
        for _ in range(100):
            tar, non = random_score_set(rng)
            report = metrics_of(tar, non, p)
            assert report.act_dcf >= report.min_dcf - 1e-12


class TestInvariances:
    def test_monotone_transform_invariance(self, rng):
        p = DcfParams()
        for transform in (lambda x: 2.0 * x + 1.0, np.tanh):
            tar, non = random_score_set(rng)
            base = metrics_of(tar, non, p)
            mapped = metrics_of(transform(tar), transform(non), p)
            assert mapped.eer == pytest.approx(base.eer, abs=1e-12)
            assert mapped.auc == pytest.approx(base.auc, abs=1e-12)
            assert mapped.min_dcf == pytest.approx(base.min_dcf, abs=1e-12)

    def test_act_dcf_not_invariant(self):
        # a shift moves scores across the fixed Bayes threshold
        theta = DcfParams().bayes_threshold
        assert metrics_of([theta + 0.5], [theta - 0.5]).act_dcf != \
            metrics_of([theta - 1.5], [theta - 2.5]).act_dcf


class TestReport:
    def test_counts_and_consistency(self, rng):
        tar, non = random_score_set(rng)
        report = metrics_of(tar, non)
        assert report.n_target == len(tar)
        assert report.n_nontarget == len(non)
        assert report.act_dcf >= report.min_dcf - 1e-12
        assert 0.0 <= report.eer <= 1.0
        assert 0.0 <= report.auc <= 1.0

    def test_one_conversion_matches_oracles(self, rng, monkeypatch):
        tar, non = random_score_set(rng)
        ss = make_score_set(tar, non)
        p = DcfParams(p_target=0.3, c_fa=2.0)
        mdcf, threshold = brute_min_dcf(tar, non, 0.3, 1.0, 2.0)
        expected = {"eer": brute_eer(tar, non), "auc": brute_auc(tar, non), "min_dcf": mdcf,
                    "min_dcf_threshold": threshold,
                    "act_dcf": brute_act_dcf(tar, non, 0.3, 1.0, 2.0),
                    "n_target": len(tar), "n_nontarget": len(non)}
        calls = []
        convert = ScoreSet.scores_and_labels
        monkeypatch.setattr(ScoreSet, "scores_and_labels",
                            lambda self: calls.append(self) or convert(self))
        report = compute_metrics(ss, p)
        assert len(calls) == 1
        assert {f.name: getattr(report, f.name) for f in fields(report) if f.compare} == \
            pytest.approx(expected, abs=1e-12)
