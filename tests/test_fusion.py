import warnings

import numpy as np
import pytest
from scipy.special import expit, logit

from avsrkit.fusion import (FusionModel, apply_fusion, fit_fusion,
                            load_fusion, save_fusion)
from avsrkit.metrics import DcfParams, act_dcf, eer, min_dcf
from conftest import make_score_set


def true_llr_scores(rng, n_trials, mu=1.2, sigma=1.0):
    """Scores that are exact llrs under a two-Gaussian score model.

    Target scores come from N(mu, sigma^2), nontargets from N(0, sigma^2)
    with the same variance, for which llr(x) = mu (x - mu/2) / sigma^2.
    """
    n_tar = n_trials // 2
    x_tar = rng.normal(mu, sigma, n_tar)
    x_non = rng.normal(0.0, sigma, n_trials - n_tar)
    llr = lambda x: mu * (x - mu / 2.0) / sigma ** 2
    return make_score_set(llr(x_tar), llr(x_non))


class TestFitFusion:
    def test_calibrated_llrs_give_identity(self, rng):
        ss = true_llr_scores(rng, 10000)
        model = fit_fusion([ss], DcfParams(p_target=0.5))
        assert model.weights[0] == pytest.approx(1.0, abs=0.1)
        assert model.bias == pytest.approx(0.0, abs=0.1)

    def test_duplicated_system_keeps_eer(self, rng):
        ss = true_llr_scores(rng, 400)
        model = fit_fusion([ss, ss])
        fused = apply_fusion(model, [ss, ss])
        assert eer(fused) == pytest.approx(eer(ss), abs=1e-12)

    def test_single_system_calibration_keeps_eer(self, rng):
        tar = rng.normal(1.0, 1.0, 150)
        non = rng.normal(0.0, 1.0, 200)
        ss = make_score_set(tar, non)
        model = fit_fusion([ss])
        assert model.weights[0] > 0.0
        fused = apply_fusion(model, [ss])
        assert eer(fused) == pytest.approx(eer(ss), abs=1e-12)

    def test_fit_reaches_the_optimum(self, rng):
        # the prior-weighted logistic gradient, in raw score space, vanishes
        # at the returned weight and bias
        tar = rng.normal(4.0, 1.0, 300)
        non = rng.normal(0.0, 1.0, 6000)
        params = DcfParams()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_fusion([make_score_set(tar, non)], params)
        prior = params.effective_prior
        w, b = model.weights[0], model.bias + logit(prior)
        coef_t = -prior * expit(-(w * tar + b)) / tar.size
        coef_n = (1.0 - prior) * expit(w * non + b) / non.size
        grad = [coef_t @ tar + coef_n @ non, coef_t.sum() + coef_n.sum()]
        assert np.linalg.norm(grad) < 1e-8

    def test_separable_data_caps_weights(self, rng):
        ss = make_score_set(rng.uniform(1.0, 2.0, 40), rng.uniform(-2.0, -1.0, 40))
        with pytest.warns(UserWarning, match="separable"):
            model = fit_fusion([ss])
        assert np.isfinite(model.weights).all()

    def test_misaligned_trial_lists_rejected(self, rng):
        ss1 = make_score_set([1.0, 2.0], [0.0])
        ss2 = make_score_set([1.0], [0.0, -1.0])
        with pytest.raises(ValueError, match="system 2"):
            fit_fusion([ss1, ss2])

    def test_unlabeled_rejected(self):
        from avsrkit.store import ScoreEntry, ScoreSet
        ss = ScoreSet([ScoreEntry("a", "b", 1.0), ScoreEntry("a", "c", 0.0)])
        with pytest.raises(ValueError):
            fit_fusion([ss])

    def test_no_systems_rejected(self):
        with pytest.raises(ValueError):
            fit_fusion([])

    def test_fused_calibration_gap_small_held_out(self, rng):
        # fit on dev llr-ish scores, evaluate actDCF - minDCF on fresh data
        params = DcfParams(p_target=0.05)
        dev1 = make_score_set(rng.normal(2.0, 1.5, 500), rng.normal(0.0, 1.5, 2000))
        dev2 = make_score_set(rng.normal(1.0, 1.0, 500), rng.normal(0.0, 1.0, 2000))
        model = fit_fusion([dev1, dev2], params)
        ev1 = make_score_set(rng.normal(2.0, 1.5, 500), rng.normal(0.0, 1.5, 2000))
        ev2 = make_score_set(rng.normal(1.0, 1.0, 500), rng.normal(0.0, 1.0, 2000))
        fused = apply_fusion(model, [ev1, ev2])
        gap = act_dcf(fused, params) - min_dcf(fused, params)[0]
        assert 0.0 <= gap + 1e-12
        assert gap < 0.05


class TestApplyFusion:
    def test_hand_affine(self):
        ss1 = make_score_set([1.0, 3.0], [0.0, -2.0, 5.0])
        ss2 = make_score_set([2.0, 1.0], [1.0, 0.0, -1.0])
        model = FusionModel(weights=[0.5, 2.0], bias=-1.0, effective_prior=0.5)
        fused = apply_fusion(model, [ss1, ss2])
        expected = [0.5 * a + 2.0 * b - 1.0 for a, b in
                    [(1.0, 2.0), (3.0, 1.0), (0.0, 1.0), (-2.0, 0.0), (5.0, -1.0)]]
        assert [e.score for e in fused] == pytest.approx(expected, abs=1e-15)
        assert [e.label for e in fused] == [e.label for e in ss1]

    def test_picks_out_single_system(self, rng):
        ss1 = make_score_set(rng.normal(1, 1, 10), rng.normal(0, 1, 10))
        ss2 = make_score_set(rng.normal(1, 1, 10), rng.normal(0, 1, 10))
        model = FusionModel(weights=[1.0, 0.0], bias=0.0, effective_prior=0.5)
        fused = apply_fusion(model, [ss1, ss2])
        assert [e.score for e in fused] == [e.score for e in ss1]

    def test_zero_weights_constant_output(self, rng):
        ss = make_score_set(rng.normal(1, 1, 5), rng.normal(0, 1, 5))
        model = FusionModel(weights=[0.0], bias=3.5, effective_prior=0.5)
        assert all(e.score == 3.5 for e in apply_fusion(model, [ss]))

    def test_system_count_mismatch(self, rng):
        ss = make_score_set([1.0], [0.0])
        model = FusionModel(weights=[1.0, 1.0], bias=0.0, effective_prior=0.5)
        with pytest.raises(ValueError, match="2 systems"):
            apply_fusion(model, [ss])


class TestEffectivePrior:
    def test_matches_dcf_params(self):
        p = DcfParams(p_target=0.05, c_miss=1.0, c_fa=1.0)
        assert p.effective_prior == pytest.approx(0.05)
        p = DcfParams(p_target=0.05, c_miss=10.0, c_fa=1.0)
        expected = 0.05 * 10.0 / (0.05 * 10.0 + 0.95 * 1.0)
        assert p.effective_prior == pytest.approx(expected, abs=1e-15)
        assert p.bayes_threshold == pytest.approx(-logit(p.effective_prior), abs=1e-12)

    def test_prior_shifts_bias(self, rng):
        # the same data calibrated at two operating points differs only in bias
        ss = true_llr_scores(rng, 4000)
        m1 = fit_fusion([ss], DcfParams(p_target=0.5))
        m2 = fit_fusion([ss], DcfParams(p_target=0.05))
        assert m1.weights[0] == pytest.approx(m2.weights[0], abs=0.15)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = FusionModel(weights=[0.1 + 0.2, -3.0], bias=1e-300,
                            effective_prior=0.05)
        path = tmp_path / "fusion.ckpt"
        save_fusion(model, path)
        loaded = load_fusion(path)
        np.testing.assert_array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias
        assert loaded.effective_prior == model.effective_prior

    def test_numpy_scalar_bias_round_trips(self, tmp_path):
        model = FusionModel(weights=[2.0], bias=np.float64(0.25), effective_prior=0.05)
        path = tmp_path / "fusion.ckpt"
        save_fusion(model, path)
        assert "scalar\tbias\t0.25\n" in path.read_text()
        assert load_fusion(path).bias == 0.25
