"""Tests of the benchmark's independent references (run: pytest perfbench).

Each reference is checked against a definition computed another way (a
dense Gaussian density, a hand-worked case, the brute-force oracles of
tests/oracles.py) and against the avsrkit function whose output it checks.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import multivariate_normal

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(Path(__file__).parent), str(ROOT / "src"), str(ROOT / "tests")]

import references as ref  # noqa: E402
from avsrkit import backend, synth, vfnet  # noqa: E402
from oracles import brute_act_dcf, brute_auc, brute_eer, brute_min_dcf  # noqa: E402


def random_spd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T / d + 0.5 * np.eye(d))


def test_plda_llr_is_the_joint_density_ratio():
    rng = np.random.default_rng(1)
    d = 5
    mu, b, w = rng.standard_normal(d), random_spd(rng, d, 2.0), random_spd(rng, d)
    x1, x2 = rng.standard_normal((4, d)), rng.standard_normal((4, d))
    got = ref.plda_llr(mu, b, w, x1, x2)
    joint = np.block([[b + w, b], [b, b + w]])
    for i in range(4):
        want = (multivariate_normal(np.concatenate([mu, mu]), joint).logpdf(
            np.concatenate([x1[i], x2[i]]))
            - multivariate_normal(mu, b + w).logpdf(x1[i])
            - multivariate_normal(mu, b + w).logpdf(x2[i]))
        assert got[i] == pytest.approx(want, abs=1e-10)
        model = backend.PldaModel(mu=mu, B=b, W=w)
        assert got[i] == pytest.approx(backend.plda_llr(model, x1[i], x2[i]), abs=1e-10)


def test_lda_project_unit_length():
    rng = np.random.default_rng(2)
    proj, mean = rng.standard_normal((3, 6)), rng.standard_normal(6)
    x = rng.standard_normal((5, 6))
    y = ref.lda_project(proj, mean, x)
    np.testing.assert_allclose(np.linalg.norm(y, axis=1), 1.0, rtol=1e-14)
    lda = backend.LdaTransform(projection=proj, mean=mean)
    for row, want in zip(x, y):
        v = lda(row)
        np.testing.assert_allclose(v / np.linalg.norm(v), want, rtol=1e-13)


@pytest.mark.parametrize("n,k", [(1, 1), (3, 1), (5, 1), (6, 2), (10, 2), (11, 3)])
def test_top_fraction_mean_k(n, k):
    scores = np.arange(n, dtype=float)
    assert ref.top_fraction_mean(scores, 0.2) == np.mean(scores[-k:])


def test_face_trial_score_hand_case_and_library():
    enroll = np.array([[2.0, 0.0], [4.0, 0.0]])  # template along x
    test = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [-1.0, 0.0], [-1.0, 1.0]])
    # cosines 1, 1/sqrt(2), 0, -1, -1/sqrt(2); 20 % of 5 faces -> the top one
    assert ref.face_trial_score(enroll, test, 0.2) == pytest.approx(1.0, abs=1e-15)
    assert ref.face_trial_score(enroll, test, 0.4) == pytest.approx(
        (1.0 + 1.0 / math.sqrt(2.0)) / 2.0, abs=1e-15)
    rng = np.random.default_rng(3)
    enroll, test = rng.standard_normal((2, 8)), rng.standard_normal((7, 8))
    assert ref.face_trial_score(enroll, test, 0.2) == pytest.approx(
        backend.score_face_trial(enroll, test, backend.PoolingRule(0.2)), abs=1e-12)


def test_vfnet_forward_identity_weights_and_library():
    eye, zero = np.eye(3), np.zeros(3)
    voice = np.array([1.0, -2.0, 0.5])  # ReLU keeps (1, 0, 0.5)
    face = np.array([[1.0, 3.0, -1.0]])  # ReLU keeps (1, 3, 0)
    u = ref.vfnet_branch(eye, zero, eye, zero, voice)[0]
    f = ref.vfnet_branch(eye, zero, eye, zero, face)
    np.testing.assert_array_equal(u, [1.0, 0.0, 0.5])
    s = 1.0 / (math.sqrt(1.25) * math.sqrt(10.0))
    assert ref.vfnet_p_same(u, f)[0] == pytest.approx(1.0 / (1.0 + math.exp(1.0 - 2.0 * s)))

    rng = np.random.default_rng(4)
    params = vfnet.init_params(input_dim=6, hidden_dim=5, output_dim=4, seed=5)
    params.voice_b1[:] = rng.standard_normal(5)
    params.face_b2[:] = rng.standard_normal(4)
    e_v, e_f = rng.standard_normal(6), rng.standard_normal((3, 6))
    u = ref.vfnet_branch(params.voice_w1, params.voice_b1, params.voice_w2, params.voice_b2, e_v)[0]
    f = ref.vfnet_branch(params.face_w1, params.face_b1, params.face_w2, params.face_b2, e_f)
    want = [vfnet.pair_forward(params, e_v, x).p_same for x in e_f]
    np.testing.assert_allclose(ref.vfnet_p_same(u, f), want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("seed", range(6))
def test_detection_metrics_match_brute_force_oracles(seed):
    rng = np.random.default_rng(seed)
    # integer scores make ties within and across classes
    tar = rng.integers(-3, 6, size=rng.integers(1, 30)).astype(float)
    non = rng.integers(-6, 3, size=rng.integers(1, 40)).astype(float)
    p_target, c_miss, c_fa = (0.05, 1.0, 1.0) if seed % 2 else (0.3, 2.0, 1.5)
    got = ref.detection_metrics(tar, non, p_target, c_miss, c_fa)
    min_dcf, threshold = brute_min_dcf(tar, non, p_target, c_miss, c_fa)
    assert abs(got["eer"] - brute_eer(tar, non)) <= 1e-12
    assert abs(got["auc"] - brute_auc(tar, non)) <= 1e-12
    assert abs(got["min_dcf"] - min_dcf) <= 1e-12
    assert got["min_dcf_threshold"] == threshold
    assert abs(got["act_dcf"] - brute_act_dcf(tar, non, p_target, c_miss, c_fa)) <= 1e-12


def test_roc_curve_endpoints_and_monotone():
    thresholds, p_miss, p_fa = ref.roc_curve([0.5, 0.5, 2.0], [0.5, -1.0])
    np.testing.assert_array_equal(thresholds, [-np.inf, -1.0, 0.5, 2.0, np.inf])
    np.testing.assert_array_equal(p_miss, [0.0, 0.0, 0.0, 2 / 3, 1.0])
    np.testing.assert_array_equal(p_fa, [1.0, 1.0, 0.5, 0.0, 0.0])


def test_bayes_scorer_single_pair_matches_oracle_scorer():
    config = synth.GenConfig(d_id=4, d_voice=7, d_face=6, rng_seed=3)
    a_voice, a_face = synth.mixing_maps(config)
    scorer = ref.BayesIdentityScorer(a_voice, a_face, config.session_noise_sigma)
    oracle = synth.OracleScorer(config)
    rng = np.random.default_rng(6)
    for _ in range(5):
        e_v, e_f = rng.standard_normal(7), rng.standard_normal(6)
        h_e, n_e = scorer.stats({"voice": e_v})
        h_t, n_t = scorer.stats({"face": e_f})
        assert scorer.llr(h_e, n_e, h_t, n_t) == pytest.approx(oracle.score(e_v, e_f), abs=1e-9)


def test_bayes_scorer_sets_match_dense_gaussian():
    config = synth.GenConfig(d_id=3, d_voice=5, d_face=4, session_noise_sigma=0.7, rng_seed=9)
    a_voice, a_face = synth.mixing_maps(config)
    s2 = config.session_noise_sigma ** 2
    scorer = ref.BayesIdentityScorer(a_voice, a_face, config.session_noise_sigma)
    rng = np.random.default_rng(7)
    enroll = {"voice": rng.standard_normal((2, 5)), "face": rng.standard_normal((1, 4))}
    test = {"voice": rng.standard_normal((1, 5)), "face": rng.standard_normal((2, 4))}

    def maps(sessions):
        return [a_voice] * len(sessions["voice"]) + [a_face] * len(sessions["face"])

    def covariance(groups):
        """Sessions x_i = A_i z + noise; the sessions of one group share one z."""
        blocks = [np.vstack(group) for group in groups]
        size = sum(b.shape[0] for b in blocks)
        cov, offset = s2 * np.eye(size), 0
        for b in blocks:
            cov[offset:offset + b.shape[0], offset:offset + b.shape[0]] += b @ b.T
            offset += b.shape[0]
        return cov

    x = np.concatenate([enroll["voice"].ravel(), enroll["face"].ravel(),
                        test["voice"].ravel(), test["face"].ravel()])
    same = covariance([maps(enroll) + maps(test)])
    diff = covariance([maps(enroll), maps(test)])
    zero = np.zeros(x.size)
    want = (multivariate_normal(zero, same).logpdf(x)
            - multivariate_normal(zero, diff).logpdf(x))
    got = scorer.llr(*scorer.stats(enroll), *scorer.stats(test))
    assert got == pytest.approx(want, abs=1e-9)
