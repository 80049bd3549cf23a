import numpy as np
import pytest
from scipy.stats import multivariate_normal

from avsrkit.synth import (GenConfig, OracleScorer, generate,
                           generate_av_benchmark, mixing_maps, oracle_eer)

SMALL = GenConfig(d_id=2, d_voice=4, d_face=4, n_identities_train=20,
                  n_identities_test=10, rng_seed=5)


def store_to_array(store, modality):
    return np.array([r.vector for r in store if r.modality == modality])


class TestGenerate:
    def test_counts_and_split_disjointness(self):
        train, test, _ = generate(SMALL)
        assert len(train) == 20 * (3 + 3)
        assert len(test) == 10 * (3 + 3)
        train_ids = {r.identity_id for r in train}
        assert train_ids.isdisjoint({r.identity_id for r in test})

    def test_same_seed_bitwise_identical(self):
        t1, s1, _ = generate(SMALL)
        t2, s2, _ = generate(SMALL)
        for a, b in zip(t1, t2):
            assert a.record_id == b.record_id
            np.testing.assert_array_equal(a.vector, b.vector)
        for a, b in zip(s1, s2):
            np.testing.assert_array_equal(a.vector, b.vector)

    def test_seed_changes_data(self):
        t1, _, _ = generate(SMALL)
        t2, _, _ = generate(GenConfig(**{**SMALL.__dict__, "rng_seed": 6}))
        assert not np.array_equal(next(iter(t1)).vector, next(iter(t2)).vector)

    def test_sigma_to_zero_sessions_coincide(self):
        config = GenConfig(d_id=2, d_voice=4, d_face=4, n_identities_train=5,
                           n_identities_test=2, session_noise_sigma=1e-12)
        train, _, _ = generate(config)
        for identity in {r.identity_id for r in train}:
            voices = [r.vector for r in train
                      if r.identity_id == identity and r.modality == "voice"]
            for v in voices[1:]:
                np.testing.assert_allclose(v, voices[0], atol=1e-10)

    def test_zero_sigma_rejected(self):
        with pytest.raises(ValueError):
            GenConfig(session_noise_sigma=0.0)

    def test_identity_dim_exceeding_output_rejected(self):
        with pytest.raises(ValueError):
            GenConfig(d_id=100, d_voice=64, d_face=64)

    def test_marginal_covariance_matches_model(self):
        # law of large numbers: voice covariance approaches A A^T + sigma^2 I
        config = GenConfig(d_id=3, d_voice=6, d_face=6, n_identities_train=5000,
                           n_identities_test=2, voice_sessions_per_identity=1,
                           face_sessions_per_identity=1, rng_seed=11)
        train, _, _ = generate(config)
        a_voice, _ = mixing_maps(config)
        expected = a_voice @ a_voice.T + config.session_noise_sigma ** 2 * np.eye(6)
        voices = store_to_array(train, "voice")
        empirical = voices.T @ voices / voices.shape[0]
        rel = np.linalg.norm(empirical - expected) / np.linalg.norm(expected)
        assert rel < 0.10


class TestAvBenchmark:
    def test_three_disjoint_splits(self):
        train, dev, eval_ = generate_av_benchmark(SMALL, dev_eval_sessions=2)
        ids = [{r.identity_id for r in s} for s in (train, dev, eval_)]
        assert ids[0].isdisjoint(ids[1]) and ids[0].isdisjoint(ids[2])
        assert ids[1].isdisjoint(ids[2])
        # dev/eval get the requested session count
        per_identity = sum(1 for r in dev if r.identity_id == min(ids[1]))
        assert per_identity == 2 * 2

    def test_train_split_matches_generate(self):
        train_a, _, _ = generate(SMALL)
        train_b, _, _ = generate_av_benchmark(SMALL)
        for a, b in zip(train_a, train_b):
            np.testing.assert_array_equal(a.vector, b.vector)


class TestOracle:
    def test_matches_logpdf_ratio(self, rng):
        config = GenConfig(d_id=2, d_voice=3, d_face=2, rng_seed=9)
        a_voice, a_face = mixing_maps(config)
        s2 = config.session_noise_sigma ** 2
        cvv = a_voice @ a_voice.T + s2 * np.eye(3)
        cff = a_face @ a_face.T + s2 * np.eye(2)
        cvf = a_voice @ a_face.T
        same = np.block([[cvv, cvf], [cvf.T, cff]])
        diff = np.block([[cvv, np.zeros((3, 2))], [np.zeros((2, 3)), cff]])
        for _ in range(20):
            e_v = rng.standard_normal(3)
            e_f = rng.standard_normal(2)
            z = np.concatenate([e_v, e_f])
            expected = multivariate_normal.logpdf(z, np.zeros(5), same) \
                - multivariate_normal.logpdf(z, np.zeros(5), diff)
            assert OracleScorer(config).score(e_v, e_f) == pytest.approx(expected, abs=1e-8)

    def test_batch_agrees_with_single(self, rng):
        scorer = OracleScorer(SMALL)
        voices = rng.standard_normal((5, 4))
        faces = rng.standard_normal((5, 4))
        batch = scorer.score_batch(voices, faces)
        for i in range(5):
            assert scorer.score(voices[i], faces[i]) == pytest.approx(batch[i], abs=1e-12)

    def test_dimension_check(self, rng):
        scorer = OracleScorer(SMALL)
        with pytest.raises(ValueError, match="dimension"):
            scorer.score(rng.standard_normal(5), rng.standard_normal(4))

    def test_separates_same_from_different(self):
        # mean oracle score on matched pairs exceeds mean on mismatched pairs
        config = GenConfig(d_id=4, d_voice=8, d_face=8, rng_seed=3)
        rng = np.random.default_rng(77)
        a_voice, a_face = mixing_maps(config)
        sigma = config.session_noise_sigma
        z = rng.standard_normal((500, 4))
        z_other = rng.standard_normal((500, 4))
        voices = z @ a_voice.T + sigma * rng.standard_normal((500, 8))
        faces_same = z @ a_face.T + sigma * rng.standard_normal((500, 8))
        faces_diff = z_other @ a_face.T + sigma * rng.standard_normal((500, 8))
        scorer = OracleScorer(config)
        assert scorer.score_batch(voices, faces_same).mean() > \
            scorer.score_batch(voices, faces_diff).mean() + 1.0

    def test_default_config_noise_floor(self):
        # the documented benchmark difficulty: Bayes EER near 5%
        value = oracle_eer(GenConfig(), n_trials=20000)
        assert 0.03 < value < 0.08

    def test_oracle_eer_deterministic(self):
        config = GenConfig(d_id=2, d_voice=4, d_face=4)
        assert oracle_eer(config, 2000) == oracle_eer(config, 2000)
