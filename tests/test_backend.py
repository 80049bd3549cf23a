import numpy as np
import pytest
from scipy.stats import multivariate_normal

from avsrkit.backend import (PldaModel, PoolingRule, fit_lda,
                             fit_plda, load_lda, load_plda, plda_llr,
                             pool_top_fraction, project_store, save_lda,
                             save_plda, score_face_trial, score_vfnet_trial)
from avsrkit.store import EmbeddingRecord, EmbeddingStore
from avsrkit.vfnet import init_params, pair_forward


def gaussian_class_store(rng, means, n_per_class, cov=None, modality="voice"):
    dim = len(means[0])
    cov = np.eye(dim) if cov is None else cov
    chol = np.linalg.cholesky(cov)
    recs = []
    for c, mean in enumerate(means):
        for i in range(n_per_class):
            vec = np.asarray(mean) + chol @ rng.standard_normal(dim)
            recs.append(EmbeddingRecord(f"c{c}_{i}", f"id{c}", modality, vec))
    return EmbeddingStore(recs)


class TestLda:
    def test_fisher_direction_two_classes(self, rng):
        store = gaussian_class_store(rng, [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], 3000)
        lda = fit_lda(store, 1)
        direction = lda.projection[0] / np.linalg.norm(lda.projection[0])
        assert abs(abs(direction[0]) - 1.0) < 0.05
        assert np.all(np.abs(direction[1:]) < 0.1)

    def test_output_dim_clamps_to_classes(self, rng):
        store = gaussian_class_store(rng, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], 5)
        assert fit_lda(store, 10).output_dim == 2

    def test_paper_scale_dimension(self, rng):
        # 300 classes of 512-d data reduced to 150
        means = rng.standard_normal((300, 512)) * 3.0
        x = means[:, None, :] + rng.standard_normal((300, 2, 512))
        recs = [EmbeddingRecord(f"r{c}_{i}", f"id{c}", "voice", x[c, i])
                for c in range(300) for i in range(2)]
        lda = fit_lda(EmbeddingStore(recs), 150)
        assert lda.output_dim == 150

    def test_projected_within_class_covariance_is_identity(self, rng):
        means = rng.standard_normal((8, 10)) * 2.0
        cov = np.diag(rng.uniform(0.5, 2.0, 10))
        store = gaussian_class_store(rng, means, 60, cov)
        lda = fit_lda(store, 5)
        # recompute pooled within-class covariance in the projected space
        projected = project_store(lda, store, length_norm=False)
        groups = {}
        for rec in projected:
            groups.setdefault(rec.identity_id, []).append(rec.vector)
        dim = lda.output_dim
        sw = np.zeros((dim, dim))
        n = 0
        for vecs in groups.values():
            arr = np.array(vecs)
            centered = arr - arr.mean(axis=0)
            sw += centered.T @ centered
            n += arr.shape[0]
        sw /= n
        assert np.linalg.norm(sw - np.eye(dim)) < 1e-6

    def test_singular_within_scatter_regularized(self, rng):
        # duplicate records per class make the within scatter rank deficient
        recs = []
        for c in range(3):
            vec = rng.standard_normal(4)
            recs.append(EmbeddingRecord(f"a{c}", f"id{c}", "voice", vec))
            recs.append(EmbeddingRecord(f"b{c}", f"id{c}", "voice", vec))
        with pytest.warns(UserWarning, match="regularizing"):
            lda = fit_lda(EmbeddingStore(recs), 2)
        assert lda.output_dim == 2

    def test_checkpoint_roundtrip(self, tmp_path, rng):
        store = gaussian_class_store(rng, [[1.0, 0.0], [0.0, 1.0]], 10)
        lda = fit_lda(store, 1)
        save_lda(lda, tmp_path / "lda.ckpt")
        loaded = load_lda(tmp_path / "lda.ckpt")
        np.testing.assert_array_equal(loaded.projection, lda.projection)
        np.testing.assert_array_equal(loaded.mean, lda.mean)


def sample_plda_store(rng, mu, b_cov, w_cov, n_identities, n_sessions):
    d = len(mu)
    bc = np.linalg.cholesky(b_cov)
    wc = np.linalg.cholesky(w_cov)
    recs = []
    for i in range(n_identities):
        y = mu + bc @ rng.standard_normal(d)
        for j in range(n_sessions):
            x = y + wc @ rng.standard_normal(d)
            recs.append(EmbeddingRecord(f"s{i}_{j}", f"id{i}", "voice", x))
    return EmbeddingStore(recs)


class TestPlda:
    def test_em_loglik_monotone(self, rng):
        store = sample_plda_store(rng, np.zeros(3), np.eye(3), 0.5 * np.eye(3), 50, 4)
        model = fit_plda(store)
        ll = model.loglik_history
        assert len(ll) >= 2
        assert all(b - a >= -1e-9 for a, b in zip(ll, ll[1:]))

    def test_stop_at_max_iter_warns(self, rng):
        store = sample_plda_store(rng, np.zeros(3), np.eye(3), 0.5 * np.eye(3), 50, 4)
        with pytest.warns(UserWarning, match="max_iter=2"):
            model = fit_plda(store, max_iter=2)
        assert len(model.loglik_history) == 2

    def test_recovers_generating_covariances(self, rng):
        d = 4
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        b_true = q @ np.diag([2.0, 1.0, 0.5, 0.25]) @ q.T
        w_true = np.diag([0.6, 0.4, 0.5, 0.3])
        store = sample_plda_store(rng, rng.standard_normal(d), b_true, w_true, 500, 10)
        model = fit_plda(store)
        assert np.linalg.norm(model.B - b_true) / np.linalg.norm(b_true) < 0.15
        assert np.linalg.norm(model.W - w_true) / np.linalg.norm(w_true) < 0.15

    def test_single_session_per_identity_still_monotone(self, rng):
        store = sample_plda_store(rng, np.zeros(2), np.eye(2), 0.3 * np.eye(2), 40, 1)
        model = fit_plda(store)
        ll = model.loglik_history
        assert all(b - a >= -1e-9 for a, b in zip(ll, ll[1:]))

    def test_llr_symmetry(self, rng):
        model = PldaModel(mu=rng.standard_normal(3),
                          B=np.diag([1.0, 2.0, 0.5]), W=np.diag([0.5, 0.5, 1.0]))
        for _ in range(10):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            assert plda_llr(model, a, b) == pytest.approx(plda_llr(model, b, a), abs=1e-9)

    def test_zero_between_covariance_gives_zero_llr(self, rng):
        model = PldaModel(mu=np.zeros(2), B=np.zeros((2, 2)), W=np.eye(2))
        for _ in range(5):
            assert plda_llr(model, rng.standard_normal(2), rng.standard_normal(2)) == \
                pytest.approx(0.0, abs=1e-12)

    def test_llr_matches_joint_density_oracle(self, rng):
        d = 3
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        b = q @ np.diag([1.5, 0.7, 0.2]) @ q.T
        w = q @ np.diag([0.4, 0.9, 0.6]) @ q.T
        mu = rng.standard_normal(d)
        model = PldaModel(mu=mu, B=0.5 * (b + b.T), W=0.5 * (w + w.T))
        total = model.B + model.W
        cov_same = np.block([[total, model.B], [model.B, total]])
        mean2 = np.concatenate([mu, mu])
        for _ in range(20):
            e1 = rng.standard_normal(d)
            e2 = rng.standard_normal(d)
            z = np.concatenate([e1, e2])
            oracle = multivariate_normal.logpdf(z, mean2, cov_same) \
                - multivariate_normal.logpdf(e1, mu, total) \
                - multivariate_normal.logpdf(e2, mu, total)
            assert plda_llr(model, e1, e2) == pytest.approx(oracle, abs=1e-8)

    def test_checkpoint_roundtrip(self, tmp_path, rng):
        store = sample_plda_store(rng, np.zeros(2), np.eye(2), 0.5 * np.eye(2), 30, 3)
        model = fit_plda(store)
        save_plda(model, tmp_path / "plda.ckpt")
        loaded = load_plda(tmp_path / "plda.ckpt")
        np.testing.assert_array_equal(loaded.B, model.B)
        np.testing.assert_array_equal(loaded.W, model.W)


class TestPooling:
    def test_top_two_of_ten(self):
        scores = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        assert pool_top_fraction(scores, PoolingRule(0.2)) == pytest.approx(0.95)

    def test_singleton_clamps_to_one(self):
        assert pool_top_fraction([0.3], PoolingRule(0.2)) == 0.3

    def test_ceiling_rule_three_scores(self):
        assert pool_top_fraction([0.1, 0.5, 0.9], PoolingRule(0.2)) == 0.9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pool_top_fraction([], PoolingRule(0.2))

    def test_permutation_invariant_and_monotone(self, rng):
        rule = PoolingRule(0.3)
        for _ in range(50):
            scores = rng.standard_normal(int(rng.integers(1, 12)))
            base = pool_top_fraction(scores, rule)
            assert pool_top_fraction(rng.permutation(scores), rule) == base
            bumped = scores.copy()
            i = int(rng.integers(len(scores)))
            bumped[i] += abs(rng.standard_normal())
            assert pool_top_fraction(bumped, rule) >= base


class TestFaceTrial:
    def test_identical_single_faces(self, rng):
        face = rng.standard_normal(5)
        assert score_face_trial([face], [face]) == pytest.approx(1.0)

    def test_top_one_of_two_ignores_antiface(self, rng):
        face = rng.standard_normal(5)
        assert score_face_trial([face], [face, -face], PoolingRule(0.2)) == \
            pytest.approx(1.0)

    def test_order_invariance(self, rng):
        enroll = rng.standard_normal((3, 5))
        test = rng.standard_normal((7, 5))
        rule = PoolingRule(0.4)
        base = score_face_trial(enroll, test, rule)
        assert score_face_trial(enroll, test[::-1], rule) == base

    def test_zero_template_rejected(self):
        with pytest.raises(ValueError, match="template"):
            score_face_trial([[1.0, 0.0], [-1.0, 0.0]], [[1.0, 1.0]])


class TestVfnetTrial:
    def test_single_face_equals_pair_probability(self, rng):
        params = init_params(input_dim=6, hidden_dim=8, output_dim=4, seed=1)
        voice = rng.standard_normal(6)
        face = rng.standard_normal(6)
        expected = pair_forward(params, voice, face).p_same
        assert score_vfnet_trial(params, voice, [face]) == pytest.approx(expected)

    def test_low_scoring_face_below_top_k_ignored(self, rng):
        params = init_params(input_dim=6, hidden_dim=8, output_dim=4, seed=1)
        voice = rng.standard_normal(6)
        faces = [rng.standard_normal(6) for _ in range(4)]
        rule = PoolingRule(0.2)  # k = 1 for up to 5 faces
        base = score_vfnet_trial(params, voice, faces, rule)
        worst = min(faces, key=lambda f: pair_forward(params, voice, f).p_same)
        assert score_vfnet_trial(params, voice, faces + [worst], rule) == base

    def test_order_invariance(self, rng):
        params = init_params(input_dim=6, hidden_dim=8, output_dim=4, seed=2)
        voice = rng.standard_normal(6)
        faces = rng.standard_normal((6, 6))
        rule = PoolingRule(0.5)
        assert score_vfnet_trial(params, voice, faces[::-1], rule) == \
            score_vfnet_trial(params, voice, faces, rule)
