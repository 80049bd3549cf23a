from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh as scipy_eigh
from scipy.stats import multivariate_normal

from avsrkit.backend import (LdaTransform, PldaModel, PoolingRule, fit_lda,
                             fit_plda, load_lda, load_plda, plda_group_llr, plda_llr,
                             pool_cosines, project_store, save_lda,
                             save_plda, score_face_trial)
from avsrkit.checkpoint import CheckpointError, save_checkpoint
from avsrkit.pipeline import score_trials
from avsrkit.store import EmbeddingRecord, EmbeddingStore, Trial, TrialSet
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
    def test_zero_projection_names_record(self):
        lda = LdaTransform(projection=np.array([[1.0, 0.0]]), mean=np.zeros(2))
        store = EmbeddingStore([EmbeddingRecord("a", "id0", "voice", np.array([1.0, 2.0])),
                                EmbeddingRecord("b", "id1", "voice", np.array([0.0, 3.0]))])
        with pytest.raises(ValueError, match="record 'b' projects to the zero vector"):
            project_store(lda, store)
        projected = project_store(replace(lda, length_norm=False), store)
        np.testing.assert_array_equal(projected.vectors[projected.indices(["b"])], [[0.0]])

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
        # 300 classes of 512-d data reduced to 150; 600 records leave the
        # within-class scatter rank 300, so the fit regularizes it and warns
        means = rng.standard_normal((300, 512)) * 3.0
        x = means[:, None, :] + rng.standard_normal((300, 2, 512))
        recs = [EmbeddingRecord(f"r{c}_{i}", f"id{c}", "voice", x[c, i])
                for c in range(300) for i in range(2)]
        with pytest.warns(UserWarning, match="within-class scatter is singular"):
            lda = fit_lda(EmbeddingStore(recs), 150)
        assert lda.output_dim == 150

    def test_projected_within_class_covariance_is_identity(self, rng):
        means = rng.standard_normal((8, 10)) * 2.0
        cov = np.diag(rng.uniform(0.5, 2.0, 10))
        store = gaussian_class_store(rng, means, 60, cov)
        lda = fit_lda(store, 5)
        # recompute pooled within-class covariance in the projected space
        projected = project_store(replace(lda, length_norm=False), store)
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

    def test_ragged_counts_match_per_identity_reference(self, rng):
        # 40 identities of 1 to 5 voice records each, in shuffled order
        identity = rng.permutation(np.repeat(np.arange(40), rng.integers(1, 6, size=40)))
        x = 2.0 * rng.standard_normal((40, 6))[identity] + rng.standard_normal((len(identity), 6))
        store = EmbeddingStore.from_columns([f"r{i}" for i in range(len(x))],
                                            [f"id{k}" for k in identity], ["voice"] * len(x), x)
        lda = fit_lda(store, 4)
        mean = x.mean(axis=0)
        sw, sb = np.zeros((6, 6)), np.zeros((6, 6))
        for k in range(40):
            rows = x[identity == k]
            centred = rows - rows.mean(axis=0)
            sw += centred.T @ centred
            sb += len(rows) * np.outer(rows.mean(axis=0) - mean, rows.mean(axis=0) - mean)
        sw, sb = sw / len(x), sb / len(x)
        p = lda.projection
        np.testing.assert_allclose(lda.mean, mean, rtol=0, atol=1e-10)
        np.testing.assert_allclose(p @ sw @ p.T, np.eye(4), rtol=0, atol=1e-10)
        top = scipy_eigh(sb, sw, eigvals_only=True)[::-1][:4]  # descending
        np.testing.assert_allclose(p @ sb @ p.T, np.diag(top), rtol=0, atol=1e-10)

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
        assert loaded.length_norm is True

    @pytest.mark.parametrize("scalars,want", [({}, True), ({"length_norm": 0.0}, False)],
                             ids=["absent", "zero"])
    def test_length_norm_entry_read(self, tmp_path, scalars, want):
        save_checkpoint(tmp_path / "lda.ckpt", "lda", {"projection": np.eye(2),
                                                       "mean": np.zeros(2)}, scalars)
        assert load_lda(tmp_path / "lda.ckpt").length_norm is want

    def test_length_norm_entry_other_than_0_or_1_rejected(self, tmp_path):
        path = tmp_path / "lda.ckpt"
        save_checkpoint(path, "lda", {"projection": np.eye(2), "mean": np.zeros(2)},
                        {"length_norm": 0.5})
        with pytest.raises(CheckpointError) as exc:
            load_lda(path)
        assert str(exc.value) == f"{path}: scalar 'length_norm' must be 0 or 1, got 0.5"


def sample_plda_store(rng, mu, b_cov, w_cov, n_identities, n_sessions):
    """n_sessions: one count for every identity, or a sequence of counts
    that the identities take in turn (ragged counts, fitted by EM)."""
    d = len(mu)
    bc = np.linalg.cholesky(b_cov)
    wc = np.linalg.cholesky(w_cov)
    counts = np.atleast_1d(n_sessions)
    recs = []
    for i in range(n_identities):
        y = mu + bc @ rng.standard_normal(d)
        for j in range(counts[i % len(counts)]):
            x = y + wc @ rng.standard_normal(d)
            recs.append(EmbeddingRecord(f"s{i}_{j}", f"id{i}", "voice", x))
    return EmbeddingStore(recs)


def plda_loglik(store, mu, b, w):
    """Marginal log-likelihood of a store under (mu, B, W), summed over
    identities from each identity's joint Gaussian density."""
    total = 0.0
    for x in store.grouped("voice").values():
        n = x.shape[0]
        cov = np.kron(np.eye(n), w) + np.kron(np.ones((n, n)), b)
        total += multivariate_normal.logpdf(x.ravel(), np.tile(mu, n), cov)
    return total


def recovery_errors(rng, n_sessions):
    """Relative Frobenius errors of B and W fitted to 500 sampled identities."""
    d = 4
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    b_true = q @ np.diag([2.0, 1.0, 0.5, 0.25]) @ q.T
    w_true = np.diag([0.6, 0.4, 0.5, 0.3])
    store = sample_plda_store(rng, rng.standard_normal(d), b_true, w_true, 500, n_sessions)
    model = fit_plda(store)
    return (model, np.linalg.norm(model.B - b_true) / np.linalg.norm(b_true),
            np.linalg.norm(model.W - w_true) / np.linalg.norm(w_true))


@pytest.mark.parametrize("fit,what", [(lambda s: fit_lda(s, 2), "LDA"), (fit_plda, "PLDA")])
def test_too_few_voice_identities_named(rng, fit, what):
    # one identity's voices, three identities' faces
    store = EmbeddingStore.from_columns([f"r{i}" for i in range(12)],
                                        ["id0"] * 3 + [f"id{i // 3}" for i in range(9)],
                                        ["voice"] * 3 + ["face"] * 9, rng.standard_normal((12, 2)))
    with pytest.raises(ValueError, match=f"^need voice records of at least 2 identities "
                                         f"to fit {what}, found 1$"):
        fit(store)


class TestPlda:
    def test_em_loglik_monotone(self, rng):
        store = sample_plda_store(rng, np.zeros(3), np.eye(3), 0.5 * np.eye(3), 50, (2, 3, 4, 5))
        model = fit_plda(store)
        assert (model.method, model.converged) == ("EM", True)
        ll = model.loglik_history
        assert len(ll) >= 2
        assert all(b - a >= -1e-9 for a, b in zip(ll, ll[1:]))

    def test_stop_at_max_iter_warns(self, rng):
        store = sample_plda_store(rng, np.zeros(3), np.eye(3), 0.5 * np.eye(3), 50, (2, 3, 4, 5))
        with pytest.warns(UserWarning, match="max_iter=2"):
            model = fit_plda(store, max_iter=2)
        assert len(model.loglik_history) == 2
        assert (model.method, model.converged) == ("EM", False)
        assert model.describe_fit() == "EM stopped without converging after 2 iterations"

    def test_recovers_generating_covariances(self, rng):
        model, b_err, w_err = recovery_errors(rng, 10)
        assert model.method == "closed form"
        assert b_err < 0.15
        assert w_err < 0.15

    def test_em_recovers_generating_covariances_from_ragged_counts(self, rng):
        model, b_err, w_err = recovery_errors(rng, (6, 8, 10, 12, 14))
        assert (model.method, model.converged) == ("EM", True)
        assert b_err < 0.15
        assert w_err < 0.15

    def test_single_session_per_identity_still_monotone(self, rng):
        store = sample_plda_store(rng, np.zeros(2), np.eye(2), 0.3 * np.eye(2), 40, 1)
        model = fit_plda(store)
        assert model.method == "EM"
        ll = model.loglik_history
        assert all(b - a >= -1e-9 for a, b in zip(ll, ll[1:]))

    def test_em_loglik_is_the_marginal_density(self, rng):
        store = sample_plda_store(rng, np.zeros(2), np.eye(2), 0.5 * np.eye(2), 12, (1, 2, 4))
        with pytest.warns(UserWarning, match="max_iter"):
            model = fit_plda(store, max_iter=3)
            two = fit_plda(store, max_iter=2)
        # the third entry is the log-likelihood at the parameters after two M-steps
        assert model.loglik_history[2] == pytest.approx(
            plda_loglik(store, two.mu, two.B, two.W), rel=1e-12)

    def test_closed_form_loglik_beats_feasible_perturbations(self, rng):
        store = sample_plda_store(rng, np.zeros(3), np.diag([1.0, 0.2, 0.01]),
                                  np.diag([0.5, 1.0, 0.8]), 80, 3)
        model = fit_plda(store)
        assert model.method == "closed form"
        assert model.converged
        assert model.describe_fit() == "closed form"
        [best] = model.loglik_history
        assert best == pytest.approx(plda_loglik(store, model.mu, model.B, model.W), rel=1e-12)
        for _ in range(40):
            step = 10.0 ** rng.uniform(-4, -1)
            a = rng.standard_normal((3, 3))
            b = model.B + step * (a + a.T)
            eigvals, eigvecs = np.linalg.eigh(b)
            b = (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.T  # back to B >= 0
            c = rng.standard_normal((3, 3))
            w = model.W + step * (c @ c.T if rng.random() < 0.5 else -0.1 * (c + c.T))
            mu = model.mu + step * rng.standard_normal(3)
            assert plda_loglik(store, mu, 0.5 * (b + b.T), w) < best

    def test_closed_form_zero_between_spread_is_singular_b(self, rng, recwarn):
        # identity means spread along the first axis only
        recs = []
        for i in range(200):
            y = np.array([rng.standard_normal(), 0.0])
            recs += [EmbeddingRecord(f"v{i}_{j}", f"id{i}", "voice", y + rng.standard_normal(2))
                     for j in range(4)]
        model = fit_plda(EmbeddingStore(recs))
        assert model.method == "closed form"
        eigvals, eigvecs = np.linalg.eigh(model.B)
        assert eigvals[0] == pytest.approx(0.0, abs=1e-12)
        assert abs(eigvecs[1, 0]) > 0.95  # the null direction is the second axis
        assert eigvals[1] > 0.5
        assert not recwarn.list
        assert np.isfinite(plda_llr(model, np.ones(2), np.zeros(2)))

    def test_singular_within_scatter_falls_back_to_em(self, rng):
        # two identical records per identity: the within scatter is zero
        recs = []
        for i in range(20):
            vec = rng.standard_normal(2)
            recs += [EmbeddingRecord(f"v{i}_{j}", f"id{i}", "voice", vec) for j in range(2)]
        with pytest.warns(UserWarning, match="max_iter=5"):
            model = fit_plda(EmbeddingStore(recs), max_iter=5)
        assert model.method == "EM"

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

    def test_group_llr_per_trial_matches_pair_loop(self, rng):
        d = 4
        a = rng.standard_normal((d, d))
        model = PldaModel(mu=rng.standard_normal(d), B=a @ a.T, W=np.eye(d) + 0.1 * a.T @ a)
        groups1 = [rng.standard_normal((n, d)) for n in (1, 3, 2)]
        groups2 = [rng.standard_normal((n, d)) for n in (2, 1, 4, 3, 1)]
        e_at, t_at = [2, 0, 1, 2, 0], [4, 1, 1, 0, 3]
        got = plda_group_llr(model, groups1, groups2, e_at, t_at)
        assert got.shape == (5,)
        want = [np.mean([plda_llr(model, x1, x2) for x1 in groups1[i] for x2 in groups2[j]])
                for i, j in zip(e_at, t_at)]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)
        assert type(plda_llr(model, groups1[0][0], groups2[0][0])) is float
        with pytest.raises(ValueError):  # two vectors only, not two groups
            plda_llr(model, groups1[1], groups2[0])

    def test_checkpoint_roundtrip(self, tmp_path, rng):
        store = sample_plda_store(rng, np.zeros(2), np.eye(2), 0.5 * np.eye(2), 30, 3)
        model = fit_plda(store)
        save_plda(model, tmp_path / "plda.ckpt")
        loaded = load_plda(tmp_path / "plda.ckpt")
        np.testing.assert_array_equal(loaded.B, model.B)
        np.testing.assert_array_equal(loaded.W, model.W)


def pool(scores, rule):
    """Pool given scores through pool_cosines as one trial: every row's cosine
    with the template is exactly 1, and the link scales it to its score."""
    scores = np.asarray(scores, dtype=np.float64)
    return pool_cosines([[1.0]], [np.ones((len(scores), 1))], [0], [0], rule,
                        link=lambda cosines: cosines * scores)[0]


class TestPooling:
    def test_top_two_of_ten(self):
        scores = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        assert pool(scores, PoolingRule(0.2)) == pytest.approx(0.95)

    def test_singleton_clamps_to_one(self):
        assert pool([0.3], PoolingRule(0.2)) == 0.3

    def test_ceiling_rule_three_scores(self):
        assert pool([0.1, 0.5, 0.9], PoolingRule(0.2)) == 0.9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pool([], PoolingRule(0.2))

    def test_permutation_invariant_and_monotone(self, rng):
        rule = PoolingRule(0.3)
        for _ in range(50):
            scores = rng.standard_normal(int(rng.integers(1, 12)))
            base = pool(scores, rule)
            assert pool(rng.permutation(scores), rule) == base
            bumped = scores.copy()
            i = int(rng.integers(len(scores)))
            bumped[i] += abs(rng.standard_normal())
            assert pool(bumped, rule) >= base

    def test_per_trial_takes_k_per_group_size(self, rng):
        # ragged groups: k = 1, 2, 3, 3 for n = 1, 4, 7, 10; every
        # (template, group) pair is a trial, listed in a scrambled order
        rule = PoolingRule(0.3)
        templates = rng.standard_normal((3, 4))
        groups = [rng.standard_normal((n, 4)) for n in (4, 1, 7, 4, 10)]
        e_at, t_at = np.unravel_index(rng.permutation(15), (3, 5))
        got = pool_cosines(templates, groups, e_at, t_at, rule)
        assert got.shape == (15,)
        for score, i, j in zip(got, e_at, t_at):
            t, x = templates[i], groups[j]
            cos = x @ t / (np.linalg.norm(x, axis=1) * np.linalg.norm(t))
            k = {1: 1, 4: 2, 7: 3, 10: 3}[len(x)]
            assert score == pytest.approx(np.sort(cos)[-k:].mean(), abs=1e-15)
        # neither the order of the groups nor of a group's rows matters
        shuffled = [rng.permutation(x) for x in groups[::-1]]
        np.testing.assert_array_equal(pool_cosines(templates, shuffled, e_at, 4 - t_at, rule),
                                      got)


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


def score_vfnet_trial(params, voice, faces, rule=PoolingRule()):
    """The vfnet score of one trial: an enrollment voice against test faces."""
    enroll = EmbeddingStore([EmbeddingRecord("v", "a", "voice", voice)])
    test = EmbeddingStore(EmbeddingRecord(f"f{j}", "b", "face", face)
                          for j, face in enumerate(faces))
    scored = score_trials(TrialSet([Trial("a", "b")]), enroll, test, None, None,
                          params, rule, systems=("vfnet",))
    return scored["vfnet"].scores[0]


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
