import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from avsrkit.vfnet import (VFNetParams, batch_loss_grad, cosine_similarity,
                           init_params, load_params, matching_accuracy,
                           pair_forward, pair_probability, save_params,
                           transform_face, transform_voice)


def toy_params():
    """4-d input, 3-d hidden, 2-d output; both branches identical."""
    w1 = np.array([[1.0, 0.0, 0.0, 0.0],
                   [0.0, 1.0, 0.0, 0.0],
                   [0.0, 0.0, 1.0, 0.0]])
    b1 = np.zeros(3)
    w2 = np.array([[1.0, 1.0, 1.0],
                   [1.0, -1.0, 0.0]])
    b2 = np.zeros(2)
    return VFNetParams(w1, b1, w2, b2, w1.copy(), b1.copy(), w2.copy(), b2.copy())


def linear_pair(s):
    """A network that passes 2-d inputs through (its face branch negated when
    s < 0) and a (voice, face) pair whose similarity is s."""
    eye, zero = np.eye(2), np.zeros(2)
    face_w2 = eye if s >= 0.0 else -eye
    params = VFNetParams(eye, zero, eye, zero, eye, zero, face_w2, zero)
    c = abs(s)
    return params, np.array([1.0, 0.0]), np.array([c, math.sqrt(1.0 - c * c)])


def pair_loss_grad(params, e_v, e_f, same):
    """Loss and gradient of one labeled pair, a batch of one row."""
    return batch_loss_grad(params, [e_v], [e_f], [0], [0], [same])


def random_params(rng, dim=6):
    params = init_params(input_dim=dim, hidden_dim=5, output_dim=4, seed=int(rng.integers(1 << 30)))
    for f in fields(VFNetParams):
        arr = getattr(params, f.name)
        arr += 0.1 * rng.standard_normal(arr.shape)
    return params


class TestTransforms:
    def test_zero_input_zero_bias(self):
        assert np.all(transform_voice(toy_params(), np.zeros(4)) == 0.0)
        assert np.all(transform_face(toy_params(), np.zeros(4)) == 0.0)

    def test_hand_computed_toy(self):
        # fc1 keeps the first 3 coords; fc2 rows sum and difference them
        out = transform_voice(toy_params(), np.ones(4))
        np.testing.assert_allclose(out, [3.0, 0.0])
        out = transform_face(toy_params(), np.array([2.0, 1.0, 0.5, 9.0]))
        np.testing.assert_allclose(out, [3.5, 1.0])

    def test_relu_kills_negative_preactivations(self):
        out = transform_voice(toy_params(), np.array([-5.0, 1.0, 1.0, 0.0]))
        np.testing.assert_allclose(out, [2.0, -1.0])  # first unit clamped to 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            transform_voice(toy_params(), np.ones(5))

    def test_matrix_rows_match_single_vectors(self, rng):
        params = random_params(rng)
        x = rng.standard_normal((5, 6))
        for transform in (transform_voice, transform_face):
            np.testing.assert_allclose(transform(params, x),
                                       np.array([transform(params, row) for row in x]),
                                       rtol=1e-12, atol=1e-15)


class TestCosine:
    def test_self_similarity(self, rng):
        a = rng.standard_normal(8)
        assert cosine_similarity(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_antipodal(self):
        assert cosine_similarity([1.0, 0.0], [-1.0, 0.0]) == -1.0

    def test_zero_norm_reports_argument(self):
        with pytest.raises(ValueError, match="first"):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="second"):
            cosine_similarity([1.0, 0.0], [0.0, 0.0])

    def test_vector_against_rows(self, rng):
        a = rng.standard_normal(5)
        b = rng.standard_normal((7, 5))
        got = cosine_similarity(a, b)
        assert got.shape == (7,)
        np.testing.assert_allclose(got, [cosine_similarity(a, row) for row in b],
                                   rtol=0.0, atol=1e-15)

    def test_zero_norm_row_rejected(self, rng):
        b = rng.standard_normal((3, 4))
        b[1] = 0.0
        with pytest.raises(ValueError, match="second"):
            cosine_similarity(rng.standard_normal(4), b)

    def test_scale_invariance(self, rng):
        for _ in range(50):
            a = rng.standard_normal(5)
            b = rng.standard_normal(5)
            alpha, beta = rng.uniform(0.01, 100.0, size=2)
            assert cosine_similarity(alpha * a, beta * b) == \
                pytest.approx(cosine_similarity(a, b), abs=1e-12)


class TestPairProbability:
    def test_symmetry_point(self):
        assert pair_probability(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_s_equal_one(self):
        # e / (e + 1)
        assert pair_probability(1.0) == \
            pytest.approx(math.e / (math.e + 1.0), abs=1e-12)
        assert pair_probability(1.0) == pytest.approx(0.731059, abs=1e-6)

    def test_s_equal_zero_complement(self):
        p0 = pair_probability(0.0)
        p1 = pair_probability(1.0)
        assert p0 == pytest.approx(0.268941, abs=1e-6)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_matches_literal_softmax_form(self):
        for s in np.linspace(-10.0, 10.0, 1000):
            literal = math.exp(s) / (math.exp(s) + math.exp(1.0 - s))
            assert abs(pair_probability(s) - literal) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            pair_probability(float("nan"))


class TestPairLoss:
    def test_half_probability(self):
        loss, _ = pair_loss_grad(*linear_pair(0.5), True)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_s_one_same(self):
        loss, _ = pair_loss_grad(*linear_pair(1.0), True)
        assert loss == pytest.approx(0.313262, abs=1e-6)

    def test_perfect_prediction_limit(self):
        # cosine is bounded, so the best a pair can reach is S = 1 for a
        # same pair and S = -1 for a different pair: softplus(-1), softplus(-3)
        same, _ = pair_loss_grad(*linear_pair(1.0), True)
        different, _ = pair_loss_grad(*linear_pair(-1.0), False)
        assert same == pytest.approx(math.log1p(math.exp(-1.0)), abs=1e-12)
        assert different == pytest.approx(math.log1p(math.exp(-3.0)), abs=1e-12)


class TestPairGrad:
    def test_loss_matches_forward(self, rng):
        params = random_params(rng)
        e_v = rng.standard_normal(6)
        e_f = rng.standard_normal(6)
        x = 2.0 * cosine_similarity(transform_voice(params, e_v), transform_face(params, e_f)) - 1.0
        assert pair_loss_grad(params, e_v, e_f, True)[0] == \
            pytest.approx(np.logaddexp(0.0, -x), abs=1e-12)
        assert pair_loss_grad(params, e_v, e_f, False)[0] == \
            pytest.approx(np.logaddexp(0.0, x), abs=1e-12)

    def test_gradients_finite(self, rng):
        for _ in range(5):
            params = random_params(rng)
            _, g = pair_loss_grad(params, rng.standard_normal(6), rng.standard_normal(6),
                                  False)
            for f in fields(VFNetParams):
                assert np.all(np.isfinite(getattr(g, f.name)))

    def test_matches_central_differences(self, rng):
        h = 1e-5
        for same in (True, False):
            for _ in range(10):
                params = random_params(rng)
                e_v = rng.standard_normal(6)
                e_f = rng.standard_normal(6)
                _, g = pair_loss_grad(params, e_v, e_f, same)
                for _ in range(10):
                    f = fields(VFNetParams)[int(rng.integers(8))]
                    arr = getattr(params, f.name)
                    idx = tuple(int(rng.integers(s)) for s in arr.shape)
                    orig = arr[idx]
                    arr[idx] = orig + h
                    lp, _ = pair_loss_grad(params, e_v, e_f, same)
                    arr[idx] = orig - h
                    lm, _ = pair_loss_grad(params, e_v, e_f, same)
                    arr[idx] = orig
                    fd = (lp - lm) / (2.0 * h)
                    analytic = getattr(g, f.name)[idx]
                    if abs(analytic) < 1e-8:
                        assert abs(fd - analytic) < 1e-8
                    else:
                        assert abs(fd - analytic) / abs(analytic) < 1e-4

    def test_loss_slope_in_similarity(self):
        # d loss / dS for a same pair is -2 (1 - p_same): vanishes only as p -> 1
        h = 1e-7
        for s in [-0.8, 0.0, 0.9]:
            p = pair_probability(s)
            numeric = (pair_loss_grad(*linear_pair(s + h), True)[0]
                       - pair_loss_grad(*linear_pair(s - h), True)[0]) / (2.0 * h)
            assert numeric == pytest.approx(-2.0 * (1.0 - p), abs=1e-6)


class TestRepeatedRows:
    """A batch names its distinct rows once and each pair by index into them."""

    def batch(self, rng, dim=6):
        params = random_params(rng, dim)
        voices, faces = rng.standard_normal((3, dim)), rng.standard_normal((4, dim))
        voice_at = np.array([0, 0, 1, 2, 2, 2, 1, 0])  # each row named by several pairs
        face_at = np.array([0, 1, 1, 2, 3, 0, 3, 2])
        return params, voices, faces, voice_at, face_at, rng.random(8) < 0.5

    def test_matches_central_differences_at_criterion_1_bound(self, rng):
        # float64 rows, the step and the relative-error bound of acceptance criterion 1
        h = 1e-5
        worst = 0.0
        for _ in range(8):
            params, voices, faces, voice_at, face_at, same = self.batch(rng)
            _, grads = batch_loss_grad(params, voices, faces, voice_at, face_at, same)
            for f in fields(VFNetParams):
                arr = getattr(params, f.name)
                for _ in range(4):
                    idx = tuple(int(rng.integers(s)) for s in arr.shape)
                    orig = arr[idx]
                    arr[idx] = orig + h
                    lp, _ = batch_loss_grad(params, voices, faces, voice_at, face_at, same)
                    arr[idx] = orig - h
                    lm, _ = batch_loss_grad(params, voices, faces, voice_at, face_at, same)
                    arr[idx] = orig
                    analytic = getattr(grads, f.name)[idx]
                    fd = (lp - lm) / (2.0 * h)
                    worst = max(worst, abs(fd - analytic) / max(abs(analytic), 1e-6))
        assert worst < 1e-4

    def test_equals_the_batch_of_gathered_pairs(self, rng):
        for _ in range(5):
            params, voices, faces, voice_at, face_at, same = self.batch(rng)
            loss, grads = batch_loss_grad(params, voices, faces, voice_at, face_at, same)
            at = np.arange(len(same))
            want_loss, want = batch_loss_grad(params, voices[voice_at], faces[face_at], at, at,
                                              same)
            assert loss == pytest.approx(want_loss, rel=1e-14)
            np.testing.assert_allclose(grads.flat, want.flat, rtol=1e-12, atol=1e-15)

    def test_unnamed_row_gets_no_gradient(self, rng):
        params, voices, faces, voice_at, face_at, same = self.batch(rng)
        extra = np.vstack([voices, rng.standard_normal(voices.shape[1])])  # row 3, no pair
        loss, grads = batch_loss_grad(params, extra, faces, voice_at, face_at, same)
        want_loss, want = batch_loss_grad(params, voices, faces, voice_at, face_at, same)
        assert loss == want_loss
        np.testing.assert_array_equal(grads.flat, want.flat)


class TestZeroOutput:
    def dead_face_batch(self, rng):
        """Three pairs; the face of pair 1 is a zero vector and the face
        biases are zero, so its transformed face is the zero vector."""
        params = random_params(rng)
        params.face_b1[:] = 0.0
        params.face_b2[:] = 0.0
        voices, faces = rng.standard_normal((3, 6)), rng.standard_normal((3, 6))
        faces[1] = 0.0
        return params, voices, faces, np.array([True, True, False])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_scores_zero_and_passes_no_gradient(self, rng, dtype):
        params, voices, faces, same = self.dead_face_batch(rng)
        voices, faces = voices.astype(dtype), faces.astype(dtype)
        at = np.arange(3)
        loss, grads = batch_loss_grad(params, voices, faces, at, at, same)
        live = np.array([0, 2])
        live_loss, live_grads = batch_loss_grad(params, voices[live], faces[live], np.arange(2),
                                                np.arange(2), same[live])
        # S = 0 for the same pair: softplus(1); the live pairs' gradient, over 3 pairs
        assert loss == pytest.approx((2.0 * live_loss + np.logaddexp(0.0, 1.0)) / 3.0, rel=1e-6)
        assert np.isfinite(grads.flat).all()
        np.testing.assert_allclose(grads.flat, live_grads.flat * (2.0 / 3.0), rtol=1e-5,
                                   atol=1e-7 * np.abs(live_grads.flat).max())


def float64_batch_loss_grad(params, voices, faces, same_mask):
    """batch_loss_grad as written before mixed precision, float64 throughout."""
    voices = np.asarray(voices, dtype=np.float64)
    faces = np.asarray(faces, dtype=np.float64)
    same_mask = np.asarray(same_mask, dtype=bool)
    n = voices.shape[0]

    def forward(w1, b1, w2, b2, x):
        h = x @ w1.T + b1
        a = np.maximum(h, 0.0)
        return a @ w2.T + b2, h, a

    def back(g_out, w2, h, a, x_in):
        gh = (g_out @ w2) * (h > 0.0)
        return gh.T @ x_in, gh.sum(axis=0), g_out.T @ a, g_out.sum(axis=0)

    p = params
    u, hv, av = forward(p.voice_w1, p.voice_b1, p.voice_w2, p.voice_b2, voices)
    f, hf, af = forward(p.face_w1, p.face_b1, p.face_w2, p.face_b2, faces)
    nu = np.linalg.norm(u, axis=1)
    nf = np.linalg.norm(f, axis=1)
    s = np.einsum("ij,ij->i", u, f) / (nu * nf)
    x = 2.0 * s - 1.0
    losses = np.where(same_mask, np.logaddexp(0.0, -x), np.logaddexp(0.0, x))
    e = np.exp(-np.abs(x))  # the logistic of x, by exp of -|x|
    q = np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    ds = np.where(same_mask, -2.0 * (1.0 - q), 2.0 * q) / n
    inv = 1.0 / (nu * nf)
    gu = ds[:, None] * (f * inv[:, None] - (s / nu**2)[:, None] * u)
    gf = ds[:, None] * (u * inv[:, None] - (s / nf**2)[:, None] * f)
    return (float(losses.mean()),
            [*back(gu, p.voice_w2, hv, av, voices), *back(gf, p.face_w2, hf, af, faces)])


@st.composite
def named_batches(draw, dim=6):
    """A float64 batch and its pairs: rows named by several pairs, one
    (voice, face) pair given twice, a voice row no pair names, and a face row
    (row 0, named by pair 0) whose transformed vector is zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = random_params(rng, dim)
    params.face_b1[:] = 0.0
    params.face_b2[:] = 0.0
    n_voices, n_faces = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    n = draw(st.integers(max(n_voices, n_faces) + 1, 16))
    voice_at = draw(st.lists(st.integers(0, n_voices - 1), min_size=n, max_size=n))
    face_at = draw(st.lists(st.integers(0, n_faces - 1), min_size=n, max_size=n))
    face_at[0], face_at[1] = 0, draw(st.integers(1, n_faces - 1))
    voice_at[-1], face_at[-1] = voice_at[1], face_at[1]  # pair 1, live, again
    voices = rng.standard_normal((n_voices + 1, dim))  # the last row: no pair
    faces = rng.standard_normal((n_faces, dim))
    faces[0] = 0.0
    same = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return params, voices, faces, np.array(voice_at), np.array(face_at), same


@settings(max_examples=60, deadline=None, derandomize=True)
@given(batch=named_batches())
def test_row_sums_match_the_per_pair_gradients(batch):
    params, voices, faces, voice_at, face_at, same = batch
    loss, grads = batch_loss_grad(params, voices, faces, voice_at, face_at, same)
    at = np.arange(len(same))
    pair_voices, pair_faces = voices[voice_at], faces[face_at]
    assert loss == batch_loss_grad(params, pair_voices, pair_faces, at, at, same)[0]
    # a zero transformed vector passes nothing: the live pairs' mean gradient, over all pairs
    live = ((np.linalg.norm(transform_voice(params, pair_voices), axis=1) > 0.0)
            & (np.linalg.norm(transform_face(params, pair_faces), axis=1) > 0.0))
    assume(live.any())
    _, want_grads = float64_batch_loss_grad(params, pair_voices[live], pair_faces[live],
                                            same[live])
    _, grads32 = batch_loss_grad(params, voices.astype(np.float32), faces.astype(np.float32),
                                 voice_at, face_at, same)
    scale = np.abs(grads.flat).max()
    for f, want in zip(fields(VFNetParams), want_grads):
        got = getattr(grads, f.name)
        assert np.abs(got - want * (live.sum() / len(same))).max() <= 1e-12 * scale
        assert np.abs(getattr(grads32, f.name) - got).max() <= 1e-4 * scale


class TestPrecision:
    """Float32 rows run the branches in float32 and give float32 gradients;
    the loss and everything computed from float64 rows stay float64."""

    def batch(self, rng, n=64, dim=16):
        params = init_params(input_dim=dim, hidden_dim=32, output_dim=8,
                             seed=int(rng.integers(1 << 30)))
        voices = rng.standard_normal((n, dim))
        faces = 0.5 * voices + rng.standard_normal((n, dim))
        return params, voices, faces, rng.random(n) < 0.5

    def test_float32_rows_match_float64(self, rng):
        for _ in range(5):
            params, voices, faces, same = self.batch(rng)
            at = np.arange(len(same))
            loss64, g64 = batch_loss_grad(params, voices, faces, at, at, same)
            loss32, g32 = batch_loss_grad(params, voices.astype(np.float32),
                                          faces.astype(np.float32), at, at, same)
            assert isinstance(loss32, float)
            assert abs(loss32 - loss64) < 1e-6
            for f in fields(VFNetParams):
                exact, mixed = getattr(g64, f.name), getattr(g32, f.name)
                assert mixed.dtype == np.float32
                assert np.abs(mixed - exact).max() <= 1e-4 * np.abs(exact).max()

    def test_float64_rows_keep_the_float64_bits(self, rng):
        for _ in range(5):
            params, voices, faces, same = self.batch(rng)
            at = np.arange(len(same))
            loss, grads = batch_loss_grad(params, voices, faces, at, at, same)
            want_loss, want_grads = float64_batch_loss_grad(params, voices, faces, same)
            assert loss == want_loss
            # each row's pair gradients are summed by matrix products, in their own order
            for f, want in zip(fields(VFNetParams), want_grads):
                assert np.abs(getattr(grads, f.name) - want).max() <= 1e-12 * np.abs(want).max()

    def test_parameters_are_not_cast(self, rng):
        params, voices, faces, same = self.batch(rng)
        before = params.flat_like(np.float64, copy=True)
        at = np.arange(len(same))
        batch_loss_grad(params, voices.astype(np.float32), faces.astype(np.float32), at, at, same)
        for f in fields(VFNetParams):
            arr = getattr(params, f.name)
            assert arr.dtype == np.float64
            np.testing.assert_array_equal(arr, getattr(before, f.name))


class TestMatching:
    def test_tie_goes_first(self, rng):
        params = random_params(rng)
        face = rng.standard_normal(6)
        assert matching_accuracy(params, [(rng.standard_normal(6), face, face)]) == 1.0

    def test_orders_by_similarity(self, rng):
        params = random_params(rng)
        triplets = [tuple(rng.standard_normal((3, 6))) for _ in range(20)]
        u = [transform_voice(params, e_v) for e_v, _, _ in triplets]
        wins = [cosine_similarity(u_i, transform_face(params, f_a))
                >= cosine_similarity(u_i, transform_face(params, f_b))
                for u_i, (_, f_a, f_b) in zip(u, triplets)]
        assert 0 < sum(wins) < 20
        assert matching_accuracy(params, triplets) == sum(wins) / 20

    def test_agrees_with_p_same_comparison(self, rng):
        params = random_params(rng)
        for _ in range(20):
            e_v = rng.standard_normal(6)
            f_a = rng.standard_normal(6)
            f_b = rng.standard_normal(6)
            by_p = pair_forward(params, e_v, f_a).p_same >= \
                pair_forward(params, e_v, f_b).p_same
            assert matching_accuracy(params, [(e_v, f_a, f_b)]) == float(by_p)

    def test_invariant_under_face_rescaling(self, rng):
        # positive homogeneity needs zero biases: relu(a x) = a relu(x) but
        # relu(a x + b) != a relu(x + b)
        params = init_params(input_dim=6, hidden_dim=16, output_dim=4, seed=3)
        triplets = [tuple(rng.standard_normal((3, 6))) for _ in range(20)]
        base = matching_accuracy(params, triplets)
        assert 0.0 < base < 1.0
        assert matching_accuracy(params, [(e_v, 3.7 * f_a, 0.02 * f_b)
                                          for e_v, f_a, f_b in triplets]) == base

    def test_rejects_no_triplets(self):
        with pytest.raises(ValueError, match="triplet"):
            matching_accuracy(toy_params(), [])


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        params = random_params(rng)
        path = tmp_path / "model.ckpt"
        save_params(params, path)
        loaded = load_params(path)
        for f in fields(VFNetParams):
            np.testing.assert_array_equal(getattr(loaded, f.name),
                                          getattr(params, f.name))

    def test_non_finite_value_rejected(self, tmp_path, rng):
        from avsrkit.checkpoint import CheckpointError
        params = random_params(rng)
        params.face_b2[1] = np.nan
        path = tmp_path / "model.ckpt"
        save_params(params, path)
        with pytest.raises(CheckpointError, match="non-finite values in face_b2"):
            load_params(path)

    def test_wrong_kind_rejected(self, tmp_path, rng):
        from avsrkit.backend import save_lda, LdaTransform
        from avsrkit.checkpoint import CheckpointError
        path = tmp_path / "lda.ckpt"
        save_lda(LdaTransform(np.eye(2), np.zeros(2)), path)
        with pytest.raises(CheckpointError):
            load_params(path)
