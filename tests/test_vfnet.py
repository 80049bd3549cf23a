import math
from dataclasses import fields

import numpy as np
import pytest

from avsrkit.vfnet import (PAIR_LABELS, VFNetParams, cosine_similarity,
                           init_params, load_params, match_one_of_two,
                           pair_forward, pair_grad, pair_loss,
                           pair_probability, save_params, transform_face,
                           transform_voice)


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
        p = pair_probability(0.5)
        assert p.p_same == pytest.approx(0.5, abs=1e-15)
        assert p.p_diff == pytest.approx(0.5, abs=1e-15)

    def test_s_equal_one(self):
        # e / (e + 1)
        assert pair_probability(1.0).p_same == \
            pytest.approx(math.e / (math.e + 1.0), abs=1e-12)
        assert pair_probability(1.0).p_same == pytest.approx(0.731059, abs=1e-6)

    def test_s_equal_zero_complement(self):
        p0 = pair_probability(0.0).p_same
        p1 = pair_probability(1.0).p_same
        assert p0 == pytest.approx(0.268941, abs=1e-6)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_matches_literal_softmax_form(self):
        for s in np.linspace(-10.0, 10.0, 1000):
            literal = math.exp(s) / (math.exp(s) + math.exp(1.0 - s))
            p = pair_probability(s)
            assert abs(p.p_same - literal) < 1e-12
            assert abs(p.p_same + p.p_diff - 1.0) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            pair_probability(float("nan"))


class TestPairLoss:
    def test_half_probability(self):
        assert pair_loss(pair_probability(0.5), "same") == \
            pytest.approx(math.log(2.0), abs=1e-12)

    def test_s_one_same(self):
        assert pair_loss(pair_probability(1.0), "same") == \
            pytest.approx(0.313262, abs=1e-6)

    def test_perfect_prediction_limit(self):
        # far beyond the cosine range, but the formula is total in S
        assert pair_loss(pair_probability(40.0), "same") < 1e-12

    def test_label_validation(self):
        with pytest.raises(ValueError):
            pair_loss(pair_probability(0.0), "positive")


class TestPairGrad:
    def test_loss_matches_forward(self, rng):
        params = random_params(rng)
        e_v = rng.standard_normal(6)
        e_f = rng.standard_normal(6)
        loss, _ = pair_grad(params, e_v, e_f, "same")
        assert loss == pytest.approx(
            pair_loss(pair_forward(params, e_v, e_f), "same"), abs=1e-12)

    def test_gradients_finite(self, rng):
        for _ in range(5):
            params = random_params(rng)
            _, g = pair_grad(params, rng.standard_normal(6), rng.standard_normal(6),
                             "different")
            for f in fields(VFNetParams):
                assert np.all(np.isfinite(getattr(g, f.name)))

    def test_matches_central_differences(self, rng):
        h = 1e-5
        for label in PAIR_LABELS:
            for _ in range(10):
                params = random_params(rng)
                e_v = rng.standard_normal(6)
                e_f = rng.standard_normal(6)
                _, g = pair_grad(params, e_v, e_f, label)
                for _ in range(10):
                    f = fields(VFNetParams)[int(rng.integers(8))]
                    arr = getattr(params, f.name)
                    idx = tuple(int(rng.integers(s)) for s in arr.shape)
                    orig = arr[idx]
                    arr[idx] = orig + h
                    lp, _ = pair_grad(params, e_v, e_f, label)
                    arr[idx] = orig - h
                    lm, _ = pair_grad(params, e_v, e_f, label)
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
            p = pair_probability(s).p_same
            numeric = (pair_loss(pair_probability(s + h), "same")
                       - pair_loss(pair_probability(s - h), "same")) / (2.0 * h)
            assert numeric == pytest.approx(-2.0 * (1.0 - p), abs=1e-6)


class TestMatching:
    def test_tie_goes_first(self, rng):
        params = random_params(rng)
        face = rng.standard_normal(6)
        assert match_one_of_two(params, rng.standard_normal(6), face, face) == "first"

    def test_orders_by_similarity(self, rng):
        params = random_params(rng)
        e_v = rng.standard_normal(6)
        # search for a pair of faces with distinct similarities
        f_a, f_b = rng.standard_normal(6), rng.standard_normal(6)
        s_a = cosine_similarity(transform_voice(params, e_v), transform_face(params, f_a))
        s_b = cosine_similarity(transform_voice(params, e_v), transform_face(params, f_b))
        expected = "first" if s_a >= s_b else "second"
        assert match_one_of_two(params, e_v, f_a, f_b) == expected

    def test_agrees_with_p_same_comparison(self, rng):
        params = random_params(rng)
        for _ in range(20):
            e_v = rng.standard_normal(6)
            f_a = rng.standard_normal(6)
            f_b = rng.standard_normal(6)
            by_p = "first" if pair_forward(params, e_v, f_a).p_same >= \
                pair_forward(params, e_v, f_b).p_same else "second"
            assert match_one_of_two(params, e_v, f_a, f_b) == by_p

    def test_invariant_under_face_rescaling(self, rng):
        # positive homogeneity needs zero biases: relu(a x) = a relu(x) but
        # relu(a x + b) != a relu(x + b)
        params = init_params(input_dim=6, hidden_dim=16, output_dim=4, seed=3)
        for _ in range(20):
            e_v = rng.standard_normal(6)
            f_a = rng.standard_normal(6)
            f_b = rng.standard_normal(6)
            base = match_one_of_two(params, e_v, f_a, f_b)
            assert match_one_of_two(params, e_v, 3.7 * f_a, 0.02 * f_b) == base


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        params = random_params(rng)
        path = tmp_path / "model.ckpt"
        save_params(params, path)
        loaded = load_params(path)
        for f in fields(VFNetParams):
            np.testing.assert_array_equal(getattr(loaded, f.name),
                                          getattr(params, f.name))

    def test_wrong_kind_rejected(self, tmp_path, rng):
        from avsrkit.backend import save_lda, LdaTransform
        from avsrkit.checkpoint import CheckpointError
        path = tmp_path / "lda.ckpt"
        save_lda(LdaTransform(np.eye(2), np.zeros(2)), path)
        with pytest.raises(CheckpointError):
            load_params(path)
