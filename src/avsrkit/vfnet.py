"""Voice-face cross-modal verification network.

Two independent two-layer branches project voice and face embeddings into a
shared 128-d space (FC1 with ReLU, FC2 linear). A pair is scored by cosine
similarity S, mapped through a two-way softmax over (S, 1-S) to a same-person
probability, and trained with cross-entropy. Gradients are exact reverse-mode,
written out by hand; a batch sums them per record with a matrix product.

Parameters are float32 or float64 arrays, kept as given; ``init_params``
draws float32-representable weights, so widening them to float64 and
narrowing them back is exact. ``batch_loss_grad`` runs its matrix products in
the precision of the rows it is given (float32 rows for training, float64 for
exact checks) and returns its gradients in that precision, as views of one
flat buffer. The trainer keeps its float32 state in such buffers
(``VFNetParams.flat_like``); transforms and scoring compute in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .checkpoint import load_model, save_checkpoint


@dataclass
class VFNetParams:
    """Weights of both transform branches; w* are (out, in), b* are (out,).
    Float32 and float64 arrays are kept as given, anything else becomes
    float64. ``flat`` is the 1-d buffer the arrays view, in field order, when
    they were made by ``flat_like``; otherwise it is None."""

    voice_w1: np.ndarray
    voice_b1: np.ndarray
    voice_w2: np.ndarray
    voice_b2: np.ndarray
    face_w1: np.ndarray
    face_b1: np.ndarray
    face_w2: np.ndarray
    face_b2: np.ndarray
    flat = None  # not a field: set by flat_like

    def __post_init__(self):
        shapes = []
        for f in fields(self):
            arr = np.asarray(getattr(self, f.name))
            if arr.dtype != np.float32:
                arr = arr.astype(np.float64, copy=False)
            setattr(self, f.name, arr)
            shapes.append(arr.shape)
        for branch, (w1, b1, w2, b2) in (("voice", shapes[:4]), ("face", shapes[4:])):
            if (len(w1), len(w2)) != (2, 2) or w2[1] != w1[0]:
                raise ValueError(f"{branch} branch layer shapes do not chain")
            if (b1, b2) != (w1[:1], w2[:1]):
                raise ValueError(f"{branch} branch biases do not match its weights")
        if (shapes[4][1], shapes[6][0]) != (shapes[0][1], shapes[2][0]):
            raise ValueError("face and voice branches differ in input or output dimension")

    @property
    def input_dim(self) -> int:
        return self.voice_w1.shape[1]

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def flat_like(self, dtype, copy=False) -> "VFNetParams":
        """Arrays shaped like these, in ``dtype``, that view consecutive runs
        of one new buffer, kept as ``flat``; uninitialised, or a copy of these
        values when ``copy``."""
        arrays = self.as_dict().values()
        flat = np.empty(sum(a.size for a in arrays), dtype=dtype)
        ends = np.cumsum([a.size for a in arrays])
        out = VFNetParams(*(flat[end - a.size:end].reshape(a.shape)
                            for a, end in zip(arrays, ends)))
        out.flat = flat
        if copy:
            for dst, src in zip(out.as_dict().values(), arrays):
                dst[...] = src
        return out

    def non_finite(self) -> list:
        """Names of the arrays that hold a NaN or an infinity."""
        return [f.name for f in fields(self) if not np.isfinite(getattr(self, f.name)).all()]


def init_params(input_dim: int = 512, hidden_dim: int = 256, output_dim: int = 128,
                seed: int = 0) -> VFNetParams:
    """Glorot-uniform weights rounded to float32 values, zero biases; the
    arrays are float64."""
    rng = np.random.default_rng(seed)

    def layer(n_out, n_in):
        limit = math.sqrt(6.0 / (n_in + n_out))
        w = rng.uniform(-limit, limit, size=(n_out, n_in))
        return w.astype(np.float32).astype(np.float64), np.zeros(n_out)

    vw1, vb1 = layer(hidden_dim, input_dim)
    vw2, vb2 = layer(output_dim, hidden_dim)
    fw1, fb1 = layer(hidden_dim, input_dim)
    fw2, fb2 = layer(output_dim, hidden_dim)
    return VFNetParams(vw1, vb1, vw2, vb2, fw1, fb1, fw2, fb2)


def save_params(params: VFNetParams, path) -> None:
    save_checkpoint(path, "vfnet", params.as_dict())


def load_params(path) -> VFNetParams:
    return load_model(path, "vfnet", lambda arrays, _: VFNetParams(
        *(arrays[f.name] for f in fields(VFNetParams))))


@dataclass(frozen=True)
class PairScore:
    p_same: float


def _branch_forward(w1, b1, w2, b2, x):
    """Returns (output, hidden activation); x is (n, d_in). Each layer's
    bias and ReLU act in place on its product, to keep temporaries few."""
    a = x @ w1.T
    a += b1
    np.maximum(a, 0.0, out=a)
    out = a @ w2.T
    out += b2
    return out, a


def _transform(params: VFNetParams, branch: str, x) -> np.ndarray:
    """Run one branch on a (d,) embedding or on the rows of an (n, d) matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != params.input_dim:
        raise ValueError(f"expected {branch} embedding of dimension {params.input_dim}, "
                         f"got shape {x.shape}")
    w1, b1, w2, b2 = (getattr(params, f"{branch}_{name}") for name in ("w1", "b1", "w2", "b2"))
    out, _ = _branch_forward(w1, b1, w2, b2, np.atleast_2d(x))
    return out if x.ndim == 2 else out[0]


def transform_voice(params: VFNetParams, e_v) -> np.ndarray:
    """Voice branch output: (d,) -> (out,), or (n, d) -> (n, out) row by row."""
    return _transform(params, "voice", e_v)


def transform_face(params: VFNetParams, e_f) -> np.ndarray:
    """Face branch output: (d,) -> (out,), or (n, d) -> (n, out) row by row."""
    return _transform(params, "face", e_f)


def cosine_similarity(a, b):
    """Cosine along the last axis, clipped to [-1, 1]; the arguments broadcast,
    so a (d,) vector against (n, d) rows gives (n,) cosines and two vectors a
    float. Raises ValueError when any vector of either argument has zero norm."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[-1:] != b.shape[-1:]:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    for which, norm in (("first", na), ("second", nb)):
        if np.any(norm == 0.0):
            raise ValueError(f"{which} argument has zero norm")
    s = np.clip(np.sum(a * b, axis=-1) / (na * nb), -1.0, 1.0)
    return float(s) if s.ndim == 0 else s


def expit(x):
    """The logistic 1 / (1 + exp(-x)), elementwise. exp runs on -|x| only, so
    no x overflows it, however large."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def pair_probability(similarity):
    """Same-person probability p_same, the two-way softmax over (S, 1-S);
    equals logistic(2S - 1). A float gives a float, an array of similarities
    an array."""
    s = np.asarray(similarity, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise ValueError("similarity must be finite")
    p_same = expit(2.0 * s - 1.0)
    return float(p_same) if s.ndim == 0 else p_same


def batch_loss_grad(params: VFNetParams, voices, faces, voice_at, face_at, same_mask):
    """Mean pair loss and its gradient over a batch of (voice, face) pairs.

    voices/faces are the batch's distinct (n_v, d_in) and (n_f, d_in) rows;
    pair i is (voices[voice_at[i]], faces[face_at[i]]) with label
    same_mask[i]. Each branch runs forward and backward once per row, on the
    sum of its pairs' gradients; per-pair callers pass ``np.arange`` indices.
    Scores, losses and dL/dS are per pair; the per-row sums are matrix
    products through an (n_v, n_f) matrix, 0.44 MB at the default batches:
    a per-pair caller with thousands of pairs pays its n^2 size.
    Returns (mean_loss, grads) with grads shaped like params and viewing one
    new flat buffer (``grads.flat``). The branch passes run in the rows'
    precision: float32 rows give float32 matrix products and gradients, any
    other rows float64; the weights are cast to it only where they differ.
    The loss of each pair and their mean are float64 either way. A pair with
    a zero-norm transformed vector scores S = 0 and passes no gradient (the
    cosine has none there), so a record whose ReLUs are all off at
    initialisation does not stop training.
    """
    voices = np.asarray(voices)
    dtype = np.float32 if voices.dtype == np.float32 else np.float64
    voices = voices.astype(dtype, copy=False)
    faces = np.asarray(faces).astype(dtype, copy=False)
    voice_at, face_at = np.asarray(voice_at), np.asarray(face_at)
    same_mask = np.asarray(same_mask, dtype=bool)
    n = voice_at.size
    vw1, vb1, vw2, vb2, fw1, fb1, fw2, fb2 = (
        w.astype(dtype, copy=False) for w in params.as_dict().values())

    u_rows, av = _branch_forward(vw1, vb1, vw2, vb2, voices)
    f_rows, af = _branch_forward(fw1, fb1, fw2, fb2, faces)
    nu_rows, nf_rows = (np.linalg.norm(out, axis=1) for out in (u_rows, f_rows))
    live = (nu_rows[voice_at] > 0.0) & (nf_rows[face_at] > 0.0)
    nu_rows[nu_rows == 0.0] = 1.0  # so a zero vector's S and cosine terms are 0, not NaN
    nf_rows[nf_rows == 0.0] = 1.0
    norms = nu_rows[voice_at] * nf_rows[face_at]

    s = np.einsum("ij,ij->i", u_rows[voice_at], f_rows[face_at]) / norms
    x = 2.0 * s.astype(np.float64, copy=False) - 1.0
    losses = np.where(same_mask, np.logaddexp(0.0, -x), np.logaddexp(0.0, x))
    p = expit(x)
    # d loss / dS: -2(1-p) for same pairs, 2p for different pairs; none through a zero vector
    ds = (np.where(live, np.where(same_mask, -2.0 * (1.0 - p), 2.0 * p), 0.0)
          / n).astype(dtype, copy=False)

    # dS/du = f / (|u||f|) - S u / |u|^2 (and dS/df alike), summed over each row's
    # pairs: the first terms are w @ f_rows, the second the row times its pairs' ds S
    w = np.zeros((len(voices), len(faces)), dtype=dtype)
    np.add.at(w, (voice_at, face_at), ds / norms)  # a repeated pair adds
    grads = params.flat_like(dtype)
    g = grads.as_dict()
    for branch, g_out, out, at, out_norms, w2, a, x_in in (
            ("voice", w @ f_rows, u_rows, voice_at, nu_rows, vw2, av, voices),
            ("face", w.T @ u_rows, f_rows, face_at, nf_rows, fw2, af, faces)):
        g_out -= out * (np.bincount(at, ds * s, len(out)) / out_norms**2).astype(dtype)[:, None]
        gh = g_out @ w2
        gh *= a > 0.0  # the ReLU mask: a > 0 exactly where its input is
        np.matmul(gh.T, x_in, out=g[f"{branch}_w1"])
        gh.sum(axis=0, out=g[f"{branch}_b1"])
        np.matmul(g_out.T, a, out=g[f"{branch}_w2"])
        g_out.sum(axis=0, out=g[f"{branch}_b2"])
    return float(losses.mean()), grads


def pair_forward(params: VFNetParams, e_v, e_f) -> PairScore:
    """Full forward pass: transform both embeddings and score the pair."""
    s = cosine_similarity(transform_voice(params, e_v), transform_face(params, e_f))
    return PairScore(pair_probability(s))


def matching_accuracy(params: VFNetParams, triplets) -> float:
    """Fraction of (voice, matching face, other face) triplets where the voice
    is at least as similar to the matching face as to the other (a tie counts
    as a match). Each branch runs once over all the triplets. The decision is
    the same as comparing p_same values, since p_same is increasing in S.
    """
    triplets = list(triplets)
    if not triplets:
        raise ValueError("need at least one triplet")
    voices, faces, others = (np.array(x) for x in zip(*triplets))
    u = transform_voice(params, voices)
    f = transform_face(params, np.concatenate([faces, others]))
    n = len(triplets)
    return float(np.mean(cosine_similarity(u, f[:n]) >= cosine_similarity(u, f[n:])))
