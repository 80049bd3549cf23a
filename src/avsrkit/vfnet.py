"""Voice-face cross-modal verification network.

Two independent two-layer branches project voice and face embeddings into a
shared 128-d space (FC1 with ReLU, FC2 linear). A pair is scored by cosine
similarity S, mapped through a two-way softmax over (S, 1-S) to a same-person
probability, and trained with cross-entropy. Gradients are exact reverse-mode,
written out by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import expit

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint

PAIR_LABELS = ("same", "different")


@dataclass
class VFNetParams:
    """Weights of both transform branches; w* are (out, in), b* are (out,)."""

    voice_w1: np.ndarray
    voice_b1: np.ndarray
    voice_w2: np.ndarray
    voice_b2: np.ndarray
    face_w1: np.ndarray
    face_b1: np.ndarray
    face_w2: np.ndarray
    face_b2: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            arr = np.asarray(getattr(self, f.name), dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in {f.name}")
            setattr(self, f.name, arr)
        if self.voice_w2.shape[1] != self.voice_w1.shape[0]:
            raise ValueError("voice branch layer shapes do not chain")
        if self.face_w2.shape[1] != self.face_w1.shape[0]:
            raise ValueError("face branch layer shapes do not chain")

    @property
    def input_dim(self) -> int:
        return self.voice_w1.shape[1]

    def copy(self) -> "VFNetParams":
        return VFNetParams(*(getattr(self, f.name).copy() for f in fields(self)))

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def zeros_like(self) -> "VFNetParams":
        return VFNetParams(*(np.zeros_like(getattr(self, f.name)) for f in fields(self)))


def init_params(input_dim: int = 512, hidden_dim: int = 256, output_dim: int = 128,
                seed: int = 0) -> VFNetParams:
    """Glorot-uniform weights, zero biases."""
    rng = np.random.default_rng(seed)

    def layer(n_out, n_in):
        limit = math.sqrt(6.0 / (n_in + n_out))
        return rng.uniform(-limit, limit, size=(n_out, n_in)), np.zeros(n_out)

    vw1, vb1 = layer(hidden_dim, input_dim)
    vw2, vb2 = layer(output_dim, hidden_dim)
    fw1, fb1 = layer(hidden_dim, input_dim)
    fw2, fb2 = layer(output_dim, hidden_dim)
    return VFNetParams(vw1, vb1, vw2, vb2, fw1, fb1, fw2, fb2)


def save_params(params: VFNetParams, path) -> None:
    save_checkpoint(path, "vfnet", params.as_dict())


def load_params(path) -> VFNetParams:
    kind, arrays, _ = load_checkpoint(path)
    if kind != "vfnet":
        raise CheckpointError(f"{path}: expected kind 'vfnet', found {kind!r}")
    return VFNetParams(**arrays)


@dataclass(frozen=True)
class PairScore:
    similarity: float  # each field an array when scored from an array
    p_same: float
    p_diff: float


def _branch_forward(w1, b1, w2, b2, x):
    """Returns (output, pre-activation, hidden activation); x is (n, d_in)."""
    h = x @ w1.T + b1
    a = np.maximum(h, 0.0)
    return a @ w2.T + b2, h, a


def _transform(params: VFNetParams, branch: str, x) -> np.ndarray:
    """Run one branch on a (d,) embedding or on the rows of an (n, d) matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != params.input_dim:
        raise ValueError(f"expected {branch} embedding of dimension {params.input_dim}, "
                         f"got shape {x.shape}")
    w1, b1, w2, b2 = (getattr(params, f"{branch}_{name}") for name in ("w1", "b1", "w2", "b2"))
    out, _, _ = _branch_forward(w1, b1, w2, b2, np.atleast_2d(x))
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
    if np.any(na == 0.0):
        raise ValueError("first argument has zero norm")
    if np.any(nb == 0.0):
        raise ValueError("second argument has zero norm")
    s = np.clip(np.sum(a * b, axis=-1) / (na * nb), -1.0, 1.0)
    return float(s) if s.ndim == 0 else s


def pair_probability(similarity) -> PairScore:
    """Two-way softmax over (S, 1-S); equals logistic(2S - 1). A float gives
    float fields, an array of similarities array fields."""
    s = np.asarray(similarity, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise ValueError("similarity must be finite")
    p_same = expit(2.0 * s - 1.0)
    if s.ndim == 0:
        s, p_same = float(s), float(p_same)
    return PairScore(similarity=s, p_same=p_same, p_diff=1.0 - p_same)


def pair_loss(score: PairScore, label: str) -> float:
    """Cross-entropy of the pair prediction against a same/different label."""
    if label not in PAIR_LABELS:
        raise ValueError(f"unknown label {label!r}")
    x = 2.0 * score.similarity - 1.0
    # -log p_same = log(1 + e^-x); -log p_diff = log(1 + e^x)
    return float(np.logaddexp(0.0, -x) if label == "same" else np.logaddexp(0.0, x))


def batch_loss_grad(params: VFNetParams, voices, faces, same_mask):
    """Mean pair loss and its gradient over a batch of (voice, face) pairs.

    voices/faces are (n, d_in); same_mask is boolean (n,). Returns
    (mean_loss, grads) with grads shaped like params. Raises if any
    transformed vector has zero norm (cosine gradient undefined there).
    """
    voices = np.asarray(voices, dtype=np.float64)
    faces = np.asarray(faces, dtype=np.float64)
    same_mask = np.asarray(same_mask, dtype=bool)
    n = voices.shape[0]

    u, hv, av = _branch_forward(params.voice_w1, params.voice_b1,
                                params.voice_w2, params.voice_b2, voices)
    f, hf, af = _branch_forward(params.face_w1, params.face_b1,
                                params.face_w2, params.face_b2, faces)
    nu = np.linalg.norm(u, axis=1)
    nf = np.linalg.norm(f, axis=1)
    if np.any(nu == 0.0):
        raise ValueError(f"zero-norm transformed voice at batch index {int(np.argmin(nu))}")
    if np.any(nf == 0.0):
        raise ValueError(f"zero-norm transformed face at batch index {int(np.argmin(nf))}")

    s = np.einsum("ij,ij->i", u, f) / (nu * nf)
    x = 2.0 * s - 1.0
    losses = np.where(same_mask, np.logaddexp(0.0, -x), np.logaddexp(0.0, x))
    p = expit(x)
    # d loss / dS: -2(1-p) for same pairs, 2p for different pairs
    ds = np.where(same_mask, -2.0 * (1.0 - p), 2.0 * p) / n

    inv = 1.0 / (nu * nf)
    gu = ds[:, None] * (f * inv[:, None] - (s / nu**2)[:, None] * u)
    gf = ds[:, None] * (u * inv[:, None] - (s / nf**2)[:, None] * f)

    def branch_back(g_out, w2, h, a, x_in):
        gw2 = g_out.T @ a
        gb2 = g_out.sum(axis=0)
        gh = (g_out @ w2) * (h > 0.0)
        gw1 = gh.T @ x_in
        gb1 = gh.sum(axis=0)
        return gw1, gb1, gw2, gb2

    vw1, vb1, vw2, vb2 = branch_back(gu, params.voice_w2, hv, av, voices)
    fw1, fb1, fw2, fb2 = branch_back(gf, params.face_w2, hf, af, faces)
    grads = VFNetParams(vw1, vb1, vw2, vb2, fw1, fb1, fw2, fb2)
    return float(losses.mean()), grads


def pair_grad(params: VFNetParams, e_v, e_f, label: str):
    """Loss and exact gradient for a single labeled pair."""
    if label not in PAIR_LABELS:
        raise ValueError(f"unknown label {label!r}")
    e_v = np.asarray(e_v, dtype=np.float64)
    e_f = np.asarray(e_f, dtype=np.float64)
    return batch_loss_grad(params, e_v[None, :], e_f[None, :],
                           np.array([label == "same"]))


def pair_forward(params: VFNetParams, e_v, e_f) -> PairScore:
    """Full forward pass: transform both embeddings and score the pair."""
    s = cosine_similarity(transform_voice(params, e_v), transform_face(params, e_f))
    return pair_probability(s)


def match_one_of_two(params: VFNetParams, e_v, e_f_a, e_f_b) -> str:
    """Pick the candidate face more similar to the voice; ties go to 'first'.

    Both faces pass through the same face branch. The decision is identical
    to comparing p_same values since p_same is strictly increasing in S.
    """
    u = transform_voice(params, e_v)
    s_a = cosine_similarity(u, transform_face(params, e_f_a))
    s_b = cosine_similarity(u, transform_face(params, e_f_b))
    return "first" if s_a >= s_b else "second"
