"""Single-modality scoring back-ends.

Speaker side: LDA dimensionality reduction followed by a two-covariance PLDA
(identity mean y ~ N(mu, B), observation x ~ N(y, W)) trained by EM, scored
with the closed-form pair log-likelihood ratio.

Face side: cosine similarity against a mean enrollment template, with the
pooled average of the top fraction of per-face scores.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .store import EmbeddingStore
from .vfnet import VFNetParams, cosine_similarity, pair_forward


# ---------------------------------------------------------------------------
# LDA


@dataclass
class LdaTransform:
    projection: np.ndarray  # (d, D)
    mean: np.ndarray        # (D,)

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        return (x - self.mean) @ self.projection.T

    @property
    def output_dim(self) -> int:
        return self.projection.shape[0]


def _class_groups(store: EmbeddingStore, modality="voice"):
    groups = {}
    for rec in store.records(modality=modality):
        groups.setdefault(rec.identity_id, []).append(rec.vector)
    return {k: np.array(v) for k, v in groups.items()}


def fit_lda(store: EmbeddingStore, target_dim: int) -> LdaTransform:
    """Fisher LDA with whitening: projected within-class covariance is identity.

    Output dimension clamps to min(target_dim, n_classes - 1, D).
    """
    if target_dim < 1:
        raise ValueError("target_dim must be positive")
    groups = _class_groups(store)
    if len(groups) < 2:
        raise ValueError("need at least 2 identities to fit LDA")
    if max(x.shape[0] for x in groups.values()) < 2:
        raise ValueError("need at least one identity with 2 or more records")

    dim = store.dim
    n_total = sum(x.shape[0] for x in groups.values())
    global_mean = sum(x.sum(axis=0) for x in groups.values()) / n_total

    sw = np.zeros((dim, dim))
    sb = np.zeros((dim, dim))
    for x in groups.values():
        mu_c = x.mean(axis=0)
        centered = x - mu_c
        sw += centered.T @ centered
        diff = mu_c - global_mean
        sb += x.shape[0] * np.outer(diff, diff)
    sw /= n_total
    sb /= n_total

    min_eig = scipy.linalg.eigvalsh(sw)[0]
    if min_eig < 1e-10:
        lam = 1e-4 * np.trace(sw) / dim
        if lam <= 0.0:
            # zero scatter (e.g. every class a single repeated point)
            lam = 1e-4
        warnings.warn(f"within-class scatter is singular; regularizing with lambda={lam:.3e}")
        sw = sw + lam * np.eye(dim)

    # generalized eigenproblem; eigh normalizes V^T Sw V = I, which whitens
    eigvals, eigvecs = scipy.linalg.eigh(sb, sw)
    out_dim = min(target_dim, len(groups) - 1, dim)
    order = np.argsort(eigvals)[::-1][:out_dim]
    return LdaTransform(projection=eigvecs[:, order].T.copy(), mean=global_mean)


def project_store(lda: LdaTransform, store: EmbeddingStore,
                  length_norm: bool = True) -> EmbeddingStore:
    """Apply an LDA transform to every record, optionally length-normalizing."""
    from .store import EmbeddingRecord

    records = []
    for rec in store:
        vec = lda(rec.vector)
        if length_norm:
            norm = np.linalg.norm(vec)
            if norm == 0.0:
                raise ValueError(f"record {rec.record_id!r} projects to the zero vector")
            vec = vec / norm
        records.append(EmbeddingRecord(rec.record_id, rec.identity_id, rec.modality, vec))
    return EmbeddingStore(records)


def save_lda(lda: LdaTransform, path) -> None:
    save_checkpoint(path, "lda", {"projection": lda.projection, "mean": lda.mean})


def load_lda(path) -> LdaTransform:
    kind, arrays, _ = load_checkpoint(path)
    if kind != "lda":
        raise CheckpointError(f"{path}: expected kind 'lda', found {kind!r}")
    return LdaTransform(projection=arrays["projection"], mean=arrays["mean"])


# ---------------------------------------------------------------------------
# Two-covariance PLDA


def _floor_psd(mat, floor=1e-10, name="covariance"):
    """Symmetrize and floor eigenvalues; warns when flooring kicks in."""
    mat = 0.5 * (mat + mat.T)
    eigvals, eigvecs = np.linalg.eigh(mat)
    if eigvals[0] < floor:
        warnings.warn(f"{name} eigenvalue {eigvals[0]:.3e} below floor; clamping")
        eigvals = np.maximum(eigvals, floor)
        mat = (eigvecs * eigvals) @ eigvecs.T
        mat = 0.5 * (mat + mat.T)
    return mat


PLDA_MAX_ITER = 100


@dataclass
class PldaModel:
    mu: np.ndarray  # (d,) global mean
    B: np.ndarray   # (d, d) between-identity covariance
    W: np.ndarray   # (d, d) within-identity covariance
    loglik_history: list = field(default_factory=list, compare=False)

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.B = np.asarray(self.B, dtype=np.float64)
        self.W = np.asarray(self.W, dtype=np.float64)
        if np.abs(self.B - self.B.T).max() > 1e-10:
            raise ValueError("B is not symmetric")
        if np.abs(self.W - self.W.T).max() > 1e-10:
            raise ValueError("W is not symmetric")
        if np.linalg.eigvalsh(self.W)[0] <= 0.0:
            raise ValueError("W must be positive definite")
        if np.linalg.eigvalsh(self.B)[0] < -1e-10:
            raise ValueError("B must be positive semidefinite")
        self._scoring_cache = None

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


def fit_plda(store: EmbeddingStore, max_iter: int = PLDA_MAX_ITER, tol: float = 1e-6,
             modality: str = "voice") -> PldaModel:
    """EM for the two-covariance model on LDA-projected voice embeddings.

    Stops when the marginal log-likelihood gain drops below tol; stopping at
    max_iter instead warns. The per-iteration log-likelihood sequence is
    recorded on the model and is non-decreasing up to numerical slack; it has
    max_iter entries exactly when EM stopped at the cap.
    """
    groups = _class_groups(store, modality=modality)
    if len(groups) < 2:
        raise ValueError("need at least 2 identities to fit PLDA")
    data = list(groups.values())
    dim = data[0].shape[1]
    n_total = sum(x.shape[0] for x in data)
    counts = np.array([x.shape[0] for x in data])
    sums = np.array([x.sum(axis=0) for x in data])

    # moment initialization
    mu = sums.sum(axis=0) / n_total
    class_means = sums / counts[:, None]
    b = np.zeros((dim, dim))
    w = np.zeros((dim, dim))
    for x, m in zip(data, class_means):
        centered = x - m
        w += centered.T @ centered
        d = m - mu
        b += np.outer(d, d)
    b = _floor_psd(b / len(data), name="between covariance")
    w = _floor_psd(w / n_total + 1e-6 * np.eye(dim), name="within covariance")

    logliks = []
    for _ in range(max_iter):
        b_inv = np.linalg.inv(b)
        w_inv = np.linalg.inv(w)
        _, logdet_b = np.linalg.slogdet(b)
        _, logdet_w = np.linalg.slogdet(w)

        # E-step grouped by session count n: posterior precision B^-1 + n W^-1
        loglik = 0.0
        post_means = np.empty_like(class_means)
        post_covs = {}
        prior_term = b_inv @ mu
        for n in np.unique(counts):
            prec = b_inv + n * w_inv
            cov = np.linalg.inv(prec)
            cov = 0.5 * (cov + cov.T)
            post_covs[int(n)] = cov
            _, logdet_prec = np.linalg.slogdet(prec)
            idx = np.flatnonzero(counts == n)
            c = sums[idx] @ w_inv.T + prior_term
            post_means[idx] = c @ cov.T
            quad = np.einsum("ij,ij->i", c, post_means[idx])
            xs = [data[i] for i in idx]
            xwx = np.array([np.einsum("ij,ij->", x @ w_inv, x) for x in xs])
            loglik += float(np.sum(
                -0.5 * (n * dim * math.log(2.0 * math.pi) + n * logdet_w
                        + logdet_b + logdet_prec
                        + xwx + mu @ b_inv @ mu - quad)
            ))
        if logliks and loglik - logliks[-1] < tol:
            # converged; the sub-tolerance evaluation is numerical noise, so
            # the recorded history keeps only the improving iterations
            break
        logliks.append(loglik)

        # M-step
        mu_new = post_means.mean(axis=0)
        b_new = np.zeros((dim, dim))
        w_new = np.zeros((dim, dim))
        for i, x in enumerate(data):
            cov = post_covs[int(counts[i])]
            d = post_means[i] - mu_new
            b_new += cov + np.outer(d, d)
            centered = x - post_means[i]
            w_new += counts[i] * cov + centered.T @ centered
        mu = mu_new
        b = _floor_psd(b_new / len(data), name="between covariance")
        w = _floor_psd(w_new / n_total, name="within covariance")
    else:
        warnings.warn(f"PLDA EM stopped at max_iter={max_iter} before the "
                      f"log-likelihood gain fell below tol={tol:g}")

    return PldaModel(mu=mu, B=b, W=w, loglik_history=logliks)


def _plda_scoring_cache(model: PldaModel):
    if model._scoring_cache is None:
        d = model.dim
        total = model.B + model.W
        same = np.block([[total, model.B], [model.B, total]])
        same_inv = np.linalg.inv(same)
        total_inv = np.linalg.inv(total)
        _, logdet_same = np.linalg.slogdet(same)
        _, logdet_total = np.linalg.slogdet(total)
        model._scoring_cache = (same_inv, total_inv, logdet_same - 2.0 * logdet_total)
    return model._scoring_cache


def plda_llr(model: PldaModel, e1, e2) -> float:
    """log p(e1, e2 | same identity) - log p(e1, e2 | different identities).

    Closed form from the joint Gaussians: under "same" the pair is
    N([mu; mu], [[B+W, B], [B, B+W]]); under "different" the blocks are
    independent, each N(mu, B+W).
    """
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    if e1.shape != (model.dim,) or e2.shape != (model.dim,):
        raise ValueError(f"expected vectors of dimension {model.dim}")
    same_inv, total_inv, logdet_gap = _plda_scoring_cache(model)
    z = np.concatenate([e1 - model.mu, e2 - model.mu])
    q_same = z @ same_inv @ z
    q_diff = z[: model.dim] @ total_inv @ z[: model.dim] \
        + z[model.dim:] @ total_inv @ z[model.dim:]
    return float(-0.5 * (q_same - q_diff) - 0.5 * logdet_gap)


def save_plda(model: PldaModel, path) -> None:
    save_checkpoint(path, "plda", {"mu": model.mu, "B": model.B, "W": model.W})


def load_plda(path) -> PldaModel:
    kind, arrays, _ = load_checkpoint(path)
    if kind != "plda":
        raise CheckpointError(f"{path}: expected kind 'plda', found {kind!r}")
    return PldaModel(mu=arrays["mu"], B=arrays["B"], W=arrays["W"])


# ---------------------------------------------------------------------------
# Pooled trial scoring


@dataclass(frozen=True)
class PoolingRule:
    fraction: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")

    def k(self, n: int) -> int:
        if n < 1:
            raise ValueError("n must be >= 1")
        v = self.fraction * n
        # snap to the nearest integer before ceiling: 0.2 * 10 must give k=2
        # despite 0.2 * 10 > 2 in binary64
        nearest = round(v)
        k = nearest if abs(v - nearest) < 1e-9 else math.ceil(v)
        return max(1, k)


def pool_top_fraction(scores, rule: PoolingRule = PoolingRule()) -> float:
    """Mean of the k largest scores, k = max(1, ceil(fraction * N))."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("cannot pool an empty score list")
    k = rule.k(scores.size)
    top = np.sort(scores)[-k:]
    return float(top.mean())


def score_face_trial(enroll_faces, test_faces, rule: PoolingRule = PoolingRule()) -> float:
    """Cosine of each test face against the mean enrollment template, pooled."""
    enroll_faces = np.asarray(enroll_faces, dtype=np.float64)
    test_faces = np.asarray(test_faces, dtype=np.float64)
    if enroll_faces.size == 0 or test_faces.size == 0:
        raise ValueError("enrollment and test face sets must be nonempty")
    template = enroll_faces.mean(axis=0)
    norm = np.linalg.norm(template)
    if norm == 0.0:
        raise ValueError("enrollment template has zero norm")
    template = template / norm
    scores = [cosine_similarity(template, f) for f in test_faces]
    return pool_top_fraction(scores, rule)


def score_vfnet_trial(params: VFNetParams, enroll_voice, test_faces,
                      rule: PoolingRule = PoolingRule()) -> float:
    """Same-person probability of the voice against each test face, pooled."""
    test_faces = np.asarray(test_faces, dtype=np.float64)
    if test_faces.size == 0:
        raise ValueError("test face set must be nonempty")
    scores = [pair_forward(params, enroll_voice, f).p_same for f in test_faces]
    return pool_top_fraction(scores, rule)
