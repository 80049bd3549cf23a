"""Single-modality scoring back-ends.

Speaker side: LDA dimensionality reduction followed by a two-covariance PLDA
(identity mean y ~ N(mu, B), observation x ~ N(y, W)) fitted by maximum
likelihood, in closed form when every identity has the same session count
and by EM otherwise, scored with the closed-form pair log-likelihood ratio, a
quadratic form that scores all enrollment x test pairs of two groups as one
matrix.

Face side: cosine similarity of all test faces against a mean enrollment
template, with the pooled average of the top fraction of per-face scores.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .store import EmbeddingStore
from .vfnet import cosine_similarity


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


def fit_lda(store: EmbeddingStore, target_dim: int) -> LdaTransform:
    """Fisher LDA with whitening: projected within-class covariance is identity.

    Output dimension clamps to min(target_dim, n_classes - 1, D).
    """
    if target_dim < 1:
        raise ValueError("target_dim must be positive")
    groups = store.grouped("voice")
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


def project(lda: LdaTransform, x, length_norm: bool = True) -> np.ndarray:
    """LDA-project a (D,) vector or the rows of an (n, D) matrix, optionally
    scaling each result to unit length."""
    y = lda(x)
    if length_norm:
        norm = np.linalg.norm(y, axis=-1, keepdims=True)
        if not norm.all():
            raise ValueError(f"row {int(np.argmin(norm))} projects to the zero vector")
        y = y / norm
    return y


def project_store(lda: LdaTransform, store: EmbeddingStore,
                  length_norm: bool = True) -> EmbeddingStore:
    """Apply an LDA transform to every record, optionally length-normalizing."""
    from .store import EmbeddingRecord

    records = list(store)
    if not records:
        return store
    x = np.array([rec.vector for rec in records])
    try:
        vecs = project(lda, x, length_norm)
    except ValueError:
        zero = np.linalg.norm(lda(x), axis=1) == 0.0
        if not (length_norm and zero.any()):
            raise
        raise ValueError(f"record {records[int(np.argmax(zero))].record_id!r} "
                         "projects to the zero vector") from None
    return EmbeddingStore(EmbeddingRecord(rec.record_id, rec.identity_id, rec.modality, vec)
                          for rec, vec in zip(records, vecs))


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
PLDA_TOL = 1e-6  # EM stops once an iteration gains less log-likelihood than this
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class PldaModel:
    mu: np.ndarray  # (d,) global mean
    B: np.ndarray   # (d, d) between-identity covariance
    W: np.ndarray   # (d, d) within-identity covariance
    loglik_history: list = field(default_factory=list, compare=False)
    # how fit_plda made the model: "closed form" or "EM", None for given parameters
    method: str | None = field(default=None, compare=False)
    converged: bool | None = field(default=None, compare=False)

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

    def describe_fit(self) -> str:
        """How the model was made: closed form, EM converged or stopped
        without converging after N iterations, or given parameters."""
        if self.method == "EM":
            status = "converged" if self.converged else "stopped without converging"
            return f"EM {status} after {len(self.loglik_history)} iterations"
        return self.method or "given parameters"


def _count_groups(groups):
    """session count n -> ((K_n, d) identity means, pooled (d, d) scatter of
    the records about their identity's mean), over the identities with n records."""
    by_count = {}
    for x in groups.values():
        by_count.setdefault(x.shape[0], []).append(x)
    stats = {}
    for n, xs in sorted(by_count.items()):
        x = np.stack(xs)
        means = x.mean(axis=1)
        centred = (x - means[:, None, :]).reshape(-1, x.shape[2])
        stats[n] = (means, centred.T @ centred)
    return stats


def _closed_form(mu, means, scatter, n):
    """Maximum-likelihood (B, W) when every identity has n >= 2 records, or
    None when the within scatter is singular.

    With S_w = scatter / (K(n-1)) and S_b the scatter of the K identity means
    about mu, eigh(S_b, S_w) diagonalizes both; per direction the optimum
    under B >= 0 is b = lambda - 1/n, w = 1 when lambda >= 1/n and b = 0,
    w = (n - 1 + n lambda)/n otherwise (Anderson, Anderson & Olkin 1986).
    """
    k = means.shape[0]
    s_w = scatter / (k * (n - 1))
    eig = np.linalg.eigvalsh(s_w)
    if eig[0] <= 1e-10 * eig[-1]:
        return None
    centred = means - mu
    lam, v = scipy.linalg.eigh(centred.T @ centred / k, s_w)
    a = s_w @ v  # inv(v).T, since v' S_w v = I
    b = (a * np.maximum(lam - 1.0 / n, 0.0)) @ a.T
    w = (a * np.minimum(1.0, (n - 1 + n * lam) / n)) @ a.T
    return 0.5 * (b + b.T), 0.5 * (w + w.T)


def _e_step(stats, mu, b, w):
    """Marginal log-likelihood and, per session count n, the identities'
    posterior means and shared posterior covariance of y.

    Written with G = (W + nB)^-1 so that B may be singular: an identity's n
    records, with mean m and scatter C about it, have log-density
    -(1/2)[n d log 2pi + (n-1) log|W| + log|W + nB| + tr(W^-1 C)
    + n (m - mu)' G (m - mu)], and y given them is N(mu + n B G (m - mu), W G B).
    """
    dim = mu.shape[0]
    w_inv = np.linalg.inv(w)
    _, logdet_w = np.linalg.slogdet(w)
    loglik = 0.0
    posteriors = {}
    for n, (means, scatter) in stats.items():
        total = w + n * b
        g = np.linalg.inv(total)
        _, logdet_total = np.linalg.slogdet(total)
        gc = (means - mu) @ g
        loglik -= 0.5 * (means.shape[0] * (n * dim * _LOG_2PI + (n - 1) * logdet_w
                                          + logdet_total)
                         + np.sum(w_inv * scatter) + n * np.sum(gc * (means - mu)))
        cov = w @ g @ b
        posteriors[n] = (mu + n * gc @ b, 0.5 * (cov + cov.T))
    return float(loglik), posteriors


def fit_plda(store: EmbeddingStore, max_iter: int = PLDA_MAX_ITER) -> PldaModel:
    """Maximum-likelihood two-covariance PLDA on LDA-projected voice embeddings.

    When every identity has the same session count n >= 2 and the within
    scatter is nonsingular, the fit is closed form (`_closed_form`). Otherwise
    EM runs from moment estimates until the log-likelihood gain drops below
    PLDA_TOL; stopping at max_iter instead warns. The log-likelihood of each EM
    iteration (the closed form's one value) is recorded on the model, with how
    it was fitted and whether it converged; the EM sequence is non-decreasing
    up to numerical slack.
    """
    groups = store.grouped("voice")
    if len(groups) < 2:
        raise ValueError("need at least 2 identities to fit PLDA")
    stats = _count_groups(groups)
    n_ids = len(groups)
    n_total = sum(n * means.shape[0] for n, (means, _) in stats.items())
    mu = sum(n * means.sum(axis=0) for n, (means, _) in stats.items()) / n_total

    [n, *ragged] = stats
    if not ragged and n >= 2:
        fit = _closed_form(mu, *stats[n], n)
        if fit is not None:
            b, w = fit
            loglik, _ = _e_step(stats, mu, b, w)
            return PldaModel(mu=mu, B=b, W=w, loglik_history=[loglik],
                             method="closed form", converged=True)

    # moment initialization
    b = sum((means - mu).T @ (means - mu) for means, _ in stats.values())
    w = sum(scatter for _, scatter in stats.values())
    b = _floor_psd(b / n_ids, name="between covariance")
    w = _floor_psd(w / n_total + 1e-6 * np.eye(mu.shape[0]), name="within covariance")

    logliks = []
    converged = False
    for _ in range(max_iter):
        loglik, posteriors = _e_step(stats, mu, b, w)
        if logliks and loglik - logliks[-1] < PLDA_TOL:
            # converged; the sub-tolerance evaluation is numerical noise, so
            # the recorded history keeps only the improving iterations
            converged = True
            break
        logliks.append(loglik)

        # M-step from each count group's pooled statistics
        mu = sum(post.sum(axis=0) for post, _ in posteriors.values()) / n_ids
        b = w = 0.0
        for n, (means, scatter) in stats.items():
            post, cov = posteriors[n]
            b = b + len(post) * cov + (post - mu).T @ (post - mu)
            w = w + scatter + n * len(post) * cov + n * (means - post).T @ (means - post)
        b = _floor_psd(b / n_ids, name="between covariance")
        w = _floor_psd(w / n_total, name="within covariance")
    else:
        warnings.warn(f"PLDA EM stopped at max_iter={max_iter} before the "
                      f"log-likelihood gain fell below tol={PLDA_TOL:g}")

    return PldaModel(mu=mu, B=b, W=w, loglik_history=logliks, method="EM",
                     converged=converged)


def _plda_scoring_cache(model: PldaModel):
    """(Q, P, k) of the LLR as the quadratic form x1'Q x1 + x2'Q x2 + 2 x1'P x2 + k
    in mean-centred vectors (Garcia-Romero & Espy-Wilson 2011)."""
    if model._scoring_cache is None:
        d = model.dim
        total = model.B + model.W
        same = np.block([[total, model.B], [model.B, total]])
        same_inv = np.linalg.inv(same)
        _, logdet_same = np.linalg.slogdet(same)
        _, logdet_total = np.linalg.slogdet(total)
        model._scoring_cache = (-0.5 * (same_inv[:d, :d] - np.linalg.inv(total)),
                                -0.5 * same_inv[:d, d:],
                                -0.5 * (logdet_same - 2.0 * logdet_total))
    return model._scoring_cache


def plda_llr(model: PldaModel, e1, e2):
    """log p(e1, e2 | same identity) - log p(e1, e2 | different identities).

    Closed form from the joint Gaussians: under "same" the pair is
    N([mu; mu], [[B+W, B], [B, B+W]]); under "different" the blocks are
    independent, each N(mu, B+W). Two (d,) vectors give a float; (n1, d) and
    (n2, d) rows (a vector counting as one row) give the (n1, n2) matrix of
    every pair's ratio.
    """
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    for e in (e1, e2):
        if e.ndim not in (1, 2) or e.shape[-1] != model.dim:
            raise ValueError(f"expected vectors of dimension {model.dim}, got shape {e.shape}")
    q, p, k = _plda_scoring_cache(model)
    x1 = np.atleast_2d(e1) - model.mu
    x2 = np.atleast_2d(e2) - model.mu
    q1 = np.einsum("ij,ij->i", x1 @ q, x1)
    q2 = np.einsum("ij,ij->i", x2 @ q, x2)
    llr = q1[:, None] + q2[None, :] + 2.0 * (x1 @ p) @ x2.T + k
    return float(llr[0, 0]) if e1.ndim == e2.ndim == 1 else llr


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
    return float(np.sort(scores)[-rule.k(scores.size):].mean())


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
    return pool_top_fraction(cosine_similarity(template / norm, test_faces), rule)
