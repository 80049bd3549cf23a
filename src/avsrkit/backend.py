"""Single-modality scoring back-ends.

Speaker side: LDA dimensionality reduction followed by a two-covariance PLDA
(identity mean y ~ N(mu, B), observation x ~ N(y, W)) fitted by maximum
likelihood, in closed form when every identity has the same session count
and by EM otherwise. It scores in the basis where W = I and B is diagonal,
so each trial's mean log-likelihood ratio over its record pairs comes from
its two identities' mean vectors and mean quadratic terms.

Face side: a trial's enrollment template's cosine with every test face of
its test identity, pooled as the mean of the top fraction; the cross-modal
network's scores are pooled alike.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

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
    length_norm: bool = True  # scale each projection to unit length

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        return (x - self.mean) @ self.projection.T

    @property
    def output_dim(self) -> int:
        return self.projection.shape[0]


def fit_lda(store: EmbeddingStore, target_dim: int, length_norm: bool = True) -> LdaTransform:
    """Fisher LDA with whitening: projected within-class covariance is identity.

    Output dimension clamps to min(target_dim, n_classes - 1, D).
    """
    if target_dim < 1:
        raise ValueError("target_dim must be positive")
    groups = store.grouped("voice")
    if len(groups) < 2:
        raise ValueError("need voice records of at least 2 identities to fit LDA, "
                         f"found {len(groups)}")
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
    return LdaTransform(eigvecs[:, order].T.copy(), global_mean, length_norm)


def project_store(lda: LdaTransform, store: EmbeddingStore) -> EmbeddingStore:
    """Apply an LDA transform, with its length normalization, to every record."""
    if not len(store):
        return store
    vectors = lda(store.vectors)
    if lda.length_norm:
        norm = np.linalg.norm(vectors, axis=1, keepdims=True)
        if not norm.all():
            raise ValueError(f"record {store.record_ids[int(np.argmin(norm))]!r} "
                             "projects to the zero vector")
        vectors = vectors / norm
    return EmbeddingStore.from_columns(store.record_ids, store.identity_ids,
                                       store.modalities, vectors)


def save_lda(lda: LdaTransform, path) -> None:
    save_checkpoint(path, "lda", {"projection": lda.projection, "mean": lda.mean},
                    scalars={"length_norm": lda.length_norm})


def load_lda(path) -> LdaTransform:
    arrays, scalars = load_checkpoint(path, "lda")
    length_norm = scalars.get("length_norm", 1.0)  # absent in older files, which normalize
    if length_norm not in (0.0, 1.0):
        raise CheckpointError(f"{path}: scalar 'length_norm' must be 0 or 1, got {length_norm!r}")
    return LdaTransform(arrays["projection"], arrays["mean"], bool(length_norm))


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
        self.mu, self.B, self.W = (np.asarray(a, dtype=np.float64)
                                   for a in (self.mu, self.B, self.W))
        for name, mat in (("B", self.B), ("W", self.W)):
            if np.abs(mat - mat.T).max() > 1e-10:
                raise ValueError(f"{name} is not symmetric")
        if np.linalg.eigvalsh(self.W)[0] <= 0.0:
            raise ValueError("W must be positive definite")
        if np.linalg.eigvalsh(self.B)[0] < -1e-10:
            raise ValueError("B must be positive semidefinite")

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @cached_property
    def _scoring_basis(self):
        """(V, q, p, k) of the LLR in the basis where W = I and B is diagonal (Ioffe
        2006): with (lambda, V) = eigh(B, W) and y = V'(x - mu), a pair's LLR is
        sum_j q_j (y1_j^2 + y2_j^2) + 2 p_j y1_j y2_j + k, elementwise per dimension."""
        lam, v = scipy.linalg.eigh(self.B, self.W)
        same = 1.0 + 2.0 * lam  # per dimension, det [[1+lambda, lambda], [lambda, 1+lambda]]
        return (v, -0.5 * ((1.0 + lam) / same - 1.0 / (1.0 + lam)), 0.5 * lam / same,
                -0.5 * float(np.sum(np.log(same / (1.0 + lam) ** 2))))

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
        raise ValueError("need voice records of at least 2 identities to fit PLDA, "
                         f"found {len(groups)}")
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


def plda_group_llr(model: PldaModel, groups1, groups2, e_at, t_at) -> np.ndarray:
    """Each trial's mean LLR over the n1 x n2 record pairs of its two (n, d)
    groups, trial i pairing groups1[e_at[i]] with groups2[t_at[i]]: exactly
    mean q(y1) + mean q(y2) + 2 m1' diag(p) m2 + k, with m a group's mean y.
    The cross term is an elementwise reduction, not a matrix product, so that
    its bits do not depend on the BLAS thread count."""
    v, q, p, k = model._scoring_basis

    def stats(groups):  # each group's mean q(y) and mean y
        ys = [(np.asarray(x, dtype=np.float64) - model.mu) @ v for x in groups]
        return (np.array([np.einsum("ij,ij,j->", y, y, q) / len(y) for y in ys]),
                np.array([y.mean(axis=0) for y in ys]))

    (q1, m1), (q2, m2) = stats(groups1), stats(groups2)
    return q1[e_at] + q2[t_at] + 2.0 * np.einsum("ij,ij->i", (m1 * p)[e_at], m2[t_at]) + k


def plda_llr(model: PldaModel, e1, e2) -> float:
    """log p(e1, e2 | same identity) - log p(e1, e2 | different identities)
    of two (d,) vectors, with the pair N([mu; mu], [[B+W, B], [B, B+W]]) under
    "same" and two independent N(mu, B+W) under "different"."""
    return float(plda_group_llr(model, [[e1]], [[e2]], [0], [0])[0])  # two one-record groups


def save_plda(model: PldaModel, path) -> None:
    save_checkpoint(path, "plda", {"mu": model.mu, "B": model.B, "W": model.W})


def load_plda(path) -> PldaModel:
    arrays, _ = load_checkpoint(path, "plda")
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


def pool_cosines(templates, groups, e_at, t_at, rule: PoolingRule = PoolingRule(),
                 link=None) -> np.ndarray:
    """Each trial's cosines of its (D,) template templates[e_at[i]] with the rows
    of its (n, D) test group groups[t_at[i]], mapped through link (elementwise)
    if given, pooled as the mean of the k = rule.k(n) largest; one pass per group."""
    templates = np.asarray(templates, dtype=np.float64)
    if not np.linalg.norm(templates, axis=1).all():
        raise ValueError("enrollment template has zero norm")
    e_at, t_at = np.asarray(e_at), np.asarray(t_at)
    order = np.argsort(t_at, kind="stable")  # the trials, grouped by test identity
    by_group = np.split(order, np.searchsorted(t_at[order], np.arange(1, len(groups))))
    scores = np.empty(len(t_at))
    for x, rows in zip(groups, by_group):
        s = cosine_similarity(templates[e_at[rows], None], np.asarray(x, dtype=np.float64)[None])
        s = s if link is None else link(s)
        scores[rows] = np.sort(s, axis=1)[:, -rule.k(len(x)):].mean(axis=1)
    return scores


def score_face_trial(enroll_faces, test_faces, rule: PoolingRule = PoolingRule()) -> float:
    """Cosine of each test face against the mean enrollment template, pooled."""
    return float(pool_cosines([np.mean(enroll_faces, axis=0)], [test_faces], [0], [0], rule)[0])
