"""Independent reference computations for the benchmark's output checks.

Each function restates a quantity from its definition in plain numpy. None
calls avsrkit's scoring, metric or fusion code, so a fault there cannot hide
in the check that is meant to catch it. ``test_references.py`` tests each
reference on its own.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# audio: LDA projection and two-covariance PLDA


def lda_project(projection, mean, x):
    """Rows of x mapped through (x - mean) P^T, then scaled to unit length."""
    y = (np.asarray(x, dtype=np.float64) - mean) @ np.asarray(projection).T
    return y / np.sqrt(np.sum(y * y, axis=1, keepdims=True))


def _gauss_logpdf(x, cov):
    """Row-wise log N(x; 0, cov) through a Cholesky factor."""
    chol = np.linalg.cholesky(cov)
    z = np.linalg.solve(chol, x.T)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    d = cov.shape[0]
    return -0.5 * (np.sum(z * z, axis=0) + logdet + d * math.log(2.0 * math.pi))


def plda_llr(mu, b, w, x1, x2):
    """Two-covariance log-likelihood ratio of row pairs (x1[i], x2[i]).

    Same identity: the stacked pair is N([mu; mu], [[B+W, B], [B, B+W]]).
    Different identities: each side is N(mu, B+W) on its own.
    """
    x1 = np.atleast_2d(x1) - mu
    x2 = np.atleast_2d(x2) - mu
    total = b + w
    joint = np.block([[total, b], [b, total]])
    same = _gauss_logpdf(np.hstack([x1, x2]), joint)
    diff = _gauss_logpdf(x1, total) + _gauss_logpdf(x2, total)
    return same - diff


# ---------------------------------------------------------------------------
# pooled face and cross-modal scores


def top_fraction_mean(scores, fraction):
    """Mean of the k largest scores, k = max(1, ceil(fraction * n)) computed in
    exact rational arithmetic on the decimal fraction."""
    scores = np.sort(np.asarray(scores, dtype=np.float64))
    k = max(1, math.ceil(Fraction(str(fraction)) * scores.size))
    return float(np.mean(scores[scores.size - k:]))


def cosine_rows(a, b):
    """Cosine similarity of each row of b to the vector a."""
    return (b @ a) / (np.linalg.norm(a) * np.linalg.norm(b, axis=1))


def face_trial_score(enroll_faces, test_faces, fraction):
    """Cosine of each test face to the mean enrollment face, top-fraction pooled."""
    template = np.mean(enroll_faces, axis=0)
    return top_fraction_mean(cosine_rows(template, test_faces), fraction)


def vfnet_branch(w1, b1, w2, b2, x):
    """Two-layer branch: ReLU(x W1^T + b1) W2^T + b2, row-wise."""
    return np.maximum(np.atleast_2d(x) @ w1.T + b1, 0.0) @ w2.T + b2


def vfnet_p_same(voice_out, face_outs):
    """Same-person probability softmax(S, 1 - S)[0] = 1 / (1 + e^(1 - 2S))."""
    s = cosine_rows(voice_out, face_outs)
    return 1.0 / (1.0 + np.exp(1.0 - 2.0 * s))


# ---------------------------------------------------------------------------
# detection metrics, sort based


def roc_curve(tar, non):
    """(thresholds, p_miss, p_fa) over every distinct score plus -inf and +inf;
    a trial is accepted iff its score >= threshold."""
    tar = np.asarray(tar, dtype=np.float64)
    non = np.asarray(non, dtype=np.float64)
    scores = np.concatenate([tar, non])
    is_tar = np.concatenate([np.ones(tar.size, bool), np.zeros(non.size, bool)])
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    t = is_tar[order]
    first = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))
    tar_below = np.concatenate([[0], np.cumsum(t)])[first]
    non_below = np.concatenate([[0], np.cumsum(~t)])[first]
    thresholds = np.concatenate([[-math.inf], s[first], [math.inf]])
    p_miss = np.concatenate([[0.0], tar_below / tar.size, [1.0]])
    p_fa = np.concatenate([[1.0], (non.size - non_below) / non.size, [0.0]])
    return thresholds, p_miss, p_fa


def detection_metrics(tar, non, p_target=0.05, c_miss=1.0, c_fa=1.0):
    """EER, AUC, minDCF (with its lowest minimizing threshold) and actDCF."""
    tar = np.asarray(tar, dtype=np.float64)
    non = np.asarray(non, dtype=np.float64)
    thresholds, p_miss, p_fa = roc_curve(tar, non)

    gap = p_miss - p_fa
    i = int(np.argmax(gap >= 0.0))
    if gap[i] == 0.0:
        eer = float(p_miss[i])
    else:
        frac = -gap[i - 1] / (gap[i] - gap[i - 1])
        eer = float(p_miss[i - 1] + frac * (p_miss[i] - p_miss[i - 1]))

    # Mann-Whitney with mid-ranks: ties between a target and a nontarget count 1/2
    scores = np.concatenate([tar, non])
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    starts = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))
    ends = np.concatenate([starts[1:], [s.size]])
    mid = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    ranks = np.empty(s.size)
    ranks[order] = mid
    auc = (ranks[:tar.size].sum() - tar.size * (tar.size + 1) / 2.0) / (tar.size * non.size)

    norm = min(c_miss * p_target, c_fa * (1.0 - p_target))
    cost = c_miss * p_target * p_miss + c_fa * (1.0 - p_target) * p_fa
    j = int(np.argmin(cost))

    prior = p_target * c_miss / (p_target * c_miss + (1.0 - p_target) * c_fa)
    theta = math.log((1.0 - prior) / prior)
    act_miss = np.searchsorted(np.sort(tar), theta, side="left") / tar.size
    act_fa = (non.size - np.searchsorted(np.sort(non), theta, side="left")) / non.size
    act = (c_miss * p_target * act_miss + c_fa * (1.0 - p_target) * act_fa) / norm

    return {"eer": eer, "auc": float(auc), "min_dcf": float(cost[j] / norm),
            "min_dcf_threshold": float(thresholds[j]), "act_dcf": float(act)}


# ---------------------------------------------------------------------------
# Bayes-optimal identity-level scorer of the linear-Gaussian generator


class BayesIdentityScorer:
    """Exact same/different-identity LLR between two sets of embeddings.

    The generator draws z ~ N(0, I_d) per identity and each session as
    A_m z + sigma * noise, with orthonormal-column A_m per modality. A set
    of n sessions then has posterior precision (1 + n / sigma^2) I and
    natural mean h = sum_i A_i^T x_i / sigma^2, and

        log p(X) = c(X) + h^T h / (2 p) - (d / 2) log p,   p = 1 + n / sigma^2.

    The c(X) terms cancel in p(E, T) / (p(E) p(T)).
    """

    def __init__(self, a_voice, a_face, sigma):
        self.maps = {"voice": np.asarray(a_voice), "face": np.asarray(a_face)}
        self.s2 = float(sigma) ** 2
        self.d = self.maps["voice"].shape[1]

    def stats(self, sessions):
        """(h, n) for a dict modality -> (n_m, D_m) array of sessions."""
        h = np.zeros(self.d)
        n = 0
        for modality, x in sessions.items():
            x = np.atleast_2d(x)
            h += self.maps[modality].T @ x.sum(axis=0) / self.s2
            n += x.shape[0]
        return h, n

    def _log_marginal(self, h, n):
        p = 1.0 + n / self.s2
        return np.sum(h * h, axis=-1) / (2.0 * p) - 0.5 * self.d * np.log(p)

    def llr(self, h_enroll, n_enroll, h_test, n_test):
        """Row-wise LLR for stacked statistics (h arrays (T, d), n arrays (T,))."""
        return (self._log_marginal(h_enroll + h_test, n_enroll + n_test)
                - self._log_marginal(h_enroll, n_enroll)
                - self._log_marginal(h_test, n_test))
