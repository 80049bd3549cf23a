"""Prior-weighted logistic-regression calibration and score fusion.

One model covers both jobs: calibrating a single system's scores to llrs and
affinely fusing several systems. Training minimizes the prior-weighted binary
cross-entropy of logistic(w . s + b + logit(prior)) against trial labels, the
calibration objective of Bruemmer & du Preez (2006). It is convex in the k + 1
parameters, so a full-batch Newton solve with backtracking line search reaches
the optimum in a few steps, and fitted weights are exactly reproducible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import load_model, save_checkpoint
from .metrics import DcfParams
from .store import ScoreSet
from .vfnet import expit

WEIGHT_NORM_CAP = 1e3
MAX_ITER = 100
GRAD_TOL = 1e-8


@dataclass
class FusionModel:
    weights: np.ndarray  # one per input system
    bias: float
    effective_prior: float
    # how fit_fusion ended: Newton steps taken, final |grad| (at the last step's
    # point, before any cap) and whether WEIGHT_NORM_CAP bound; None for given parameters
    iterations: int | None = field(default=None, compare=False)
    grad_norm: float | None = field(default=None, compare=False)
    capped: bool | None = field(default=None, compare=False)

    def __post_init__(self):
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=np.float64))
        if not np.all(np.isfinite(self.weights)) or not math.isfinite(self.bias):
            raise ValueError("fusion parameters must be finite")
        if not 0.0 < self.effective_prior < 1.0:
            raise ValueError("effective_prior must be in (0, 1)")


class MismatchError(ValueError):
    """System `system` (numbered from 1) disagrees with system 1's trial list
    or labels."""

    def __init__(self, system, message):
        super().__init__(message)
        self.system = system


def _aligned_matrix(system_scores):
    """Stack per-system scores into (n_trials, n_systems). Every system must
    score system 1's trial list and, where both label a trial, agree with
    system 1's label, which the fit and the fused set use."""
    if not system_scores:
        raise ValueError("need at least one system")
    ref = system_scores[0]
    for k, other in enumerate(system_scores[1:], start=2):
        if not (np.array_equal(other.enroll_ids, ref.enroll_ids)
                and np.array_equal(other.test_ids, ref.test_ids)):
            raise MismatchError(k, f"system {k} trial list does not match system 1")
        if other.labels == ref.labels:
            continue
        for e, t, ours, theirs in zip(ref.enroll_ids, ref.test_ids, ref.labels, other.labels):
            if ours != theirs and None not in (ours, theirs):
                raise MismatchError(k, f"system {k} labels trial ({e}, {t}) {theirs!r}, "
                                       f"system 1 labels it {ours!r}")
    # stacked (k, n), then transposed: another layout can change the bits of mat @ w
    return np.array([s.scores for s in system_scores]).T


def _objective(theta, x, is_target, prior):
    """Prior-weighted logistic loss, gradient and Hessian at theta =
    (weights..., bias); x holds one column per system plus a column of ones."""
    a = x @ theta + math.log(prior / (1.0 - prior))
    weight = np.where(is_target, prior / max(is_target.sum(), 1),
                      (1.0 - prior) / max((~is_target).sum(), 1))
    # softplus(-a) on targets, softplus(a) on nontargets
    loss = float(weight @ np.logaddexp(0.0, np.where(is_target, -a, a)))
    p, q = expit(a), expit(-a)
    grad = x.T @ (weight * np.where(is_target, -q, p))
    hess = (x.T * (weight * p * q)) @ x
    return loss, grad, hess


def fit_fusion(system_scores, params: DcfParams = DcfParams()) -> FusionModel:
    """Fit fusion/calibration weights on labeled development scores.

    All systems must cover the same trial list. The convex objective is
    minimized by Newton's method with backtracking line search; a fit that
    stops short of |grad| < 1e-8 warns. Perfectly separable data drives the
    optimum to infinity: the fit then warns, and the weight norm is capped at
    1e3.
    """
    system_scores = list(system_scores)
    mat = _aligned_matrix(system_scores)
    _, is_target = system_scores[0].scores_and_labels()
    prior = params.effective_prior

    # Newton steps are affine-invariant, so standardizing each system changes
    # no step; it keeps WEIGHT_NORM_CAP independent of the score scales
    mean = mat.mean(axis=0)
    std = mat.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    x = np.column_stack([(mat - mean) / std, np.ones(mat.shape[0])])

    theta = np.zeros(x.shape[1])
    loss, grad, hess = _objective(theta, x, is_target, prior)
    capped, iterations = False, 0
    while iterations < MAX_ITER and np.linalg.norm(grad) >= GRAD_TOL:
        iterations += 1
        # lstsq: a constant system's all-zero column makes hess singular
        direction = -np.linalg.lstsq(hess, grad, rcond=None)[0]
        slope = float(grad @ direction)
        step = 1.0
        # Armijo backtracking
        while True:
            candidate = theta + step * direction
            new = _objective(candidate, x, is_target, prior)
            if new[0] <= loss + 1e-4 * step * slope or step < 1e-16:
                break
            step *= 0.5
        theta, (loss, grad, hess) = candidate, new
        norm = np.linalg.norm(theta)
        if norm > WEIGHT_NORM_CAP:
            theta = theta * (WEIGHT_NORM_CAP / norm)
            capped = True
            break

    # separable data sends the optimum to infinity; the telltale is every
    # trial on the right side of the decision boundary, whether the fit hit
    # the cap or its gradient vanished at finite weights
    a = x @ theta + math.log(prior / (1.0 - prior))
    grad_norm = float(np.linalg.norm(grad))
    if capped or (np.all(a[is_target] > 0.0) and np.all(a[~is_target] < 0.0)):
        warnings.warn("fusion training data is separable; weights stopped at norm "
                      f"{np.linalg.norm(theta):.3g} (cap {WEIGHT_NORM_CAP:g})")
    elif grad_norm >= GRAD_TOL:
        warnings.warn(f"fusion fit did not converge in {MAX_ITER} Newton steps: "
                      f"|grad| = {grad_norm:.3e}")

    w_std = theta[:-1]
    weights = w_std / std
    bias = float(theta[-1] - (w_std * mean / std).sum())
    return FusionModel(weights=weights, bias=bias, effective_prior=prior, iterations=iterations,
                       grad_norm=grad_norm, capped=capped)


def apply_fusion(model: FusionModel, system_scores) -> ScoreSet:
    """Per-trial fused llr w . s + b; trial ids and labels are system 1's."""
    system_scores = list(system_scores)
    if len(system_scores) != len(model.weights):
        raise ValueError(f"model expects {len(model.weights)} systems, got {len(system_scores)}")
    fused = _aligned_matrix(system_scores) @ model.weights + model.bias
    fused.flags.writeable = False  # so the fused set holds it as it is
    ref = system_scores[0]
    return ScoreSet.from_columns(ref.enroll_ids, ref.test_ids, fused, ref.labels)


def save_fusion(model: FusionModel, path) -> None:
    save_checkpoint(path, "fusion", {"weights": model.weights},
                    scalars={"bias": model.bias, "effective_prior": model.effective_prior})


def load_fusion(path) -> FusionModel:
    return load_model(path, "fusion", lambda arrays, scalars: FusionModel(
        weights=arrays["weights"], bias=scalars["bias"],
        effective_prior=scalars["effective_prior"]))
