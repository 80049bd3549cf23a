"""Detection and matching metrics: ROC points, EER, AUC, minDCF, actDCF.

Convention everywhere: a trial is accepted iff its score >= threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .store import ScoreSet
from .vfnet import match_one_of_two


@dataclass(frozen=True)
class DcfParams:
    p_target: float = 0.05
    c_miss: float = 1.0
    c_fa: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.p_target < 1.0:
            raise ValueError("p_target must be in (0, 1)")
        if self.c_miss <= 0.0 or self.c_fa <= 0.0:
            raise ValueError("costs must be positive")

    @property
    def effective_prior(self) -> float:
        """Prior that folds the costs into a single number."""
        ct = self.p_target * self.c_miss
        return ct / (ct + (1.0 - self.p_target) * self.c_fa)

    @property
    def bayes_threshold(self) -> float:
        """Fixed llr decision threshold log((1 - prior) / prior)."""
        p = self.effective_prior
        return math.log((1.0 - p) / p)

    @property
    def normalizer(self) -> float:
        """Cost of the better trivial system (accept-all or reject-all)."""
        return min(self.c_miss * self.p_target, self.c_fa * (1.0 - self.p_target))


@dataclass(frozen=True)
class MetricReport:
    eer: float
    auc: float
    min_dcf: float
    min_dcf_threshold: float
    act_dcf: float
    n_target: int
    n_nontarget: int


def _split_scores(scores: ScoreSet):
    s, is_target = scores.scores_and_labels()
    return s[is_target], s[~is_target]


def roc_points(scores: ScoreSet):
    """Operating points (threshold, p_miss, p_fa) over all distinct thresholds.

    p_miss is non-decreasing and p_fa non-increasing along increasing
    threshold; the -inf/+inf endpoints (0,1) and (1,0) are always included.
    """
    tar, non = _split_scores(scores)
    return _roc_points_arrays(tar, non)


def _roc_points_arrays(tar, non):
    nt = tar.shape[0]
    nn = non.shape[0]
    tar_sorted = np.sort(tar)
    non_sorted = np.sort(non)
    thresholds = np.unique(np.concatenate([tar, non]))
    # at threshold t: miss iff target score < t, false alarm iff nontarget >= t
    n_miss = np.searchsorted(tar_sorted, thresholds, side="left")
    n_fa = nn - np.searchsorted(non_sorted, thresholds, side="left")
    return [(-math.inf, 0.0, 1.0),
            *zip(thresholds.tolist(), (n_miss / nt).tolist(), (n_fa / nn).tolist()),
            (math.inf, 1.0, 0.0)]


def eer(scores: ScoreSet) -> float:
    """Equal error rate, linearly interpolated between bracketing ROC points."""
    tar, non = _split_scores(scores)
    return _eer_arrays(tar, non)


def _eer_arrays(tar, non) -> float:
    points = _roc_points_arrays(tar, non)
    # p_miss - p_fa is non-decreasing from -1 to +1; find the sign change
    for i in range(1, len(points)):
        _, m2, f2 = points[i]
        d2 = m2 - f2
        if d2 >= 0.0:
            if d2 == 0.0:
                return m2
            _, m1, f1 = points[i - 1]
            d1 = m1 - f1
            t = -d1 / (d2 - d1)
            return m1 + t * (m2 - m1)
    raise AssertionError("ROC walk found no p_miss = p_fa crossing")


def auc(scores: ScoreSet) -> float:
    """Probability a random target outscores a random nontarget; ties count 1/2."""
    tar, non = _split_scores(scores)
    non_sorted = np.sort(non)
    below = np.searchsorted(non_sorted, tar, side="left")
    below_or_equal = np.searchsorted(non_sorted, tar, side="right")
    wins = below + 0.5 * (below_or_equal - below)
    return float(wins.sum() / (tar.shape[0] * non.shape[0]))


def min_dcf(scores: ScoreSet, params: DcfParams = DcfParams()):
    """Minimum normalized detection cost and its (lowest) minimizing threshold."""
    points = roc_points(scores)
    best_cost = math.inf
    best_threshold = math.nan
    for threshold, p_miss, p_fa in points:
        cost = params.c_miss * params.p_target * p_miss \
            + params.c_fa * (1.0 - params.p_target) * p_fa
        if cost < best_cost:
            best_cost = cost
            best_threshold = threshold
    return best_cost / params.normalizer, best_threshold


def act_dcf(llr_scores: ScoreSet, params: DcfParams = DcfParams()) -> float:
    """Normalized detection cost at the fixed Bayes llr threshold."""
    tar, non = _split_scores(llr_scores)
    theta = params.bayes_threshold
    p_miss = float(np.count_nonzero(tar < theta)) / tar.shape[0]
    p_fa = float(np.count_nonzero(non >= theta)) / non.shape[0]
    cost = params.c_miss * params.p_target * p_miss \
        + params.c_fa * (1.0 - params.p_target) * p_fa
    return cost / params.normalizer


def compute_metrics(scores: ScoreSet, params: DcfParams = DcfParams()) -> MetricReport:
    tar, non = _split_scores(scores)
    mdcf, threshold = min_dcf(scores, params)
    return MetricReport(
        eer=_eer_arrays(tar, non),
        auc=auc(scores),
        min_dcf=mdcf,
        min_dcf_threshold=threshold,
        act_dcf=act_dcf(scores, params),
        n_target=tar.shape[0],
        n_nontarget=non.shape[0],
    )


def matching_accuracy(params, triplets) -> float:
    """Fraction of (voice, matching face, other face) triplets where the
    network picks the matching face."""
    triplets = list(triplets)
    if not triplets:
        raise ValueError("need at least one triplet")
    correct = sum(
        match_one_of_two(params, v, f_same, f_other) == "first"
        for v, f_same, f_other in triplets
    )
    return correct / len(triplets)
