"""Detection metrics: ROC points, EER, AUC, minDCF, actDCF.

Convention everywhere: a trial is accepted iff its score >= threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .store import ScoreSet


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
    return list(zip(*(a.tolist() for a in _roc_arrays(tar, non))))


def _roc_arrays(tar, non):
    """(thresholds, p_miss, p_fa) arrays of roc_points, endpoints included."""
    thresholds = np.unique(np.concatenate([tar, non]))
    # at threshold t: miss iff target score < t, false alarm iff nontarget >= t
    n_miss = np.searchsorted(np.sort(tar), thresholds, side="left")
    n_fa = non.shape[0] - np.searchsorted(np.sort(non), thresholds, side="left")
    return (np.concatenate([[-math.inf], thresholds, [math.inf]]),
            np.concatenate([[0.0], n_miss / tar.shape[0], [1.0]]),
            np.concatenate([[1.0], n_fa / non.shape[0], [0.0]]))


def eer(scores: ScoreSet) -> float:
    """Equal error rate, linearly interpolated between bracketing ROC points."""
    return _eer_arrays(*_split_scores(scores))


def _eer_arrays(tar, non) -> float:
    return _eer_roc(*_roc_arrays(tar, non)[1:])


def _eer_roc(p_miss, p_fa) -> float:
    # p_miss - p_fa is non-decreasing from -1 to +1; find the sign change
    gap = p_miss - p_fa
    i = int(np.argmax(gap >= 0.0))
    if gap[i] == 0.0:
        return float(p_miss[i])
    t = -gap[i - 1] / (gap[i] - gap[i - 1])
    return float(p_miss[i - 1] + t * (p_miss[i] - p_miss[i - 1]))


def auc(scores: ScoreSet) -> float:
    """Probability a random target outscores a random nontarget; ties count 1/2."""
    return _auc_arrays(*_split_scores(scores))


def _auc_arrays(tar, non) -> float:
    non_sorted = np.sort(non)
    below = np.searchsorted(non_sorted, tar, side="left")
    below_or_equal = np.searchsorted(non_sorted, tar, side="right")
    wins = below + 0.5 * (below_or_equal - below)
    return float(wins.sum() / (tar.shape[0] * non.shape[0]))


def min_dcf(scores: ScoreSet, params: DcfParams = DcfParams()):
    """Minimum normalized detection cost and its (lowest) minimizing threshold."""
    return _min_dcf_roc(*_roc_arrays(*_split_scores(scores)), params)


def _min_dcf_roc(thresholds, p_miss, p_fa, params: DcfParams):
    cost = params.c_miss * params.p_target * p_miss \
        + params.c_fa * (1.0 - params.p_target) * p_fa
    i = int(np.argmin(cost))  # the first minimum, at the lowest threshold
    return float(cost[i] / params.normalizer), float(thresholds[i])


def act_dcf(llr_scores: ScoreSet, params: DcfParams = DcfParams()) -> float:
    """Normalized detection cost at the fixed Bayes llr threshold."""
    return _act_dcf_arrays(*_split_scores(llr_scores), params)


def _act_dcf_arrays(tar, non, params: DcfParams) -> float:
    theta = params.bayes_threshold
    p_miss = float(np.count_nonzero(tar < theta)) / tar.shape[0]
    p_fa = float(np.count_nonzero(non >= theta)) / non.shape[0]
    cost = params.c_miss * params.p_target * p_miss \
        + params.c_fa * (1.0 - params.p_target) * p_fa
    return cost / params.normalizer


def compute_metrics(scores: ScoreSet, params: DcfParams = DcfParams()) -> MetricReport:
    tar, non = _split_scores(scores)
    thresholds, p_miss, p_fa = _roc_arrays(tar, non)
    mdcf, threshold = _min_dcf_roc(thresholds, p_miss, p_fa, params)
    return MetricReport(
        eer=_eer_roc(p_miss, p_fa),
        auc=_auc_arrays(tar, non),
        min_dcf=mdcf,
        min_dcf_threshold=threshold,
        act_dcf=_act_dcf_arrays(tar, non, params),
        n_target=tar.shape[0],
        n_nontarget=non.shape[0],
    )
