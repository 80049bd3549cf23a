"""Detection metrics: EER, AUC, minDCF, actDCF and the ROC they come from.

Convention everywhere: a trial is accepted iff its score >= threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    eer: float  # linearly interpolated between the bracketing ROC points
    auc: float  # P(a random target outscores a random nontarget), ties counting 1/2
    min_dcf: float  # the minimum normalized detection cost over all thresholds
    min_dcf_threshold: float  # the lowest threshold that attains it
    act_dcf: float  # the normalized cost at the Bayes threshold, the scores read as llrs
    n_target: int
    n_nontarget: int
    # the ROC: an operating point per distinct threshold, increasing, between the -inf and
    # +inf endpoints (0, 1) and (1, 0); p_miss non-decreasing, p_fa non-increasing
    thresholds: np.ndarray = field(compare=False, repr=False)
    p_miss: np.ndarray = field(compare=False, repr=False)
    p_fa: np.ndarray = field(compare=False, repr=False)


def _roc_arrays(tar, non):
    """(thresholds, p_miss, p_fa) of sorted target and nontarget score arrays."""
    thresholds = np.unique(np.concatenate([tar, non]))
    # at threshold t: miss iff target score < t, false alarm iff nontarget >= t
    n_miss = np.searchsorted(tar, thresholds, side="left")
    n_fa = non.shape[0] - np.searchsorted(non, thresholds, side="left")
    return (np.concatenate([[-math.inf], thresholds, [math.inf]]),
            np.concatenate([[0.0], n_miss / tar.shape[0], [1.0]]),
            np.concatenate([[1.0], n_fa / non.shape[0], [0.0]]))


def _eer_arrays(tar, non) -> float:
    return _eer_roc(*_roc_arrays(np.sort(tar), np.sort(non))[1:])


def _eer_roc(p_miss, p_fa) -> float:
    # p_miss - p_fa is non-decreasing from -1 to +1; find the sign change
    gap = p_miss - p_fa
    i = int(np.argmax(gap >= 0.0))
    if gap[i] == 0.0:
        return float(p_miss[i])
    t = -gap[i - 1] / (gap[i] - gap[i - 1])
    return float(p_miss[i - 1] + t * (p_miss[i] - p_miss[i - 1]))


def _auc_arrays(tar, non) -> float:
    """AUC of target scores and sorted nontarget scores."""
    below = np.searchsorted(non, tar, side="left")
    below_or_equal = np.searchsorted(non, tar, side="right")
    wins = below + 0.5 * (below_or_equal - below)
    return float(wins.sum() / (tar.shape[0] * non.shape[0]))


def _dcf_roc(thresholds, p_miss, p_fa, params: DcfParams):
    """(minDCF, the threshold that attains it, actDCF) on a ROC. The minimum is
    the first, at the lowest threshold; the Bayes threshold's operating point is
    the first at or above it, since no score lies between the two."""
    cost = params.c_miss * params.p_target * p_miss \
        + params.c_fa * (1.0 - params.p_target) * p_fa
    i = int(np.argmin(cost))
    act = int(np.searchsorted(thresholds, params.bayes_threshold, side="left"))
    return (float(cost[i] / params.normalizer), float(thresholds[i]),
            float(cost[act] / params.normalizer))


def compute_metrics(scores: ScoreSet, params: DcfParams = DcfParams()) -> MetricReport:
    s, is_target = scores.scores_and_labels()
    tar, non = np.sort(s[is_target]), np.sort(s[~is_target])  # each class sorted once
    thresholds, p_miss, p_fa = _roc_arrays(tar, non)
    mdcf, threshold, act_dcf = _dcf_roc(thresholds, p_miss, p_fa, params)
    return MetricReport(eer=_eer_roc(p_miss, p_fa), auc=_auc_arrays(tar, non), min_dcf=mdcf,
                        min_dcf_threshold=threshold, act_dcf=act_dcf,
                        n_target=tar.shape[0], n_nontarget=non.shape[0],
                        thresholds=thresholds, p_miss=p_miss, p_fa=p_fa)
