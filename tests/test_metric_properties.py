"""Property tests: rank metrics do not change under a strictly increasing
transform of the scores, and the minDCF threshold moves with it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avsrkit.metrics import DcfParams, compute_metrics
from conftest import make_score_set

# scores on a grid of quarters: each transform below keeps distinct grid
# values distinct in binary64, so only the real ties tie after mapping
GRID = st.integers(-40, 40).map(lambda k: k / 4)
TRANSFORMS = {"affine": lambda s: 3.0 * s + 1.0, "exp": lambda s: np.exp(s / 4.0)}


@st.composite
def labeled_scores(draw):
    """(targets, nontargets), at least one of each and one cross-class tie."""
    tie = draw(GRID)
    tar = draw(st.lists(GRID, min_size=0, max_size=40)) + [tie]
    non = draw(st.lists(GRID, min_size=0, max_size=40)) + [tie]
    return np.array(tar), np.array(non)


@pytest.mark.parametrize("name", sorted(TRANSFORMS))
@settings(max_examples=60, deadline=None)
@given(scores=labeled_scores(), p_target=st.sampled_from([0.01, 0.05, 0.5, 0.9]))
def test_rank_metrics_invariant_under_increasing_transform(name, scores, p_target):
    transform = TRANSFORMS[name]
    tar, non = scores
    params = DcfParams(p_target=p_target)
    base = compute_metrics(make_score_set(tar, non), params)
    mapped = compute_metrics(make_score_set(transform(tar), transform(non)), params)
    assert mapped.eer == base.eer
    assert mapped.auc == base.auc
    assert mapped.min_dcf == base.min_dcf
    base_threshold, mapped_threshold = base.min_dcf_threshold, mapped.min_dcf_threshold
    if math.isinf(base_threshold):  # an ROC endpoint stays an endpoint
        assert mapped_threshold == base_threshold
    else:
        assert mapped_threshold == pytest.approx(float(transform(np.float64(base_threshold))),
                                                 rel=1e-15)
