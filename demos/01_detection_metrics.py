"""Detection metrics walkthrough: EER, AUC, minDCF and actDCF.

Builds two overlapping score distributions, sweeps the ROC, and shows why
actDCF punishes miscalibration while minDCF does not.
"""

import numpy as np

from avsrkit import DcfParams, act_dcf, auc, compute_metrics, eer, min_dcf, roc_points
from avsrkit.store import ScoreEntry, ScoreSet

rng = np.random.default_rng(42)

# targets score higher on average, but the distributions overlap
tar = rng.normal(2.0, 1.0, 400)
non = rng.normal(0.0, 1.0, 1600)
scores = ScoreSet(
    [ScoreEntry(f"t{i}", f"t{i}", float(s), "target") for i, s in enumerate(tar)]
    + [ScoreEntry(f"n{i}", f"n{i}x", float(s), "nontarget") for i, s in enumerate(non)]
)

print("=== basic metrics ===")
print(f"EER  = {eer(scores):.4f}   (where miss rate crosses false-alarm rate)")
print(f"AUC  = {auc(scores):.4f}   (P[target outscores nontarget])")

params = DcfParams(p_target=0.05, c_miss=1.0, c_fa=1.0)
mdcf, threshold = min_dcf(scores, params)
print(f"minDCF = {mdcf:.4f} at threshold {threshold:.3f}")
print(f"actDCF = {act_dcf(scores, params):.4f} at the Bayes threshold "
      f"{params.bayes_threshold:.3f}")

# the raw scores are not llrs, so actDCF is much worse than minDCF.
# an affine shift moves them onto the right scale:
shifted = ScoreSet.from_columns(scores.enroll_ids, scores.test_ids, 2.0 * scores.scores - 2.0,
                               scores.labels)
print("\n=== after a hand-tuned affine map (see the fusion demo for the "
      "principled version) ===")
print(f"minDCF = {min_dcf(shifted, params)[0]:.4f}  (unchanged: monotone invariant)")
print(f"actDCF = {act_dcf(shifted, params):.4f}  (much closer to minDCF)")

print("\n=== a few ROC operating points ===")
thresholds, p_miss, p_fa = roc_points(scores)
step = max(1, len(thresholds) // 8)
for t, pm, pf in zip(thresholds[::step], p_miss[::step], p_fa[::step]):
    print(f"threshold {t:8.3f}: p_miss {pm:.3f}  p_fa {pf:.3f}")

report = compute_metrics(scores, params)
print(f"\nfull report: {report.n_target} targets, {report.n_nontarget} nontargets, "
      f"EER {report.eer:.4f}, AUC {report.auc:.4f}")
