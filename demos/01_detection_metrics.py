"""Detection metrics walkthrough: EER, AUC, minDCF and actDCF.

Builds two overlapping score distributions, sweeps the ROC, and shows why
actDCF punishes miscalibration while minDCF does not.
"""

import numpy as np

from avsrkit import DcfParams, compute_metrics
from avsrkit.store import ScoreSet

rng = np.random.default_rng(42)

# targets score higher on average, but the distributions overlap
tar = rng.normal(2.0, 1.0, 400)
non = rng.normal(0.0, 1.0, 1600)
scores = ScoreSet.from_columns(
    [f"t{i}" for i in range(tar.size)] + [f"n{i}" for i in range(non.size)],
    [f"t{i}" for i in range(tar.size)] + [f"n{i}x" for i in range(non.size)],
    np.concatenate([tar, non]), ["target"] * tar.size + ["nontarget"] * non.size)

params = DcfParams(p_target=0.05, c_miss=1.0, c_fa=1.0)
report = compute_metrics(scores, params)  # every metric from one ROC sweep

print("=== basic metrics ===")
print(f"EER  = {report.eer:.4f}   (where miss rate crosses false-alarm rate)")
print(f"AUC  = {report.auc:.4f}   (P[target outscores nontarget])")
print(f"minDCF = {report.min_dcf:.4f} at threshold {report.min_dcf_threshold:.3f}")
print(f"actDCF = {report.act_dcf:.4f} at the Bayes threshold "
      f"{params.bayes_threshold:.3f}")

# the raw scores are not llrs, so actDCF is much worse than minDCF.
# an affine shift moves them onto the right scale:
shifted = ScoreSet.from_columns(scores.enroll_ids, scores.test_ids, 2.0 * scores.scores - 2.0,
                               scores.labels)
print("\n=== after a hand-tuned affine map (see the fusion demo for the "
      "principled version) ===")
shifted_report = compute_metrics(shifted, params)
print(f"minDCF = {shifted_report.min_dcf:.4f}  (unchanged: monotone invariant)")
print(f"actDCF = {shifted_report.act_dcf:.4f}  (much closer to minDCF)")

print("\n=== a few ROC operating points ===")
thresholds, p_miss, p_fa = report.thresholds, report.p_miss, report.p_fa
step = max(1, len(thresholds) // 8)
for t, pm, pf in zip(thresholds[::step], p_miss[::step], p_fa[::step]):
    print(f"threshold {t:8.3f}: p_miss {pm:.3f}  p_fa {pf:.3f}")

print(f"\nfull report: {report.n_target} targets, {report.n_nontarget} nontargets, "
      f"EER {report.eer:.4f}, AUC {report.auc:.4f}")
