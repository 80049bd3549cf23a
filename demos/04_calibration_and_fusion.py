"""Score calibration and multi-system fusion with logistic regression.

Two imperfect systems observed on the same trials: fusion learns an affine
combination on a development set, and the fused scores behave like llrs, so
thresholding at the Bayes point is nearly optimal on fresh data.
"""

import numpy as np

from avsrkit import DcfParams, apply_fusion, compute_metrics, fit_fusion
from avsrkit.store import ScoreSet

rng = np.random.default_rng(11)


def observe(n_tar, n_non, quality, scale):
    """A noisy verification system: higher `quality` separates better."""
    tar = scale * rng.normal(quality, 1.0, n_tar)
    non = scale * rng.normal(0.0, 1.0, n_non)
    return ScoreSet.from_columns(
        [f"t{i}" for i in range(n_tar)] + [f"n{i}" for i in range(n_non)],
        [f"t{i}" for i in range(n_tar)] + [f"n{i}x" for i in range(n_non)],
        np.concatenate([tar, non]), ["target"] * n_tar + ["nontarget"] * n_non)


params = DcfParams(p_target=0.05)

# same trials seen by two systems with different strengths and scales
dev_a, dev_b = observe(500, 2000, 1.8, 4.0), observe(500, 2000, 1.2, 0.3)
eval_a, eval_b = observe(500, 2000, 1.8, 4.0), observe(500, 2000, 1.2, 0.3)

print("=== single systems on eval ===")
for name, ss in [("A", eval_a), ("B", eval_b)]:
    m = compute_metrics(ss, params)
    print(f"system {name}: EER {m.eer:.4f}  minDCF {m.min_dcf:.4f}  "
          f"calibration gap {m.act_dcf - m.min_dcf:+.4f}")

print("\n=== calibrating system A alone ===")
cal = fit_fusion([dev_a], params)
cal_eval = apply_fusion(cal, [eval_a])
print(f"weight {cal.weights[0]:.3f}, bias {cal.bias:+.3f}")
m = compute_metrics(cal_eval, params)
print(f"EER unchanged: {m.eer:.4f} (affine maps are monotone)")
print(f"calibration gap now {m.act_dcf - m.min_dcf:+.4f}")

print("\n=== fusing A and B ===")
fus = fit_fusion([dev_a, dev_b], params)
fused = apply_fusion(fus, [eval_a, eval_b])
print(f"weights {fus.weights.round(3)}, bias {fus.bias:+.3f}")
m = compute_metrics(fused, params)
print(f"fused EER {m.eer:.4f} vs best single "
      f"{min(compute_metrics(ss, params).eer for ss in (eval_a, eval_b)):.4f}")
print(f"fused minDCF {m.min_dcf:.4f}, actDCF {m.act_dcf:.4f}")
