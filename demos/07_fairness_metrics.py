"""Fairness arithmetic: per-group accuracy, global mean, STD, and the
skewed error ratio, plus the best-threshold verification protocol.
"""

import numpy as np

from mstkd import best_threshold_accuracy, compare_reports, fairness_metrics
from mstkd.evaluation import FairnessReport, render_table

# four per-group accuracies summarize to three numbers
acc = (89.82, 78.32, 86.87, 86.00)
glob, std, ser = fairness_metrics(acc)
print(f"accuracies {acc}")
print(f"global {glob:.2f} = plain mean")
print(f"STD    {std:.2f} = sample standard deviation (n-1 divisor)")
print(f"SER    {ser:.2f} = worst-group error / best-group error "
      f"= (100-{min(acc)}) / (100-{max(acc)})")

print("\na perfectly even model has STD 0 and SER exactly 1:")
print("  ", fairness_metrics((90.0, 90.0, 90.0, 90.0)))

# the verification protocol: sweep all thresholds, keep the best
genuine_scores = np.array([0.9, 0.8, 0.62])
impostor_scores = np.array([0.3, 0.4, 0.58])
scores = np.concatenate([genuine_scores, impostor_scores])
labels = np.array([True] * 3 + [False] * 3)
acc_frac, threshold = best_threshold_accuracy(scores, labels)
print(f"\nseparable scores -> accuracy {acc_frac:.0%} at threshold "
      f"{threshold:.2f} (midpoint of the tightest gap)")
acc_frac, _ = best_threshold_accuracy(np.array([0.5, 0.5]),
                                      np.array([True, False]))
print(f"indistinguishable scores -> accuracy {acc_frac:.0%}")

# side-by-side reports with deltas
names = ["g0", "g1", "g2", "g3"]
a = FairnessReport(names, [92.12, 93.07, 95.33, 93.93], [0.0] * 4,
                   *fairness_metrics([92.12, 93.07, 95.33, 93.93]))
b = FairnessReport(names, [91.43, 92.68, 95.10, 93.53], [0.0] * 4,
                   *fairness_metrics([91.43, 92.68, 95.10, 93.53]))
print("\ntwo runs side by side (best per column starred):")
print(render_table([("run A", a), ("run B", b)], blocks=[1, 1]))
deltas = compare_reports(a, b)
print(f"A minus B: global {deltas['global_acc']:+.2f}, "
      f"STD {deltas['std']:+.2f}, SER {deltas['ser']:+.2f}")
