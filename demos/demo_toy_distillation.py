"""Training the quantizer: confidence-blended distillation on a toy model.

A two-layer teacher distills into its own 2-bit-quantized copy. The loss
mixes both KL directions, weighted by the teacher's measured confidence;
weights learn through the straight-through estimator while the clip and
partition logits follow their exact gradients at a ~10x higher rate.
The frozen-partition ablation shows what the learnable grid buys.

Run: python demos/demo_toy_distillation.py
"""

import numpy as np

from rcpq import DistillConfig, grad_check, invariance_check, train_toy

print("=== 1. Full run: learnable clip + partitions ===")
cfg = DistillConfig(seed=0, steps=200, batch=32)
rep = train_toy(cfg)
trace = np.asarray(rep.loss_trace)
print(f"teacher confidence alpha = {rep.alpha:.3f}")
print(f"loss: {rep.initial_loss:.4f} -> {rep.final_loss:.4f} "
      f"({rep.final_loss / rep.initial_loss:.1%} of initial)")
print(f"held-out loss {rep.eval_loss:.4f}, teacher agreement {rep.agreement:.1%}")
print(f"largest step-to-step loss increase: {rep.max_loss_spike:+.4f}")
milestones = trace[:: max(1, len(trace) // 8)]
print("trace:", "  ".join(f"{v:.3f}" for v in milestones))

print()
print("=== 2. Ablation: freeze the partition logits ===")
rep_f = train_toy(DistillConfig(seed=0, steps=200, batch=32, freeze_partitions=True))
print(f"frozen partitions final loss: {rep_f.final_loss:.4f} "
      f"vs learnable {rep.final_loss:.4f}")
levels = rep.levels[0].reshape(-1, 4)
moved = np.abs(levels[:, 1:3] - np.array([1 / 3, 2 / 3])).mean()
print(f"learned inner levels moved {moved:.4f} on average away from thirds")

print()
print("=== 3. Gradient fidelity of the training path ===")
gc = grad_check(points=50, seed=0)
print(f"max relative error vs finite differences: {gc['max_rel_err']:.2e} "
      f"({gc['param_points']} logit points, {gc['param_excluded']} excluded on code flips)")

print()
print("=== 4. Rotation invariance of the toy network ===")
inv = invariance_check(rotation_seed=3, seed=0)
print(f"output deviation after fusing a rotation pair: {inv['max_rel_deviation']:.2e}")
print(f"mean group kurtosis delta of the rotated weight: {inv['mean_kurtosis_delta']:+.3f} "
      "(positive: flat groups became more peaked)")
