"""The quantizer zoo: uniform baseline, learnable partitioning, NF3.

Shows the asymmetric integer baseline on a group, then how the learnable
quantizer carves the clipped range into three unequal partitions whose
boundaries and output levels move with four logits, the 3-bit two-sided
variant with a learnable center, and finally the 4-bit per-token activation
quantizer and the KV-cache recipe built from the asymmetric baseline.

Run: python demos/demo_quantizers.py
"""

import numpy as np

from rcpq import (
    LdpParams,
    Nf3Params,
    derive_grids,
    fake_quant,
    grads,
    make_rng,
    nf3_fake_quant,
    quant_act_per_token,
)
from rcpq.ldp import uniform_split_logits
from rcpq.uniform import asym_quant_dequant

rng = make_rng(0)

print("=== 1. Uniform asymmetric baseline (2-bit) ===")
group = np.array([-2.0, -1.0, 0.0, 4.0])
codes, deq, step, zero, span = asym_quant_dequant(group, None, None, bits=2)
print(f"group {group} -> span {span}, step {step}, zero {zero}")
print(f"codes {codes} dequantized {deq}")

print()
print("=== 2. Learnable direct partitioning at its uniform start ===")
s1, s2 = uniform_split_logits()
params = LdpParams(lo_logit=20.0, hi_logit=20.0, split1=s1, split2=s2)
g = derive_grids(np.array([-1.0, 1.0]), params)
print(f"partition shares  : {np.round(g.shares, 4)}")
print(f"thresholds        : {np.round(g.thresholds, 4)}")
print(f"dequant levels    : {np.round(g.levels, 4)}  (0 and 1 pinned to the clip range)")

print()
print("=== 3. Moving the split logits reshapes the grid ===")
skew = LdpParams(lo_logit=20.0, hi_logit=20.0, split1=1.0, split2=-1.0)
gs = derive_grids(np.array([-1.0, 1.0]), skew)
print(f"shares with split1=+1, split2=-1: {np.round(gs.shares, 4)}")
print(f"levels move accordingly         : {np.round(gs.levels, 4)}")
values = np.array([-1.0, -0.4, 0.1, 0.35, 1.0])
codes, w_hat = fake_quant(values, skew)
for v, c, w in zip(values, codes, w_hat):
    print(f"  {v:+.2f} -> code {c} -> {w:+.4f}")

print()
print("=== 4. Every logit has an exact gradient ===")
up = np.ones(5)
d_group, d_lo, d_hi, d_s1, d_s2 = grads(values, skew, up)
print(f"d lo_logit {d_lo:+.4f}  d hi_logit {d_hi:+.4f}  "
      f"d split1 {d_s1:+.4f}  d split2 {d_s2:+.4f}")
print(f"straight-through weight gradient: {d_group} (zero outside the clip range)")

print()
print("=== 5. NF3: two scales around a learnable center ===")
p3 = Nf3Params(lo_logit=20.0, hi_logit=20.0, split1=-0.5)
vals = np.array([-1.0, -0.2, 0.0, 0.4, 1.0])
codes3, what3 = nf3_fake_quant(vals, p3)
print(f"values {vals}")
print(f"codes  {codes3}  (signed level index, 0 = center)")
print(f"dequant {np.round(what3, 4)}")

print()
print("=== 6. Activation and KV-cache paths ===")
x = rng.standard_normal((2, 8))
codes_a, scales = quant_act_per_token(x)
print(f"per-token scales {np.round(scales, 4)}; codes row 0: {codes_a[0]}")
# KV4: each token's 128-channel group, its [min, max] shrunk to 0.95 about the
# midpoint, through the 4-bit asymmetric quantizer.
kv = rng.standard_normal((2, 128)).reshape(2, 1, 128)
mid = 0.5 * (kv.min(axis=-1) + kv.max(axis=-1))
half = 0.5 * (kv.max(axis=-1) - kv.min(axis=-1)) * 0.95
kv_codes, _, _, _, kv_span = asym_quant_dequant(kv, mid - half, mid + half, 4)
print(f"KV codes in [{kv_codes.min()}, {kv_codes.max()}], "
      f"per-group spans ~ {np.round(kv_span.mean(), 3)}")
