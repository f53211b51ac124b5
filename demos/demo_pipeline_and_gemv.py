"""End to end: rotate, clip-search, partition, pack, then multiply.

Builds a small weight matrix, runs the full quantization pipeline into an
RCPQ container on disk, reads it back, and checks the LUT-decoding GEMV
against its spec and the brute-force oracle, finishing with a quick timing at a
production-ish shape.

Run: python demos/demo_pipeline_and_gemv.py
"""

import tempfile
from pathlib import Path

import numpy as np

from rcpq import (
    GemvTask,
    GroupLayout,
    bench_gemv,
    dense_oracle,
    fake_quant,
    gemv_fast,
    gemv_ref,
    make_rng,
    pack_activation_codes,
    pack_weight_codes,
    quant_act_per_token,
    quantize_layer,
    read_rcpq,
    write_rcpq,
)
from rcpq.pipeline import rotate

rng = make_rng(0)
H, C, G = 64, 256, 64
layout = GroupLayout(H, C, G)

print("=== 1. Rotate, clip-search, partition, pack ===")
w = rng.standard_normal((H, C)).astype(np.float32)
x = rng.standard_normal((128, C)).astype(np.float32)
search, params, lut, packed = quantize_layer(w, x, layout, rotate_seed=7, grid=16)
print(f"searched {layout.out_channels * layout.num_groups} groups; "
      f"mean kept range: lo {search.ratio_lo.mean():.3f}, hi {search.ratio_hi.mean():.3f}")
print(f"mean objective {search.objective.mean():.4f} vs no-clip {search.no_clip_objective.mean():.4f}")

print()
print("=== 2. Fake-quant error, serialize ===")
w_r, x_r = rotate(w, x, seed=7)
w_grouped = layout.grouped(w_r.astype(np.float64))
_, w_hat = fake_quant(w_grouped, params)
print(f"fake-quant error |w - w_hat| mean: {np.abs(w_grouped - w_hat).mean():.4f}")
print(f"packed weights: {packed.data.nbytes} B, LUT: {lut.table.nbytes} B "
      f"({8 * (packed.data.nbytes + lut.table.nbytes) / (H * C):.2f} bits/weight)")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.rcpq"
    write_rcpq(path, packed, lut, params)
    print(f"container on disk: {path.stat().st_size} B")
    box = read_rcpq(path)
    print(f"round trip ok: {np.array_equal(box.weights.data, packed.data)}")

print()
print("=== 3. Quantize one activation token and multiply ===")
token = x_r[0:1]
act_codes, scales = quant_act_per_token(token)
task = GemvTask(
    x_packed=pack_activation_codes(act_codes[0]),
    scale=float(scales[0]),
    weights=packed,
    lut=lut,
    layout=layout,
)
oracle = dense_oracle(task)
ref = gemv_ref(task)
fast = gemv_fast(task, tile=8)
gap = np.abs(fast.astype(np.float64) - oracle).max() / np.abs(oracle).max()
print(f"output norm {np.linalg.norm(oracle):.3f}; fast-vs-oracle gap {gap:.2e}")
print(f"fast has the spec's bits (gemv_ref): {fast.tobytes() == ref.tobytes()}")

print()
print("=== 4. Timing at 4096 x 4096 (G=128) ===")
big_layout = GroupLayout(4096, 4096, 128)
big_codes = rng.integers(0, 4, size=(4096, 4096))
big_lut = np.sort(rng.normal(0, 0.5, size=(4096, 32, 4)), axis=-1) + np.linspace(0, 1e-3, 4)
from rcpq.gemv import random_activation
from rcpq.pack import DequantLut

xp, s = random_activation(rng, 4096)
big = GemvTask(
    x_packed=xp,
    scale=s,
    weights=pack_weight_codes(big_codes, big_layout),
    lut=DequantLut(big_lut.astype(np.float16)),
    layout=big_layout,
)
bench = bench_gemv(big, iters=5)
print(f"spec     : {bench['ref_ns_per_call'] / 1e6:7.1f} ms/call")
print(f"fast path: {bench['fast_ns_per_call'] / 1e6:7.1f} ms/call "
      f"({bench['speedup']:.1f}x)")
