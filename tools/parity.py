"""Digest of rcpq's outputs, for showing that a change keeps them bit-identical.

Run it on two checkouts and compare the printed lines:

    PYTHONPATH=<checkout>/src python tools/parity.py

Each line is the sha256 of one item's outputs (dtype, shape and raw bytes of
every array, ``float.hex`` of every float), and the last line combines them.
All inputs come from fixed ``make_rng`` seeds. A run takes well under a
minute on two cores; per-item times go to stderr, and after the digests
whether each compiled kernel loads (``c``) or not (``numpy``): ``clip``,
``ldp`` (the encoder), ``ldp_grads`` (its backward pass, which the
``train_toy`` and ``grad_check`` items run) and ``w2a4``, so a comparison
shows whether both checkouts could run the kernels. Every item uses group
sizes that the kernels cover.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
import tempfile
import time

import numpy as np

import rcpq
from rcpq import _native
from rcpq.calib import clipped_uniform_quantizer
from rcpq.core import GroupLayout, make_rng
from rcpq.gemv import random_activation
from rcpq.pack import DequantLut
from rcpq.pipeline import rotate
from rcpq.stats import qerr_vs_kurt

FAKE_QUANT_SEED = 1
QUANTIZE_SEED = 2
GEMV_SEED = 3
ROTATION_SEED = 4
UNIFORM_SEED = 5
SEARCH_SEED = 6
ROTATE = 7  # the --rotate seed of the quantize item


def _feed(h, value) -> None:
    if dataclasses.is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        for key in sorted(value):
            h.update(f"<{key}>".encode())
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(f"[{len(value)}".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, bytes):
        h.update(value)
    elif isinstance(value, float):
        h.update(value.hex().encode())
    else:
        a = np.ascontiguousarray(value)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


def digest(value) -> str:
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def laplace_params(rng, shape) -> rcpq.LdpParams:
    """Random logits, saturated (+/-800) in a few groups of the first column.

    Clip logits of 1 leave values outside [lo, hi], so the first group's
    underflowed threshold t1 = 0 decides their codes.
    """
    fields = [rng.uniform(-6.0, 6.0, shape) for _ in range(4)]
    for k, logits in enumerate([(1, 1, -800, 800), (1, 1, 800, -800), (-800, 800, 0, 0)]):
        for field, value in zip(fields, logits):
            field[k, 0] = value
    return rcpq.LdpParams(*fields)


def fake_quant_and_lut():
    rng = make_rng(FAKE_QUANT_SEED)
    w = rng.laplace(scale=0.02, size=(1024, 1024)).astype(np.float32)
    layout = GroupLayout(1024, 1024, 128)
    params = laplace_params(rng, (1024, layout.num_groups))
    return [
        rcpq.fake_quant(layout.grouped(w), params),
        rcpq.fake_quant(layout.grouped(w.astype(np.float64)), params),
        rcpq.build_lut(w, layout, params).table,
    ]


def quantize_containers():
    rng = make_rng(QUANTIZE_SEED)
    x = rng.standard_normal((64, 1024)).astype(np.float32)
    blobs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "layer.rcpq")
        for _ in range(3):
            w = rng.laplace(scale=0.02, size=(8, 1024)).astype(np.float32)
            _, params, lut, packed = rcpq.quantize_layer(w, x, GroupLayout(8, 1024, 128), ROTATE, 16)
            rcpq.write_rcpq(path, packed, lut, params)
            with open(path, "rb") as fh:
                blobs.append(fh.read())
    return blobs


def train_reports():
    runs = [rcpq.DistillConfig(seed=seed) for seed in range(3)]
    runs.append(rcpq.DistillConfig(seed=0, freeze_partitions=True))
    return [rcpq.train_toy(cfg) for cfg in runs]


def checks():
    return [rcpq.grad_check(40, 1)] + [rcpq.invariance_check(seed, seed) for seed in range(3)]


def gemv_outputs():
    rng = make_rng(GEMV_SEED)
    out = []
    for _ in range(200):
        g = int(rng.choice([4, 8, 16, 32, 64, 128, 256]))
        c = g * int(rng.integers(1, 5))
        h = int(rng.integers(1, 40))
        layout = GroupLayout(h, c, g)
        weights = rcpq.pack_weight_codes(rng.integers(0, 4, size=(h, c)), layout)
        table = np.sort(rng.normal(0.0, 0.5, size=(h, layout.num_groups, 4)), axis=-1)
        x_packed, scale = random_activation(rng, c)
        task = rcpq.GemvTask(x_packed, scale, weights, DequantLut(table.astype(np.float16)), layout)
        out.append(rcpq.gemv_fast(task))
    return out


def rotations():
    rng = make_rng(ROTATION_SEED)
    out = []
    for n in (64, 1024):
        r = rcpq.randomized_hadamard(n, ROTATE)
        w = rng.standard_normal((n // 2, n))
        x = rng.standard_normal((16, n))
        out.append(np.asarray(r))
        for dtype in (np.float32, np.float64):
            out += [
                rcpq.fuse(w.astype(dtype), None, r),
                rcpq.fuse(w.T.astype(dtype), r, None),
                rcpq.apply_online(x.astype(dtype), r),
                x.astype(dtype) @ np.asarray(r, dtype=dtype),
            ]
    return out


def uniform_scorer():
    """The uniform quantizer's dequantized bits, which the clip search's picks rarely show."""
    rng = make_rng(UNIFORM_SEED)
    cfg = rcpq.ClipSearchConfig(grid=16)
    out = []
    for h, c, g in ((16, 256, 64), (8, 1024, 128)):
        layout = GroupLayout(h, c, g)
        w = rng.laplace(scale=0.02, size=(h, c)).astype(np.float32)
        x = rng.standard_normal((32, c)).astype(np.float32)
        out.append(qerr_vs_kurt(w, x, rcpq.randomized_hadamard(c, ROTATE), layout, cfg))
        out.append(clipped_uniform_quantizer(w, x, layout, cfg))
    return out


def clip_search():
    """The whole clip search result at the quantize benchmark's shape: a
    Laplace 2x1024 layer, 256 tokens with 8 outlier channels at x20,
    ``--rotate 7``, G = 128, grid 64. At 1024 tokens the Gram matrices'
    last bits already depend on the host's BLAS kernel."""
    rng = make_rng(SEARCH_SEED)
    x = rng.standard_normal((256, 1024)).astype(np.float32)
    x[:, rng.choice(1024, size=8, replace=False)] *= 20.0
    w = rng.laplace(scale=0.02, size=(2, 1024)).astype(np.float32)
    w_r, x_r = rotate(w, x, ROTATE)
    return rcpq.grid_search_clip(w_r, x_r, GroupLayout(2, 1024, 128), rcpq.ClipSearchConfig(grid=64))


ITEMS = {
    "fake_quant+build_lut": fake_quant_and_lut,
    "quantize_layer+write_rcpq": quantize_containers,
    "train_toy": train_reports,
    "grad_check+invariance_check": checks,
    "gemv_fast": gemv_outputs,
    "rotation": rotations,
    "qerr_vs_kurt+clipped_uniform_quantizer": uniform_scorer,
    "grid_search_clip": clip_search,
}


def main() -> int:
    combined = hashlib.sha256()
    for name, item in ITEMS.items():
        start = time.perf_counter()
        line = digest(item())
        combined.update(line.encode())
        print(f"{line}  {name}", flush=True)
        print(f"  {name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    print(f"{combined.hexdigest()}  combined")
    for name in ("clip", "ldp", "ldp_grads", "w2a4"):
        print(f"  kernel {name}: {_native.path(name)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
