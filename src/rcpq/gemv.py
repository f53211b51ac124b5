"""LUT-decoding W2A4 matrix-vector product.

Three evaluators of the same task, in increasing speed and decreasing
transparency:

* ``dense_oracle`` fully decodes weights and activations and multiplies in
  float64 - the brute-force ground truth.
* ``gemv_ref`` walks input channels in ascending order with one float32
  accumulator per output row - the scalar reference semantics.
* ``gemv_fast`` decodes by bucketing activations per 2-bit code, so each
  group costs four multiply-adds instead of a gather per element, and
  reduces per-group partials with a fixed binary tree. Outputs are
  bit-identical across runs and across tile sizes because every row is
  computed from row-local data in a fixed order.

The fast path is a small C kernel (``_w2a4.c``), compiled on the first
``gemv_fast`` call that it covers, with ``cc -O3 -ffp-contract=off`` into
``$XDG_CACHE_HOME/rcpq/`` (default ``~/.cache/rcpq/``) and called through
``ctypes``. The numpy tile loop (``_decode_rows``, ``_tree_sum``) is its spec
and its fallback: the kernel repeats the loop's float32 operations in the
same order, so the two give the same bits. ``-ffp-contract=off`` keeps the
compiler from fusing a multiply and an add into one rounding, which would
change them. Group sizes the kernel does not cover (``G % 8 != 0`` or
``G > 128``), and any process where the build or load fails, use the loop.

Integer accumulation is impossible for non-uniform level grids (there is no
shared scale to factor out), so everything accumulates in floating point:
float32 on the compute paths, float64 in the oracle.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import GroupLayout
from .errors import ConfigError, DataError, ShapeError
from .pack import (
    DequantLut,
    PackedActivations,
    PackedWeights,
    pack_activation_codes,
    unpack_activation_codes,
    unpack_weight_codes,
)

__all__ = [
    "GemvTask", "gemv_ref", "gemv_fast", "dense_oracle", "decode_dense", "bench_gemv", "random_activation",
]


@dataclass
class GemvTask:
    """One GEMV: int8 packed activations, uint8 packed weights, float16 LUT."""

    x_packed: PackedActivations
    scale: float
    weights: PackedWeights
    lut: DequantLut
    layout: GroupLayout

    def __post_init__(self):
        self._check()

    def _check(self) -> None:
        for field, data, dtype in (
            ("x_packed.data", self.x_packed.data, np.int8),
            ("weights.data", self.weights.data, np.uint8),
            ("lut.table", self.lut.table, np.float16),
        ):
            if data.dtype != dtype:
                raise DataError(f"{field} must be {np.dtype(dtype)}, got {data.dtype}")
        lay = self.layout
        if self.x_packed.data.shape != (lay.in_channels // 2,):
            raise ShapeError("packed activations do not match layout")
        if self.weights.data.shape != (lay.out_channels, lay.in_channels // 4):
            raise ShapeError("packed weights do not match layout")
        if self.lut.table.shape != (lay.out_channels, lay.num_groups, 4):
            raise ShapeError("LUT does not match layout")


def _decoded_activations(task: GemvTask) -> np.ndarray:
    codes = unpack_activation_codes(task.x_packed)
    return np.float32(task.scale) * codes.astype(np.float32)


def gemv_ref(task: GemvTask) -> np.ndarray:
    """Scalar-order reference: ascending-channel float32 accumulation."""
    lay = task.layout
    xv = _decoded_activations(task)
    wcodes = unpack_weight_codes(task.weights)
    lut32 = task.lut.table.astype(np.float32)
    rows = np.arange(lay.out_channels)
    acc = np.zeros(lay.out_channels, dtype=np.float32)
    for c in range(lay.in_channels):
        vals = lut32[rows, c // lay.group_size, wcodes[:, c]]
        acc += xv[c] * vals
    return acc


def _pow2_at_least(n: int) -> int:
    target = 1
    while target < n:
        target *= 2
    return target


def _tree_sum(a: np.ndarray) -> np.ndarray:
    """Fixed binary-tree reduction along the last axis (zero-padded to 2^k)."""
    width = a.shape[-1]
    target = _pow2_at_least(width)
    if target != width:
        pad = np.zeros(a.shape[:-1] + (target - width,), dtype=a.dtype)
        a = np.concatenate([a, pad], axis=-1)
    while a.shape[-1] > 1:
        half = a.shape[-1] // 2
        a = a[..., :half] + a[..., half:]
    return a[..., 0]


def _decode_rows(
    packed_rows: np.ndarray, lut_rows: np.ndarray, xv: np.ndarray, layout: GroupLayout
) -> np.ndarray:
    """Decode-and-accumulate one tile of output rows; float32 throughout."""
    codes = unpack_weight_codes(PackedWeights(packed_rows, layout))
    rows = codes.shape[0]
    partial = np.zeros((rows, layout.num_groups), dtype=np.float32)
    masked = np.empty((rows, layout.in_channels), dtype=np.float32)
    for k in range(4):
        np.multiply(codes == k, xv, out=masked)
        bucket = masked.reshape(rows, layout.num_groups, layout.group_size).sum(axis=-1)
        partial += lut_rows[:, :, k] * bucket
    return _tree_sum(partial)


_KERNEL_SOURCE = Path(__file__).with_name("_w2a4.c")
# No -march=native or -ffast-math: both may change the bits, and a generic
# build is safe to cache.
_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
_U8 = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
_F32 = np.ctypeslib.ndpointer(np.float32, flags="C_CONTIGUOUS")


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "rcpq"


def _build(source: bytes, lib: Path) -> None:
    """Compile ``source`` to ``lib``, through a temp file renamed onto it."""
    fd, tmp = tempfile.mkstemp(dir=lib.parent, prefix=lib.name, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(
            ["cc", *_CFLAGS, "-x", "c", "-", "-o", tmp], input=source, capture_output=True, check=True
        )
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@functools.cache
def _load_kernel():
    """The compiled kernel, built into the cache on first use; None if that fails.

    A failure is not retried: the process keeps the numpy path.
    """
    try:
        source = _KERNEL_SOURCE.read_bytes()
        digest = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
        lib = _cache_dir() / f"w2a4-{digest}.so"
        if not lib.exists():
            lib.parent.mkdir(parents=True, exist_ok=True)
            _build(source, lib)
        kernel = ctypes.CDLL(str(lib)).rcpq_w2a4_gemv
    except (OSError, subprocess.CalledProcessError):
        return None
    i64 = ctypes.c_int64
    kernel.argtypes = [_U8, _F32, _F32, i64, i64, i64, i64, _F32, _F32]
    kernel.restype = None
    return kernel


def _kernel_for(layout: GroupLayout):
    """The compiled kernel when it covers ``layout`` and builds, else None."""
    if layout.group_size % 8 != 0 or layout.group_size > 128:
        return None
    return _load_kernel()


def _gemv_compiled(kernel, task: GemvTask) -> np.ndarray:
    """The kernel on ``task``, which ``gemv_fast`` has checked against its layout."""
    lay = task.layout
    width = _pow2_at_least(lay.num_groups)
    out = np.empty(lay.out_channels, dtype=np.float32)
    kernel(
        np.ascontiguousarray(task.weights.data, dtype=np.uint8),
        np.ascontiguousarray(task.lut.table, dtype=np.float32),
        np.ascontiguousarray(_decoded_activations(task), dtype=np.float32),
        lay.out_channels,
        lay.num_groups,
        lay.group_size,
        width,
        np.empty(width, dtype=np.float32),
        out,
    )
    return out


def gemv_fast(task: GemvTask, tile: int = 8) -> np.ndarray:
    """Fast path; equals ``gemv_ref`` within 1e-5 relative.

    Runs the compiled kernel when it is available and covers the group
    size, and otherwise the numpy loop, which decodes and accumulates
    ``tile`` rows per step and so bounds its float32 scratch buffers at
    ``tile x C``. The output depends neither on ``tile`` nor on the path.
    """
    if tile < 2 or (tile & (tile - 1)) != 0:
        raise ConfigError(f"tile must be a power of two >= 2, got {tile}")
    # Checked again because a field may have been replaced since construction,
    # and the layout's sizes bound every read the kernel makes.
    task._check()
    lay = task.layout
    kernel = _kernel_for(lay)
    if kernel is not None:
        return _gemv_compiled(kernel, task)
    xv = _decoded_activations(task)
    lut32 = task.lut.table.astype(np.float32)
    out = np.empty(lay.out_channels, dtype=np.float32)
    for start in range(0, lay.out_channels, tile):
        stop = min(start + tile, lay.out_channels)
        out[start:stop] = _decode_rows(task.weights.data[start:stop], lut32[start:stop], xv, lay)
    return out


def decode_dense(task: GemvTask) -> tuple[np.ndarray, np.ndarray]:
    """The (H, C) weight and the (C,) activation the task encodes, in float64."""
    lay = task.layout
    xcodes = unpack_activation_codes(task.x_packed).astype(np.float64)
    x64 = float(task.scale) * xcodes
    wcodes = unpack_weight_codes(task.weights).astype(np.int64)
    lut_flat = task.lut.table.astype(np.float64).reshape(lay.out_channels, -1)
    group_of = np.repeat(np.arange(lay.num_groups), lay.group_size)
    idx = group_of[None, :] * 4 + wcodes
    return np.take_along_axis(lut_flat, idx, axis=1), x64


def dense_oracle(task: GemvTask) -> np.ndarray:
    """Brute force: decode everything, multiply in float64."""
    w_full, x64 = decode_dense(task)
    return w_full @ x64


def random_activation(
    rng: np.random.Generator, channels: int
) -> tuple[PackedActivations, float]:
    """Random packed 4-bit activation vector with a positive scale."""
    codes = rng.integers(-8, 8, size=channels).astype(np.int8)
    scale = float(np.exp(rng.uniform(-1.0, 1.0)))
    return pack_activation_codes(codes), scale


def bench_gemv(task: GemvTask, iters: int = 100, tile: int = 8) -> dict:
    """Wall-clock comparison of the reference and fast paths.

    The reference path is measured with at most 25 iterations (it exists
    for semantics, not speed); both medians are reported in ns/call.
    ``kernel`` names the fast path that ran (``"c"`` or ``"numpy"``), and
    ``fast_gbytes_per_s`` is the packed weights, float16 LUT and packed
    activations one call reads, over the fast median.
    """
    ref_iters = max(1, min(iters, 25))

    def _time(fn, n):
        fn()  # warm-up
        samples = []
        for _ in range(n):
            t0 = time.perf_counter_ns()
            fn()
            samples.append(time.perf_counter_ns() - t0)
        return float(np.median(samples))

    ref_ns = _time(lambda: gemv_ref(task), ref_iters)
    fast_ns = _time(lambda: gemv_fast(task, tile), iters)
    call_bytes = task.weights.data.nbytes + task.lut.table.nbytes + task.x_packed.data.nbytes
    return {
        "out_channels": task.layout.out_channels,
        "in_channels": task.layout.in_channels,
        "group_size": task.layout.group_size,
        "tile": tile,
        "ref_iters": ref_iters,
        "fast_iters": iters,
        "ref_ns_per_call": ref_ns,
        "fast_ns_per_call": fast_ns,
        "speedup": ref_ns / fast_ns,
        "kernel": "numpy" if _kernel_for(task.layout) is None else "c",
        "fast_gbytes_per_s": call_bytes / fast_ns,
    }
