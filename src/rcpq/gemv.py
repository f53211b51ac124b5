"""LUT-decoding W2A4 matrix-vector product.

Three evaluators of the same task, in increasing speed and decreasing
transparency:

* ``dense_oracle`` fully decodes weights and activations and multiplies in
  float64 - the brute-force ground truth.
* ``gemv_ref`` walks input channels in ascending order with one float32
  accumulator per output row - the scalar reference semantics.
* ``gemv_fast`` sums each row exactly in integers and rounds it once.

The fast path rests on two facts. A finite float16 LUT entry is an integer
number of units 2^-24, below 2^40 in magnitude, and an activation code is an
integer in [-8, 7]. So each row's ``S_h = sum_c units(h, c) * code(c)`` is an
exact int64 while ``C <= 2^20``, and ``gemv_fast`` returns
``float32(ldexp(float64(S_h), -24) * scale)``. Integer sums do not depend on
their order, so the output depends on neither the path, the tile, the
compiler and its flags, nor the lane width.

The sums come from a small C kernel (``_w2a4.c``), compiled on the first
``gemv_fast`` call that it covers, with ``cc -O3`` into
``$XDG_CACHE_HOME/rcpq/`` (default ``~/.cache/rcpq/``) and called through
``ctypes``. It is an AVX2 bit-plane kernel (after T-MAC, arXiv 2407.00088):
per (row, group) it takes the exact sums S0, S1 and S3 of the activation
codes under bit 0, bit 1 and both bits of the weight codes, turns them into
the four bucket sums of codes per weight code, and adds each bucket times
its LUT entry in int64. It covers ``G % 4 == 0``, which includes the
default 128, and runs on one thread. The numpy tile loop (``_row_sums``) is
its spec and its fallback: other group sizes, CPUs without AVX2 (probed at
run time), and any process where the build or load fails use the loop. An
inf or NaN LUT entry has no integer value: both paths raise ``DataError`` at
the first such (row, group).
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


def gemv_ref(task: GemvTask) -> np.ndarray:
    """Scalar-order reference: ascending-channel float32 accumulation."""
    lay = task.layout
    xv = np.float32(task.scale) * unpack_activation_codes(task.x_packed).astype(np.float32)
    wcodes = unpack_weight_codes(task.weights)
    lut32 = task.lut.table.astype(np.float32)
    rows = np.arange(lay.out_channels)
    acc = np.zeros(lay.out_channels, dtype=np.float32)
    for c in range(lay.in_channels):
        vals = lut32[rows, c // lay.group_size, wcodes[:, c]]
        acc += xv[c] * vals
    return acc


_KERNEL_SOURCE = Path(__file__).with_name("_w2a4.c")
# No -march=native: the cache key does not name the CPU, and a home
# directory may be shared between machines. The kernel compiles its AVX2
# code under a target attribute and the library probes the CPU at run time.
_CFLAGS = ("-O3", "-fPIC", "-shared")
_MAX_IN_CHANNELS = 2**20  # keeps |S_h| < 2^43 * C inside int64
_U8 = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
_U16 = np.ctypeslib.ndpointer(np.uint16, flags="C_CONTIGUOUS")
_I8 = np.ctypeslib.ndpointer(np.int8, flags="C_CONTIGUOUS")
_I64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")


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


def _has_avx2(lib) -> bool:
    """The library's run-time probe: whether this CPU runs the AVX2 kernel."""
    lib.rcpq_w2a4_has_avx2.argtypes = []
    lib.rcpq_w2a4_has_avx2.restype = ctypes.c_int
    return bool(lib.rcpq_w2a4_has_avx2())


def _open(path: Path):
    """The kernel in the built library at ``path``; None if the CPU lacks AVX2."""
    lib = ctypes.CDLL(str(path))
    if not _has_avx2(lib):
        return None
    kernel = lib.rcpq_w2a4_gemv
    i64 = ctypes.c_int64
    kernel.argtypes = [_U8, _U16, _I8, _I64, i64, i64, i64, _I64]
    kernel.restype = i64
    return kernel


@functools.cache
def _load_kernel():
    """The compiled kernel, built into the cache on first use; None if that
    fails or the CPU lacks AVX2.

    A failure is not retried: the process keeps the numpy path.
    """
    try:
        source = _KERNEL_SOURCE.read_bytes()
        digest = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
        lib = _cache_dir() / f"w2a4-{digest}.so"
        if not lib.exists():
            lib.parent.mkdir(parents=True, exist_ok=True)
            _build(source, lib)
        return _open(lib)
    except (OSError, subprocess.CalledProcessError):
        return None


def _kernel_for(layout: GroupLayout):
    """The compiled kernel when it covers ``layout`` and builds, else None."""
    if layout.group_size % 4 != 0:
        return None
    return _load_kernel()


def _not_finite(row: int, group: int) -> DataError:
    return DataError(f"LUT at (row {row}, group {group}) is not finite")


def _plane_order(codes: np.ndarray) -> np.ndarray:
    """The (groups, G) activation codes in the kernel's plane order: per group,
    each 128-channel chunk, each 32-channel piece, and a last piece of
    ``G % 32`` channels, as (4, n) with ``[j, i] = code(4 i + j)``; then 8
    zero codes, which the kernel's 8-byte loads of a last piece may reach."""
    g, parts, start = codes.shape[1], [], 0
    for stop, n in ((g // 128 * 128, 32), (g // 32 * 32, 8), (g, g % 32 // 4)):
        if stop > start:
            part = codes[:, start:stop].reshape(len(codes), -1, n, 4)
            parts.append(part.transpose(0, 1, 3, 2).reshape(len(codes), -1))
        start = stop
    return np.concatenate([np.concatenate(parts, axis=1).reshape(-1), np.zeros(8, np.int8)])


def _row_sums_compiled(kernel, task: GemvTask) -> np.ndarray:
    """The kernel's row sums on ``task``, which ``gemv_fast`` has checked against its layout."""
    lay = task.layout
    codes = unpack_activation_codes(task.x_packed).reshape(lay.num_groups, lay.group_size)
    sums = np.empty(lay.out_channels, dtype=np.int64)
    bad = kernel(
        np.ascontiguousarray(task.weights.data),
        np.ascontiguousarray(task.lut.table).view(np.uint16),
        _plane_order(codes),
        codes.sum(axis=1, dtype=np.int64),
        lay.out_channels,
        lay.num_groups,
        lay.group_size,
        sums,
    )
    if bad >= 0:
        raise _not_finite(*divmod(bad, lay.num_groups))
    return sums


def _gather(table: np.ndarray, wcodes: np.ndarray, layout: GroupLayout) -> np.ndarray:
    """``table[h, c // G, wcodes[h, c]]`` for every (h, c): each weight's LUT entry."""
    idx = np.repeat(np.arange(layout.num_groups) * 4, layout.group_size) + wcodes
    return np.take_along_axis(table.reshape(len(table), -1), idx, axis=1)


def _row_sums(task: GemvTask, tile: int) -> np.ndarray:
    """The int64 row sums, ``tile`` rows per step: the kernel's spec and fallback."""
    lay = task.layout
    bad = ~np.isfinite(task.lut.table).all(axis=-1)
    if bad.any():
        raise _not_finite(*np.argwhere(bad)[0])
    codes = unpack_activation_codes(task.x_packed).astype(np.int64)
    sums = np.empty(lay.out_channels, dtype=np.int64)
    for start in range(0, lay.out_channels, tile):
        stop = min(start + tile, lay.out_channels)
        units = np.ldexp(task.lut.table[start:stop].astype(np.float64), 24).astype(np.int64)
        wcodes = unpack_weight_codes(PackedWeights(task.weights.data[start:stop], lay))
        sums[start:stop] = _gather(units, wcodes, lay) @ codes
    return sums


def gemv_fast(task: GemvTask, tile: int = 8) -> np.ndarray:
    """Fast path: exact integer row sums, each rounded once to float32.

    Equals ``gemv_ref`` within 1e-5 relative. Runs the compiled kernel when
    it is available and covers the group size, and otherwise the numpy loop,
    which decodes ``tile`` rows per step and so bounds its int64 scratch at
    ``tile x C``. The output depends neither on ``tile`` nor on the path.
    Raises ``DataError`` at the first (row, group) whose LUT holds an inf or
    NaN, and ``ShapeError`` past 2^20 input channels.
    """
    if tile < 2 or (tile & (tile - 1)) != 0:
        raise ConfigError(f"tile must be a power of two >= 2, got {tile}")
    # Checked again because a field may have been replaced since construction,
    # and the layout's sizes bound every read the kernel makes.
    task._check()
    lay = task.layout
    if lay.in_channels > _MAX_IN_CHANNELS:
        raise ShapeError(f"{lay.in_channels} input channels exceed 2^20; int64 row sums could overflow")
    kernel = _kernel_for(lay)
    sums = _row_sums(task, tile) if kernel is None else _row_sums_compiled(kernel, task)
    return (np.ldexp(sums.astype(np.float64), -24) * float(task.scale)).astype(np.float32)


def decode_dense(task: GemvTask) -> tuple[np.ndarray, np.ndarray]:
    """The (H, C) weight and the (C,) activation the task encodes, in float64."""
    x64 = float(task.scale) * unpack_activation_codes(task.x_packed).astype(np.float64)
    lut64 = task.lut.table.astype(np.float64)
    return _gather(lut64, unpack_weight_codes(task.weights), task.layout), x64


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
    activations one call reads, over the fast median. Raises
    ``ConfigError`` when ``iters < 1``, which would leave no sample.
    """
    if iters < 1:
        raise ConfigError(f"iters must be >= 1, got {iters}")
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
