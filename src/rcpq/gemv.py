"""LUT-decoding W2A4 matrix-vector product.

Three evaluators of the same task:

* ``gemv_ref`` is the spec. Each row is one exact integer sum, taken by a
  numpy loop that decodes a few rows per step, and rounded once.
* ``gemv_fast`` gives the spec's bits from a compiled kernel where one
  covers the task, and runs the spec elsewhere.
* ``dense_oracle`` fully decodes weights and activations and multiplies in
  float64 - the brute-force ground truth.

The spec rests on two facts. A finite float16 LUT entry is an integer
number of units 2^-24, below 2^40 in magnitude, and an activation code is an
integer in [-8, 7]. So each row's ``S_h = sum_c units(h, c) * code(c)`` is an
exact int64 while ``C <= 2^20``, and both evaluators return
``float32(ldexp(float64(S_h), -24) * scale)``. Integer sums do not depend on
their order, so the output depends on neither the path, the tile, the
compiler and its flags, nor the lane width: ``gemv_fast`` and ``gemv_ref``
are bit-identical.

The kernel (``_w2a4.c``) is compiled on first use; ``_native`` builds,
caches and loads it. It is a table-lookup kernel (after T-MAC, arXiv
2407.00088) on one thread, over two layouts built at an operand's first
call, kept on the frozen operand, and never rebuilt per call:

* Tiles, per ``PackedWeights`` (by ``rcpq_w2a4_tiles`` in ``_w2a4.c``).
  Rows go in tiles of 32, the last padded with zero codes. Bit p of the
  weight codes of 4 channels (a block) is a nibble, plane p; per tile,
  group and pair of blocks, the planes of 32 rows take 64 bytes, byte i of
  each 16 holding rows i and i + 16.
* Units, per ``DequantLut`` (in numpy). Each finite float16 entry is
  ``smant << shift`` units, stored as one int32 ``smant << 8 | shift`` in
  the order in which the kernel's int64 lanes take them.
* Tables. Per call, the kernel builds a 16-entry int8 table of activation
  subset sums per block. One ``pshufb`` looks up 16 rows' nibbles in two
  blocks' tables, so a group's lookups of plane 0, plane 1 and both give
  the sums of activation codes under each weight bit, and from them the
  four bucket sums of codes per weight code. Each bucket times its LUT
  entry's units is added in int64 lanes, two rows at a time.
* Widening. The lookups are summed in int8 lanes over 4 pairs of blocks,
  then in int16 lanes over at most 512 pairs, then in int32, so none wraps
  up to ``C = 2^20``.

It covers ``G % 4 == 0``, which includes the default 128. Other group
sizes, CPUs without AVX2 (probed at run time), and any process where the
build or load fails run the spec. An inf or NaN LUT entry has no integer
value, so its LUT holds no units and runs the spec too, which raises
``DataError`` at the first such (row, group) in row-major order. Either
"not covered" is kept on the operand too, so it is found once.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import _native
from .core import GroupLayout
from .errors import ConfigError, DataError, ShapeError
from .pack import (
    DequantLut,
    PackedActivations,
    PackedWeights,
    _unpack_weight_bytes,
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
        if self.weights.layout != lay:
            raise ShapeError(f"weights packed for {self.weights.layout}, not the task's {lay}")
        if self.x_packed.data.shape != (lay.in_channels // 2,):
            raise ShapeError("packed activations do not match layout")
        if self.weights.data.shape != (lay.out_channels, lay.in_channels // 4):
            raise ShapeError("packed weights do not match layout")
        if self.lut.table.shape != (lay.out_channels, lay.num_groups, 4):
            raise ShapeError("LUT does not match layout")
        if not 0.0 < float(self.scale) < np.inf:  # a NaN fails too
            raise DataError(f"scale must be finite and > 0, got {self.scale}")


_MAX_IN_CHANNELS = 2**20  # keeps |S_h| < 2^43 * C inside int64


def _kernel_for(task: GemvTask):
    """The compiled kernel when it covers ``task``, which has passed its checks, and builds; else None.

    It covers the task when the weights hold tiles and the LUT holds units.
    Both are built here at the first such call and kept on the operands.
    """
    kernel = _native.kernel("w2a4")
    if kernel is None or _tiles(task.weights) is None or _units(task.lut) is None:
        return None
    return kernel


def _tiles(pw: PackedWeights) -> np.ndarray | None:
    """``pw``'s codes as the kernel's tiles, repacked at the first call and
    kept on ``pw``; None, kept too, where the kernel does not cover its
    group size.

    The repack reads ``rows * stride`` bytes of ``pw.data`` unchecked, so it
    runs only once ``GemvTask._check`` has passed on ``pw`` at ``pw.layout``.
    """
    if "_tiles" not in vars(pw):
        lay = pw.layout
        repack, tiles = _native.covering("w2a4_tiles", lay.group_size), None
        if repack is not None:
            # Tiles of 32 rows; per group, pairs of 4-channel blocks at 64 bytes a pair.
            pairs = (lay.group_size // 4 + 1) // 2
            tiles = np.empty(-(-lay.out_channels // 32) * lay.num_groups * pairs * 64, dtype=np.uint8)
            # Raw pointers: PackedWeights keeps data C-ordered, and the checks have passed its dtype.
            repack(pw.data.ctypes.data, lay.out_channels, lay.num_groups, lay.group_size, tiles.ctypes.data)
        object.__setattr__(pw, "_tiles", tiles)
    return pw._tiles


def _units(lut: DequantLut) -> np.ndarray | None:
    """``lut``'s entries as the kernel's units, decoded at the first call and
    kept on ``lut``; None, kept too, where an entry is inf or NaN."""
    if "_units" not in vars(lut):
        object.__setattr__(lut, "_units", _decode_units(lut.table))
    return lut._units


def _decode_units(table: np.ndarray) -> np.ndarray | None:
    """The float16 (H, N, 4) ``table`` as units in the kernel's order, or
    None if it holds an inf or NaN, which the spec names."""
    bits = table.view(np.uint16)
    if ((bits & 0x7C00) == 0x7C00).any():  # all exponent bits set: an inf or NaN
        return None
    h, n, _ = table.shape
    padded = np.zeros((-(-h // 32) * 32, n, 4), dtype=np.uint16)  # tiles of 32 rows; padding rows hold +0
    padded[:h] = bits
    # Row 16 half + 8 j + 2 i + parity of a tile -> (tile, group, set = 2 half + parity, i, j, bucket).
    order = padded.reshape(-1, 2, 2, 4, 2, n, 4).transpose(0, 5, 1, 4, 3, 2, 6)
    return np.take(_float16_units(), order).reshape(-1)


@functools.cache
def _float16_units() -> np.ndarray:
    """The units of every float16 bit pattern, read-only: a finite float16 is
    ``smant << shift`` units of 2^-24, with ``|smant| < 2^11``, stored as the
    int32 ``smant << 8 | shift``. Inf and NaN patterns are never looked up."""
    bits = np.arange(2**16, dtype=np.int32)
    exponent = bits >> 10 & 31
    normal = (exponent > 0).astype(np.int32)  # subnormals have no implicit bit and shift 0
    mant = bits & 1023 | normal << 10
    units = np.where(bits >> 15, -mant, mant) << 8 | exponent - normal
    units.flags.writeable = False
    return units


def _check_finite(table: np.ndarray) -> None:
    """Raise ``DataError`` at the first (row, group) whose LUT holds an inf or NaN."""
    bad = ~np.isfinite(table).all(axis=-1)
    if bad.any():
        row, group = np.argwhere(bad)[0]
        raise DataError(f"LUT at (row {row}, group {group}) is not finite")


def _row_sums_compiled(kernel, task: GemvTask) -> np.ndarray:
    """The kernel's row sums on ``task``, which ``gemv_fast`` has checked against its layout.

    The kernel takes raw pointers. ``GemvTask._check`` has checked every
    dtype and shape and that the weights were packed for this layout, so
    the tiles and units, private C-ordered arrays, fit it, and the
    activations are made contiguous here. Every array is held in a local
    while the kernel runs: a concurrent first call on the same operand may
    replace the kept tiles or units, and must not free them.
    """
    lay = task.layout
    tiles, units = _tiles(task.weights), _units(task.lut)
    x_packed = np.ascontiguousarray(task.x_packed.data)
    table = np.empty(8 * lay.in_channels, dtype=np.int8)
    total = np.empty(lay.num_groups, dtype=np.int64)
    sums = np.empty(lay.out_channels, dtype=np.int64)
    kernel(
        tiles.ctypes.data,
        units.ctypes.data,
        x_packed.ctypes.data,
        table.ctypes.data,
        total.ctypes.data,
        lay.out_channels,
        lay.num_groups,
        lay.group_size,
        sums.ctypes.data,
    )
    return sums


def _gather(table: np.ndarray, wcodes: np.ndarray, layout: GroupLayout) -> np.ndarray:
    """``table[h, c // G, wcodes[h, c]]`` for every (h, c): each weight's LUT entry."""
    idx = np.repeat(np.arange(layout.num_groups) * 4, layout.group_size) + wcodes
    return np.take_along_axis(table.reshape(len(table), -1), idx, axis=1)


def _row_sums(task: GemvTask, tile: int) -> np.ndarray:
    """The int64 row sums, ``tile`` rows per step: the spec that the kernel's sums equal."""
    lay = task.layout
    _check_finite(task.lut.table)
    codes = unpack_activation_codes(task.x_packed).astype(np.int64)
    sums = np.empty(lay.out_channels, dtype=np.int64)
    for start in range(0, lay.out_channels, tile):
        stop = min(start + tile, lay.out_channels)
        units = np.ldexp(task.lut.table[start:stop].astype(np.float64), 24).astype(np.int64)
        wcodes = _unpack_weight_bytes(task.weights.data[start:stop])
        sums[start:stop] = _gather(units, wcodes, lay) @ codes
    return sums


def _gemv(task: GemvTask, tile: int, fast: bool) -> np.ndarray:
    """Both evaluators: check ``task``, take its row sums from the compiled
    kernel if ``fast`` and it covers ``task``, else from the spec at
    ``tile``, and round each once."""
    # Checked again because a field may have been replaced since construction,
    # and the layout's sizes bound every read the repack and the kernel make.
    task._check()
    lay = task.layout
    if lay.in_channels > _MAX_IN_CHANNELS:
        raise ShapeError(f"{lay.in_channels} input channels exceed 2^20; int64 row sums could overflow")
    kernel = _kernel_for(task) if fast else None
    sums = _row_sums(task, tile) if kernel is None else _row_sums_compiled(kernel, task)
    return (np.ldexp(sums.astype(np.float64), -24) * float(task.scale)).astype(np.float32)


def gemv_ref(task: GemvTask) -> np.ndarray:
    """The spec: exact integer row sums from the numpy loop at 8 rows per step, each rounded once.

    Raises ``DataError`` at the first (row, group) whose LUT holds an inf or
    NaN and for a scale that is not finite and > 0, and ``ShapeError`` past
    2^20 input channels and for weights packed for another layout.
    """
    return _gemv(task, 8, False)


def gemv_fast(task: GemvTask, tile: int = 8) -> np.ndarray:
    """The spec's bits, from the compiled kernel where it is available and
    covers the group size.

    Bit-identical to ``gemv_ref``, and raises the same errors. Elsewhere it
    runs the spec, which decodes ``tile`` rows per step and so bounds its
    int64 scratch at ``tile x C``; the output does not depend on ``tile``.
    """
    if tile < 2 or (tile & (tile - 1)) != 0:
        raise ConfigError(f"tile must be a power of two >= 2, got {tile}")
    return _gemv(task, tile, True)


def decode_dense(task: GemvTask) -> tuple[np.ndarray, np.ndarray]:
    """The (H, C) weight and the (C,) activation the task encodes, in float64."""
    x64 = float(task.scale) * unpack_activation_codes(task.x_packed).astype(np.float64)
    lut64 = task.lut.table.astype(np.float64)
    return _gather(lut64, unpack_weight_codes(task.weights), task.layout), x64


def dense_oracle(task: GemvTask) -> np.ndarray:
    """Brute force: decode everything, multiply in float64."""
    w_full, x64 = decode_dense(task)
    return w_full @ x64


def random_activation(rng: np.random.Generator, channels: int) -> tuple[PackedActivations, float]:
    """Random packed 4-bit activation vector with a positive scale."""
    codes = rng.integers(-8, 8, size=channels).astype(np.int8)
    scale = float(np.exp(rng.uniform(-1.0, 1.0)))
    return pack_activation_codes(codes), scale


def bench_gemv(task: GemvTask, iters: int = 100) -> dict:
    """Wall-clock comparison of ``gemv_fast`` with its spec, ``gemv_ref``.

    The spec is measured with at most 25 iterations (it exists for
    semantics, not speed); both medians are reported in ns/call, and
    ``speedup`` is the spec's over the fast path's.
    ``kernel`` names the fast path that ran (``"c"`` or ``"numpy"``), and
    ``fast_gbytes_per_s`` is the bytes one call of that path reads, over the
    fast median: the tiles, the LUT's units and the packed activations for
    the kernel, the packed weights, the float16 LUT and the packed
    activations for the spec. ``read_gbytes_per_s`` is what one thread
    reads per second from a buffer of that many bytes, a numpy ``uint64``
    sum timed like the fast path: this machine's read rate at the call's
    size. Raises ``ConfigError`` when ``iters < 1``, which would leave no
    sample.
    """
    if iters < 1:
        raise ConfigError(f"iters must be >= 1, got {iters}")
    ref_iters = min(iters, 25)

    def _time(fn, n):
        fn()  # warm-up
        samples = []
        for _ in range(n):
            t0 = time.perf_counter_ns()
            fn()
            samples.append(time.perf_counter_ns() - t0)
        return float(np.median(samples))

    ref_ns = _time(lambda: gemv_ref(task), ref_iters)
    fast_ns = _time(lambda: gemv_fast(task), iters)
    compiled = _kernel_for(task) is not None
    read = (_tiles(task.weights), _units(task.lut)) if compiled else (task.weights.data, task.lut.table)
    call_bytes = sum(a.nbytes for a in read) + task.x_packed.data.nbytes
    buf = np.ones(max(1, call_bytes // 8), dtype=np.uint64)
    read_ns = _time(lambda: np.add.reduce(buf), iters)
    return {
        "out_channels": task.layout.out_channels,
        "in_channels": task.layout.in_channels,
        "group_size": task.layout.group_size,
        "ref_iters": ref_iters,
        "fast_iters": iters,
        "ref_ns_per_call": ref_ns,
        "fast_ns_per_call": fast_ns,
        "speedup": ref_ns / fast_ns,
        "kernel": "c" if compiled else "numpy",
        "fast_gbytes_per_s": call_bytes / fast_ns,
        "read_gbytes_per_s": buf.nbytes / read_ns,
    }
