"""Learnable direct partitioning: a non-uniform 2-bit quantizer with exact
gradients, plus its 3-bit split-scale variant.

Every group owns four logits. The clip logits set the dynamic range,

    lo = sigmoid(lo_logit) * min(group),  span = sigmoid(hi_logit) * max(group) - lo,

and the split logits carve that range into three partitions whose shares

    p1 = sigmoid(split1), p2 = (1 - p1) * sigmoid(split2), p3 = rest

always sum to one and never reorder. Thresholds sit at partition centers
(t1 = p1/2, then t_i = t_{i-1} + (p_{i-1} + p_i)/2) and the four dequant
levels are 0, the two threshold midpoints, and 1. The dequantization table
``table = lo + span * levels`` (trailing axis 4) is the one rule for
dequantized values: ``fake_quant`` gathers its entries by code and
``pack.build_lut`` stores them in float16, so code 0 always lands on ``lo``
and code 3 on ``lo + span``. The backward pass treats the step
functions as straight-through: it takes the codes the forward pass computed
and holds them constant, and everything else is differentiated analytically.

All functions broadcast: ``groups`` has shape (..., G) and each parameter
field has shape (...), so a single group with scalar logits and a whole
(H, N) parameter grid go through the same code path.

``fake_quant`` (and ``encode_codes``, its codes alone) runs a compiled
encoder, ``_ldp.c``, built and loaded by ``_native``: one AVX2 pass per
group does the float64 operations of ``_fake_quant_numpy`` in the same
order, so the bits are the same. ``_fake_quant_numpy`` is its reference and
its fallback where the kernel does not build or the CPU lacks AVX2. Both
take the data-free part of the grids (``_partition``) from one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .errors import DegenerateGroupError, InvalidRangeError

__all__ = [
    "LdpParams",
    "LdpGrids",
    "Nf3Params",
    "sigmoid",
    "logit",
    "uniform_split_logits",
    "derive_grids",
    "fake_quant",
    "encode_codes",
    "grads",
    "nf3_fake_quant",
    "UNIFORM_SIDE_GRID",
]

# Per-side NF3 levels: uniform thirds of the side scale.
UNIFORM_SIDE_GRID = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])

LOGIT_LIMIT = 20.0  # training clamps logits here so sigmoid never saturates


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))  # not -|x|, which would flip a NaN's sign bit
    out = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))
    return out if out.ndim else float(out)


def logit(p):
    p = np.asarray(p, dtype=np.float64)
    out = np.log(p) - np.log1p(-p)
    return out if out.ndim else float(out)


def uniform_split_logits() -> tuple[float, float]:
    """Split logits that partition the range into exact thirds."""
    return float(np.log(0.5)), 0.0


@dataclass
class LdpParams:
    """Per-group logits: clip pair plus two partition shares."""

    lo_logit: np.ndarray
    hi_logit: np.ndarray
    split1: np.ndarray
    split2: np.ndarray

    def __post_init__(self):
        self.lo_logit = np.asarray(self.lo_logit, dtype=np.float64)
        self.hi_logit = np.asarray(self.hi_logit, dtype=np.float64)
        self.split1 = np.asarray(self.split1, dtype=np.float64)
        self.split2 = np.asarray(self.split2, dtype=np.float64)


@dataclass
class LdpGrids:
    """Derived per-group grids; trailing axes are 3 (shares, thresholds), 4 (levels, table).

    ``table = lo + span * levels`` holds each code's dequantized value.
    """

    shares: np.ndarray
    thresholds: np.ndarray
    levels: np.ndarray
    table: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    span: np.ndarray


def _invalid_range(index) -> InvalidRangeError:
    return InvalidRangeError(
        f"clip logits give non-positive range at group index {tuple(int(i) for i in index)}"
    )


def _range(
    groups: np.ndarray, s_lo, s_hi
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(mn, mx, lo, hi, span) per group, from the sigmoids of the clip logits."""
    g = np.asarray(groups)
    mn = g.min(axis=-1).astype(np.float64)
    mx = g.max(axis=-1).astype(np.float64)
    lo = s_lo * mn
    span = s_hi * mx - lo
    if np.any(span <= 0.0):
        raise _invalid_range(np.argwhere(np.atleast_1d(span) <= 0.0)[0])
    # hi is defined as lo + span so the endpoint identity holds bit-exactly.
    return mn, mx, np.asarray(lo), np.asarray(lo + span), np.asarray(span)


def _partition(params: LdpParams) -> tuple:
    """The part of ``derive_grids`` that reads no data: the sigmoids of the
    clip logits, and shares, thresholds and levels from the split logits.

    Returns ``(s_lo, s_hi, shares, thresholds, levels)``; the numpy and the
    compiled encoder both take it from here.
    """
    a = np.asarray(sigmoid(params.split1))
    b = np.asarray(sigmoid(params.split2))
    p1 = a
    p2 = (1.0 - a) * b
    p3 = (1.0 - a) * (1.0 - b)
    t1 = p1 / 2.0
    t2 = t1 + (p1 + p2) / 2.0
    t3 = t2 + (p2 + p3) / 2.0
    w1 = (t1 + t2) / 2.0
    w2 = (t2 + t3) / 2.0
    shares = np.stack([p1, p2, p3], axis=-1)
    thresholds = np.stack([t1, t2, t3], axis=-1)
    levels = np.stack([np.zeros_like(w1), w1, w2, np.ones_like(w1)], axis=-1)
    return sigmoid(params.lo_logit), sigmoid(params.hi_logit), shares, thresholds, levels


def derive_grids(groups: np.ndarray, params: LdpParams) -> LdpGrids:
    """Partition shares, thresholds, and dequant levels for each group."""
    s_lo, s_hi, shares, thresholds, levels = _partition(params)
    _, _, lo, hi, span = _range(groups, s_lo, s_hi)
    table = lo[..., None] + span[..., None] * levels
    return LdpGrids(shares, thresholds, levels, table, lo, hi, span)


def fake_quant(groups: np.ndarray, params: LdpParams) -> tuple[np.ndarray, np.ndarray]:
    """Quantize-dequantize each group; returns (codes in {0..3}, values).

    Values are normalized as ``v = clamp((w - lo)/span, 0, 1)``; the code
    counts the thresholds at or below ``v`` (ties go to the upper bin) and
    picks that code's entry of ``derive_grids(...).table``, so clipped
    inputs land exactly on the clip endpoints. Runs the compiled encoder
    when it loads, and otherwise ``_fake_quant_numpy``; both give the same
    bits. Raises ``InvalidRangeError`` at the first group whose clip logits
    give ``span <= 0``.
    """
    return _encode(groups, params, values=True)


def encode_codes(groups: np.ndarray, params: LdpParams) -> np.ndarray:
    """``fake_quant``'s codes alone: the compiled encoder makes no values."""
    return _encode(groups, params, values=False)[0]


def _encode(groups, params: LdpParams, values: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Codes, and values if asked: the compiled encoder, or the numpy one where it does not load."""
    g = np.asarray(groups, dtype=np.float64)
    kernel = _native.kernel("ldp")
    if kernel is None or g.ndim == 0 or g.size == 0:  # the kernel needs at least one value per group
        return _fake_quant_numpy(g, params, values)
    s_lo, s_hi, _, thresholds, levels = _partition(params)
    batch = np.broadcast_shapes(g.shape[:-1], np.shape(s_lo), np.shape(s_hi), thresholds.shape[:-1])

    def per_group(a, *tail):
        if np.shape(a) != batch + tail:  # broadcast_to costs more than the kernel on a small layer
            a = np.broadcast_to(a, batch + tail)
        return np.ascontiguousarray(a, dtype=np.float64)

    x = per_group(g, g.shape[-1])
    codes = np.empty(x.shape, dtype=np.uint8)
    out = np.empty(x.shape, dtype=np.float64) if values else None
    bad = kernel(
        x, x.size // x.shape[-1], x.shape[-1], per_group(s_lo), per_group(s_hi), per_group(thresholds, 3),
        per_group(levels, 4), codes, None if out is None else out.ctypes.data,
    )
    if bad >= 0:
        raise _invalid_range(np.unravel_index(bad, batch or (1,)))
    return codes, out


def _fake_quant_numpy(
    g: np.ndarray, params: LdpParams, values: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """The reference encoder, and the fallback where the compiled one does not load."""
    grids = derive_grids(g, params)
    v = np.subtract(g, grids.lo[..., None])
    v /= grids.span[..., None]
    # Clipped before the compare: where a threshold underflows to 0 or rounds
    # past 1, a value outside [lo, hi] takes the code of the endpoint it clips to.
    np.clip(v, 0.0, 1.0, out=v)
    t = grids.thresholds
    codes = (v >= t[..., 0, None]).view(np.uint8)  # bools are 0/1 bytes
    for k in (1, 2):
        codes += v >= t[..., k, None]
    del v
    return codes, np.take_along_axis(grids.table, codes, axis=-1) if values else None


def grads(
    groups: np.ndarray,
    params: LdpParams,
    codes: np.ndarray,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass of ``fake_quant`` against an upstream gradient.

    ``codes`` are the forward pass's, ``fake_quant(groups, params)[0]``.
    Returns ``(d_group, d_lo_logit, d_hi_logit, d_split1, d_split2)``.
    The weight gradient is the clipped straight-through pass (upstream
    inside [lo, hi], zero outside). Parameter gradients differentiate
    ``w_hat = lo + span * level[code]`` exactly with the code held fixed;
    group min/max are treated as constants for the step.
    """
    g = np.asarray(groups, dtype=np.float64)
    idx = np.asarray(codes, dtype=np.int64)
    up = np.asarray(upstream, dtype=np.float64)
    for name, arr in (("codes", idx), ("upstream", up)):
        if arr.shape != g.shape:
            raise ValueError(f"{name} {arr.shape} does not match groups {g.shape}")
    s_lo = sigmoid(params.lo_logit)
    s_hi = sigmoid(params.hi_logit)
    mn, mx, lo, hi, span = _range(g, s_lo, s_hi)
    a = np.asarray(sigmoid(params.split1))
    b = np.asarray(sigmoid(params.split2))
    da = a * (1.0 - a)
    db = b * (1.0 - b)

    # Level values and their share-logit derivatives, per code.
    w1 = (3.0 * a + (1.0 - a) * b) / 4.0
    w2 = a + (1.0 - a) * b / 2.0 + (1.0 - a) / 4.0
    zeros = np.zeros_like(w1)
    levels = np.stack([zeros, w1, w2, np.ones_like(w1)], axis=-1)
    dlev_ds1 = np.stack([zeros, da * (3.0 - b) / 4.0, da * (3.0 - 2.0 * b) / 4.0, zeros], axis=-1)
    dlev_ds2 = np.stack([zeros, (1.0 - a) * db / 4.0, (1.0 - a) * db / 2.0, zeros], axis=-1)

    lev = np.take_along_axis(levels, idx, axis=-1)
    dlo_dlogit = np.asarray(s_lo * (1.0 - s_lo) * mn)
    dhi_dlogit = np.asarray(s_hi * (1.0 - s_hi) * mx)

    d_lo_logit = (up * dlo_dlogit[..., None] * (1.0 - lev)).sum(axis=-1)
    d_hi_logit = (up * dhi_dlogit[..., None] * lev).sum(axis=-1)
    d_split1 = (up * span[..., None] * np.take_along_axis(dlev_ds1, idx, axis=-1)).sum(axis=-1)
    d_split2 = (up * span[..., None] * np.take_along_axis(dlev_ds2, idx, axis=-1)).sum(axis=-1)
    inside = (g >= lo[..., None]) & (g <= hi[..., None])
    d_group = np.where(inside, up, 0.0)
    return d_group, d_lo_logit, d_hi_logit, d_split1, d_split2


@dataclass
class Nf3Params:
    """Per-group logits for the split-scale 3-bit variant.

    Shares the clip pair with the 2-bit quantizer; ``split1`` places the
    center ``c = lo + span * sigmoid(split1)`` that separates the two sides,
    each dequantized with its own scale.
    """

    lo_logit: np.ndarray
    hi_logit: np.ndarray
    split1: np.ndarray

    def __post_init__(self):
        self.lo_logit = np.asarray(self.lo_logit, dtype=np.float64)
        self.hi_logit = np.asarray(self.hi_logit, dtype=np.float64)
        self.split1 = np.asarray(self.split1, dtype=np.float64)


def nf3_fake_quant(
    groups: np.ndarray,
    params: Nf3Params,
) -> tuple[np.ndarray, np.ndarray]:
    """Quantize-dequantize through the two-sided grid around the center.

    Each value is normalized by its side's scale (positive side when the
    value exceeds the center), snapped to the nearest level of
    ``UNIFORM_SIDE_GRID`` (uniform thirds from 0 to 1), and mapped back as
    ``center + sign * scale * level``. Codes are signed level indices, so 0
    is the center and +/-3 the clip endpoints.
    """
    g = np.asarray(groups, dtype=np.float64)
    _, _, lo, hi, span = _range(g, sigmoid(params.lo_logit), sigmoid(params.hi_logit))
    center = lo + span * sigmoid(params.split1)
    scale_neg = center - lo
    scale_pos = hi - center
    if np.any(scale_neg == 0.0) or np.any(scale_pos == 0.0):
        raise DegenerateGroupError("center sits on a clip endpoint: zero side scale")

    diff = g - center[..., None]
    positive = diff > 0.0
    scale = np.where(positive, scale_pos[..., None], scale_neg[..., None])
    normalized = np.abs(diff) / scale
    idx = np.argmin(np.abs(normalized[..., None] - UNIFORM_SIDE_GRID), axis=-1)
    sign = np.where(positive, 1, -1)
    codes = (sign * idx).astype(np.int8)
    w_hat = center[..., None] + sign * scale * UNIFORM_SIDE_GRID[idx]
    return codes, w_hat
