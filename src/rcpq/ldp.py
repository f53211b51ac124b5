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

``groups`` has shape (..., G), a batch of groups of G values. In
``fake_quant``, ``encode_codes`` and ``grads`` each parameter field has the
batch shape ``groups.shape[:-1]``, so a single group takes scalar logits
and an (H, N, G) layer an (H, N) grid; any other shape raises
``ShapeError``. ``derive_grids`` and ``nf3_fake_quant`` broadcast as numpy
does.

``fake_quant`` (and ``encode_codes``, its codes alone) runs a compiled
encoder in ``_quant.c``, and ``grads`` a compiled backward pass in the same
library, which ``_native`` builds and loads with the clip search's scorer.
Each does one pass per group, with the float64 operations of its numpy
reference (``_fake_quant_numpy``, ``_grads_numpy``) in the same order, so
the bits are the same. Both take the sigmoids of the four logit fields from
one numpy call (``_operands``), whose bits depend on numpy's SIMD dispatch,
and derive the rest per group. The references run instead where a kernel
does not build, where the CPU lacks AVX2, where the group size is not a
multiple of 4, and where a group, an upstream gradient or a sigmoid holds
a value that is not finite.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import _native
from .errors import DegenerateGroupError, InvalidRangeError, ShapeError

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
    out = np.where(pos, 1.0, e) / (1.0 + e)
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


_FIELDS = tuple(f.name for f in fields(LdpParams))  # the rows of the kernels' sigmoids


def _operands(groups, params: LdpParams) -> tuple[np.ndarray, np.ndarray]:
    """``groups`` as a C-ordered float64 array, and the sigmoids of the lo,
    hi, split1 and split2 logits as one (4, *batch) array from one call.

    Raises ``ShapeError`` where a field's shape is not the groups' batch
    shape ``groups.shape[:-1]``.
    """
    g = np.asarray(groups, dtype=np.float64, order="C")
    if g.ndim == 0:
        raise ShapeError("groups () have no axis of values")
    batch = g.shape[:-1]
    logits = [getattr(params, name) for name in _FIELDS]
    for name, field in zip(_FIELDS, logits):
        if np.shape(field) != batch:
            raise ShapeError(f"{name} {np.shape(field)} is not the batch shape {batch} of groups {g.shape}")
    return g, sigmoid(np.array(logits))


def _run(kernel, g: np.ndarray, sig: np.ndarray, *arrays) -> bool:
    """``kernel`` on ``_operands``' groups and sigmoids, as (groups, G) and
    (4, groups), then on ``arrays``: True where it wrote every output, False
    where a value is not finite, for the numpy reference to run. Raises
    ``InvalidRangeError`` at the first group whose clip logits give
    ``span <= 0``.

    The kernel takes raw pointers: each of ``arrays`` is None or a C-ordered
    array of the dtype and shape its C comment gives, held while it runs.
    """
    bad = kernel(
        g.ctypes.data, g.size // g.shape[-1], g.shape[-1], sig.ctypes.data,
        *(None if a is None else a.ctypes.data for a in arrays),
    )
    if bad >= 0:
        raise _invalid_range(np.unravel_index(bad, g.shape[:-1] or (1,)))
    return bad == -1


def derive_grids(groups: np.ndarray, params: LdpParams) -> LdpGrids:
    """Partition shares, thresholds, and dequant levels for each group."""
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
    _, _, lo, hi, span = _range(groups, sigmoid(params.lo_logit), sigmoid(params.hi_logit))
    table = lo[..., None] + span[..., None] * levels
    return LdpGrids(shares, thresholds, levels, table, lo, hi, span)


def fake_quant(groups: np.ndarray, params: LdpParams) -> tuple[np.ndarray, np.ndarray]:
    """Quantize-dequantize each group; returns (codes in {0..3}, values).

    Values are normalized as ``v = clamp((w - lo)/span, 0, 1)``; the code
    counts the thresholds at or below ``v`` (ties go to the upper bin) and
    picks that code's entry of ``derive_grids(...).table``, so clipped
    inputs land exactly on the clip endpoints. Runs the compiled encoder
    where it loads and covers the call, and otherwise
    ``_fake_quant_numpy``; both give the same bits. Raises ``ShapeError``
    where a logit field's shape is not ``groups.shape[:-1]``, then
    ``InvalidRangeError`` at the first group whose clip logits give
    ``span <= 0``.
    """
    return _encode(groups, params, values=True)


def encode_codes(groups: np.ndarray, params: LdpParams) -> np.ndarray:
    """``fake_quant``'s codes alone: the compiled encoder makes no values."""
    return _encode(groups, params, values=False)[0]


def _encode(groups, params: LdpParams, values: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Codes, and values if asked: the compiled encoder, or the numpy one
    where it does not load or cover the call."""
    g, sig = _operands(groups, params)
    kernel = _native.covering("ldp", g.shape[-1]) if g.size else None
    if kernel is not None:
        codes = np.empty(g.shape, dtype=np.uint8)
        out = np.empty(g.shape) if values else None
        if _run(kernel, g, sig, codes, out):
            return codes, out
    return _fake_quant_numpy(g, params, values)


def _fake_quant_numpy(
    g: np.ndarray, params: LdpParams, values: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """The reference encoder, and the fallback where the compiled one does
    not load or cover the call."""
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


def _stray_codes(index) -> ValueError:
    return ValueError(f"codes outside 0..3 at group index {tuple(int(i) for i in index)}")


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
    group min/max are treated as constants for the step. Runs the compiled
    backward pass where it loads and covers the call, and otherwise
    ``_grads_numpy``; both give the same bits.

    Raises ``ShapeError`` where a logit field's shape is not
    ``groups.shape[:-1]``, ``ValueError`` when ``codes`` or ``upstream`` do
    not have the shape of ``groups``, and at the first group holding a code
    outside {0..3}, which would index past the group's four levels. Then
    raises ``InvalidRangeError`` at the first group whose clip logits give
    ``span <= 0``.
    """
    g, sig = _operands(groups, params)
    c = np.asarray(codes)
    up = np.asarray(upstream, dtype=np.float64, order="C")
    for name, arr in (("codes", c), ("upstream", up)):
        if arr.shape != g.shape:
            raise ValueError(f"{name} {arr.shape} does not match groups {g.shape}")
    stray = (c < 0) | (c > 3)
    if stray.any():
        raise _stray_codes(np.argwhere(stray)[0][:-1])  # the first stray code's group
    c = np.asarray(c, dtype=np.uint8, order="C")
    kernel = _native.covering("ldp_grads", g.shape[-1]) if g.size else None
    if kernel is not None:
        d_group, d_logits = np.empty(g.shape), np.empty(sig.shape)
        if _run(kernel, g, sig, c, up, d_group, d_logits):
            return (d_group, *d_logits)
    return _grads_numpy(g, sig, c, up)


def _grads_numpy(g: np.ndarray, sig: np.ndarray, codes: np.ndarray, up: np.ndarray) -> tuple:
    """The reference backward pass, and the fallback where the compiled one
    does not load or cover the call. ``sig`` is ``_operands``' sigmoids,
    and ``codes`` lie in 0..3."""
    s_lo, s_hi, a, b = sig
    mn, mx, lo, hi, span = _range(g, s_lo, s_hi)
    na = 1.0 - a
    nab = na * b
    da = a * na
    nadb = na * (b * (1.0 - b))
    zero = np.zeros_like(a)

    def picked(*by_code):
        """Each value's entry of a per-group table, one entry per code."""
        return np.take_along_axis(np.stack(by_code, axis=-1), codes, axis=-1)

    # The level of each value's code and its split1 and split2 derivatives;
    # codes 0 and 3 sit on the clip endpoints, so only their level (1 for
    # code 3) is non-zero.
    level = picked(zero, (3.0 * a + nab) / 4.0, a + nab / 2.0 + na / 4.0, np.ones_like(a))
    d_level1 = picked(zero, da * (3.0 - b) / 4.0, da * (3.0 - 2.0 * b) / 4.0, zero)
    d_level2 = picked(zero, nadb / 4.0, nadb / 2.0, zero)
    c_lo = (s_lo * (1.0 - s_lo) * mn)[..., None]
    c_hi = (s_hi * (1.0 - s_hi) * mx)[..., None]
    up_span = up * span[..., None]
    d_lo_logit = (up * c_lo * (1.0 - level)).sum(axis=-1)
    d_hi_logit = (up * c_hi * level).sum(axis=-1)
    d_split1 = (up_span * d_level1).sum(axis=-1)
    d_split2 = (up_span * d_level2).sum(axis=-1)
    d_group = np.where((g >= lo[..., None]) & (g <= hi[..., None]), up, 0.0)
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
