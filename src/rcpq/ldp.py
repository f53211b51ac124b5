"""Learnable direct partitioning: a non-uniform 2-bit quantizer with exact
gradients, plus its 3-bit split-scale variant.

Every group owns four logits. The clip logits set the dynamic range,

    lo = sigmoid(lo_logit) * min(group),  span = sigmoid(hi_logit) * max(group) - lo,

and the split logits carve that range into three partitions whose shares

    p1 = sigmoid(split1), p2 = (1 - p1) * sigmoid(split2), p3 = rest

always sum to one and never reorder. Thresholds sit at partition centers
(t1 = p1/2, then t_i = t_{i-1} + (p_{i-1} + p_i)/2) and the four dequant
levels are 0, the two threshold midpoints, and 1, so code 0 always lands on
``lo`` and code 3 on ``lo + span``. The backward pass treats the step
functions as straight-through: codes are constants, everything else is
differentiated analytically.

All functions broadcast: ``groups`` has shape (..., G) and each parameter
field has shape (...), so a single group with scalar logits and a whole
(H, N) parameter grid go through the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    "grads",
    "nf3_fake_quant",
    "UNIFORM_SIDE_GRID",
]

# Per-side NF3 levels: uniform thirds of the side scale.
UNIFORM_SIDE_GRID = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])

LOGIT_LIMIT = 20.0  # training clamps logits here so sigmoid never saturates


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
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
    """Derived per-group grids; trailing axes are 3 (shares, thresholds), 4 (levels)."""

    shares: np.ndarray
    thresholds: np.ndarray
    levels: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    span: np.ndarray


def _range_from_logits(
    groups: np.ndarray, lo_logit: np.ndarray, hi_logit: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    g = np.asarray(groups, dtype=np.float64)
    mn = g.min(axis=-1)
    mx = g.max(axis=-1)
    lo = sigmoid(lo_logit) * mn
    span = sigmoid(hi_logit) * mx - lo
    if np.any(span <= 0.0):
        bad = np.argwhere(np.atleast_1d(span) <= 0.0)[0]
        raise InvalidRangeError(
            f"clip logits give non-positive range at group index {tuple(bad)}"
        )
    # hi is defined as lo + span so the endpoint identity holds bit-exactly.
    return mn, mx, np.asarray(lo), np.asarray(lo + span), np.asarray(span)


def derive_grids(groups: np.ndarray, params: LdpParams) -> LdpGrids:
    """Partition shares, thresholds, and dequant levels for each group."""
    _, _, lo, hi, span = _range_from_logits(groups, params.lo_logit, params.hi_logit)
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
    return LdpGrids(shares=shares, thresholds=thresholds, levels=levels, lo=lo, hi=hi, span=span)


def fake_quant(groups: np.ndarray, params: LdpParams) -> tuple[np.ndarray, np.ndarray]:
    """Quantize-dequantize each group; returns (codes in {0..3}, values).

    Values are normalized as ``v = clamp((w - lo)/span, 0, 1)``; the code
    counts the thresholds at or below ``v`` (ties go to the upper bin) and
    dequantizes through the level grid, so clipped inputs land exactly on
    the clip endpoints.
    """
    g = np.asarray(groups, dtype=np.float64)
    grids = derive_grids(g, params)
    v = np.clip((g - grids.lo[..., None]) / grids.span[..., None], 0.0, 1.0)
    codes = (v[..., None] >= grids.thresholds[..., None, :]).sum(axis=-1).astype(np.uint8)
    picked = np.take_along_axis(grids.levels, codes.astype(np.int64), axis=-1)
    w_hat = grids.lo[..., None] + grids.span[..., None] * picked
    return codes, w_hat


def grads(
    groups: np.ndarray,
    params: LdpParams,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass of ``fake_quant`` against an upstream gradient.

    Returns ``(d_group, d_lo_logit, d_hi_logit, d_split1, d_split2)``.
    The weight gradient is the clipped straight-through pass (upstream
    inside [lo, hi], zero outside). Parameter gradients differentiate
    ``w_hat = lo + span * level[code]`` exactly with the code held fixed;
    group min/max are treated as constants for the step.
    """
    g = np.asarray(groups, dtype=np.float64)
    up = np.asarray(upstream, dtype=np.float64)
    if up.shape != g.shape:
        raise ValueError(f"upstream {up.shape} does not match groups {g.shape}")
    mn, mx, lo, hi, span = _range_from_logits(g, params.lo_logit, params.hi_logit)
    a = np.asarray(sigmoid(params.split1))
    b = np.asarray(sigmoid(params.split2))
    da = a * (1.0 - a)
    db = b * (1.0 - b)
    codes, _ = fake_quant(g, params)
    idx = codes.astype(np.int64)

    # Level values and their share-logit derivatives, per code.
    w1 = (3.0 * a + (1.0 - a) * b) / 4.0
    w2 = a + (1.0 - a) * b / 2.0 + (1.0 - a) / 4.0
    zeros = np.zeros_like(w1)
    levels = np.stack([zeros, w1, w2, np.ones_like(w1)], axis=-1)
    dlev_ds1 = np.stack([zeros, da * (3.0 - b) / 4.0, da * (3.0 - 2.0 * b) / 4.0, zeros], axis=-1)
    dlev_ds2 = np.stack([zeros, (1.0 - a) * db / 4.0, (1.0 - a) * db / 2.0, zeros], axis=-1)

    lev = np.take_along_axis(levels, idx, axis=-1)
    s_lo = sigmoid(params.lo_logit)
    s_hi = sigmoid(params.hi_logit)
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
    _, _, lo, hi, span = _range_from_logits(g, params.lo_logit, params.hi_logit)
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
