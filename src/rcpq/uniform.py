"""The two uniform quantizers: asymmetric group-wise and per-token.

The asymmetric one, which scores the clip search's candidates, maps a group
to ``clip(round(w/s) + z, 0, 2^N - 1)`` with range ``h = max - min`` of the
(optionally clipped) group, step ``s = h/(2^N - 1)`` and zero point
``z = -round(min/h)``; a constant group gets ``span == 0``. The per-token one
quantizes the W2A4 GEMV's activations. Rounding is half-to-even throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroTokenError

__all__ = ["ACT_BITS", "ACT_CLIP_RATIO", "quant_act_per_token", "asym_quant_dequant"]

ACT_BITS = 4
ACT_CLIP_RATIO = 0.9  # share of max|x| that maps to the top code


def asym_quant_dequant(
    values: np.ndarray,
    lo: np.ndarray | float | None,
    hi: np.ndarray | float | None,
    bits: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized asymmetric quantize/dequantize over trailing-axis groups.

    ``values`` has shape (..., G); ``lo``/``hi`` broadcast against (...) and
    clip each group before its range is measured. Returns
    ``(codes, dequant, step, zero_point, span)``. Groups whose post-clip
    range collapses to zero get ``span == 0`` and all-zero codes; callers
    decide whether that is an error.
    """
    v = np.asarray(values, dtype=np.float64)
    if lo is not None or hi is not None:
        lo_b = -np.inf if lo is None else np.asarray(lo, dtype=np.float64)[..., None]
        hi_b = np.inf if hi is None else np.asarray(hi, dtype=np.float64)[..., None]
        v = np.clip(v, lo_b, hi_b)
    mn = v.min(axis=-1)
    mx = v.max(axis=-1)
    span = mx - mn
    levels = (1 << bits) - 1
    safe = np.where(span > 0.0, span, 1.0)
    step = safe / levels
    zero = -np.round(mn / safe)
    codes = np.clip(np.round(v / step[..., None]) + zero[..., None], 0, levels)
    codes = np.where(span[..., None] > 0.0, codes, 0.0).astype(np.int64)
    deq = (codes - zero[..., None]) * step[..., None]
    deq = np.where(span[..., None] > 0.0, deq, v)
    return codes, deq, step, zero, span


def quant_act_per_token(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric per-token activation codes and scales.

    Per token the scale is ``ACT_CLIP_RATIO * max|x| / qmax`` and codes are
    ``clip(round(x/scale), -qmax-1, qmax)``, i.e. [-8, 7] at 4 bits.
    Tokens that are identically zero have no scale and raise.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected (tokens, channels)")
    qmax = (1 << (ACT_BITS - 1)) - 1
    maxabs = np.abs(x).max(axis=1)
    if np.any(maxabs == 0.0):
        raise ZeroTokenError(f"all-zero token at row {int(np.argmin(maxabs))}")
    scale = ACT_CLIP_RATIO * maxabs / qmax
    codes = np.clip(np.round(x / scale[:, None]), -qmax - 1, qmax).astype(np.int8)
    return codes, scale
