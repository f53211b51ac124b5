"""The two uniform quantizers: asymmetric group-wise and per-token.

The asymmetric one scores the clip search's candidates. It takes each group
as given (callers clip beforehand) and returns only what they read: the
dequantized values ``(clip(round(w/s) + z, 0, 2^N - 1) - z) * s`` and the
range ``h = max - min``, with step ``s = h/(2^N - 1)`` and zero point
``z = -round(min/h)``. A constant group has ``h == 0`` and comes back
unchanged. The per-token one quantizes the W2A4 GEMV's activations.
Rounding is half-to-even throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, ZeroTokenError

__all__ = ["ACT_BITS", "ACT_CLIP_RATIO", "quant_act_per_token", "asym_quant_dequant"]

ACT_BITS = 4
ACT_CLIP_RATIO = 0.9  # share of max|x| that maps to the top code


def asym_quant_dequant(values: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Quantize-dequantize each group, the trailing axis, of ``values``.

    Returns ``(dequant, span)``: the dequantized values and each group's
    ``max - min``. A group with ``span == 0`` comes back as it is.
    """
    v = np.asarray(values, dtype=np.float64)
    mn = v.min(axis=-1)
    span = v.max(axis=-1) - mn
    levels = (1 << bits) - 1
    safe = np.where(span > 0.0, span, 1.0)
    step = (safe / levels)[..., None]
    zero = -np.round(mn / safe)[..., None]
    deq = v / step
    np.round(deq, out=deq)
    deq += zero
    np.clip(deq, 0, levels, out=deq)  # the code, an integer in [0, levels]
    deq -= zero
    deq *= step
    np.copyto(deq, v, where=~(span[..., None] > 0.0))
    return deq, span


def quant_act_per_token(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric per-token activation codes and scales.

    Per token the scale is ``ACT_CLIP_RATIO * max|x| / qmax`` and codes are
    ``clip(round(x/scale), -qmax-1, qmax)``, i.e. [-8, 7] at 4 bits.
    Tokens that are identically zero have no scale and raise
    ``ZeroTokenError``; a token holding an inf or NaN raises ``DataError``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected (tokens, channels)")
    qmax = (1 << (ACT_BITS - 1)) - 1
    maxabs = np.abs(x).max(axis=1)
    finite = np.isfinite(maxabs)
    if not finite.all():
        raise DataError(f"non-finite activation in token {int(np.argmin(finite))}")
    if np.any(maxabs == 0.0):
        raise ZeroTokenError(f"all-zero token at row {int(np.argmin(maxabs))}")
    scale = ACT_CLIP_RATIO * maxabs / qmax
    codes = np.clip(np.round(x / scale[:, None]), -qmax - 1, qmax).astype(np.int8)
    return codes, scale
