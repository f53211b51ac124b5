"""The quantize pipeline: rotate, clip-search, partition, pack.

``quantize_layer`` is the one place the sequence is written out; ``rcpq
quantize`` calls it and ``rcpq verify`` re-derives a container with its
``rotate`` and ``encode`` steps.
"""

from __future__ import annotations

import numpy as np

from .calib import ClipSearchConfig, ClipSearchResult, grid_search_clip, ldp_init
from .core import GroupLayout
from .errors import ZeroTokenError
from .ldp import LdpParams, encode_codes
from .pack import DequantLut, PackedWeights, build_lut, pack_weight_codes, stored_params
from .rotation import apply_online, fuse, randomized_hadamard

__all__ = ["rotate", "encode", "quantize_layer"]


def rotate(w: np.ndarray, x: np.ndarray, seed: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Fuse the seeded randomized Hadamard into ``w`` and apply it to ``x``;
    with ``seed=None``, return both unchanged."""
    if seed is None:
        return w, x
    rot = randomized_hadamard(w.shape[1], seed)
    return fuse(w, None, rot), apply_online(x, rot)


def encode(w_r: np.ndarray, layout: GroupLayout, params: LdpParams) -> tuple[np.ndarray, DequantLut]:
    """2-bit codes, shaped ``layout.grouped``, and the dequantization LUT."""
    codes = encode_codes(layout.grouped(np.asarray(w_r)), params)
    return codes, build_lut(w_r, layout, params)


def quantize_layer(
    w: np.ndarray, x: np.ndarray, layout: GroupLayout, rotate_seed: int | None, grid: int
) -> tuple[ClipSearchResult, LdpParams, DequantLut, PackedWeights]:
    """Quantize one weight against calibration activations ``x``.

    Returns the clip search result, the params as the container stores them,
    the LUT and the packed weights: what ``write_rcpq`` needs plus the search
    diagnostics. Codes and LUT come from the stored params, so ``rcpq
    verify`` reproduces them from the container. Raises ``ZeroTokenError``
    when no token of ``x`` has a non-zero activation: every objective would
    be 0.
    """
    if not np.any(x):
        raise ZeroTokenError(f"calibration activations {np.shape(x)}: no token has a non-zero activation")
    w_r, x_r = rotate(w, x, rotate_seed)
    search = grid_search_clip(w_r, x_r, layout, ClipSearchConfig(grid=grid))
    params = stored_params(ldp_init(search))
    codes, lut = encode(w_r, layout, params)
    return search, params, lut, pack_weight_codes(codes.reshape(w_r.shape), layout)
