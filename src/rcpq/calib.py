"""Grid-search initialization of clip logits and quantizer parameters.

The search minimizes, per group, the calibration output error

    || (dequant(quant(clip(w))) - clip(w)) @ x_group.T ||^2

over an exhaustive 2-D grid of clip ratios for the group's min and max
sides. Each group is scored on its own calibration columns only. The
layer's output error does not factorize across groups: with ``e_n`` group
n's part of a row's output error on the calibration tokens, the row's
squared error also has the cross terms ``2 e_n . e_m``, which this
objective ignores. Dropping them is what makes each group's search
independent and embarrassingly parallel. Ties are broken
toward the larger retained range, i.e. less clipping. The winning ratios
come back as logits, clamped to the training limit so downstream sigmoid
math never saturates to exactly 0 or 1.

Each candidate's score is ``err @ gram @ err``, with ``err`` its
quantization error on the group and ``gram`` the group's ``x.T @ x``. The
reference score is ``np.einsum("pg,gk,pk->p", err, gram, err)``: a sum of
the G*G terms ``err_g * gram_gk * err_k``, run as a plain loop that costs
~100 ms for the 4096 candidates of a 64-point grid at G = 128 on a 2-vCPU
x86 host. The search only runs it on the few candidates that can win:

* A BLAS screen, ``((err @ gram) * err).sum(-1)``, scores every candidate.
* A margin bounds each screen's distance from that candidate's einsum:
  ``(S * eps + 2 * tiny) * (G*G + 2*G + 4)``, with
  ``S = ((|err| @ |gram|) * |err|).sum(-1)`` the sum of the terms' sizes,
  ``eps`` the float64 machine epsilon and ``tiny`` its smallest subnormal.
  With ``u = eps / 2``, the einsum forms each term with two roundings and
  adds G*G of them in some order, so it is within ``gamma(G*G + 1) * S``
  of the exact sum, where ``gamma(n) = n*u / (1 - n*u)``. The screen's
  G-term dot products, product and G-term row sum keep it within
  ``gamma(2*G) * S``, in any order and with or without fused multiply-adds.
  The margin is twice their sum, which also covers the rounding of ``S``
  itself and of ``screen +- margin``. Below the normal range a product
  errs by up to ``tiny / 2`` absolutely; fewer than ``3*G*G + G`` products
  do, which the ``tiny`` term covers.
* Collapsed candidates (span 0), which the reference scores inf, get an
  inf screen. The einsum re-scores the candidates that are not proven
  worse than another, i.e. not ``screen - margin > min(screen + margin)``,
  plus the no-clip candidate. On the benchmark's layers that is 2 of 4096.

Let E be the least einsum score. Every candidate has ``screen + margin >=
its einsum >= E``, and one whose einsum equals E has ``screen - margin <=
E``; so the re-scored set holds the winner and all of its exact ties, and
the tie-break sees the same scores in the same index order. numpy's einsum
loops over the candidates outermost and sums each one's terms on its own,
so a subset of rows gets the same bits as the whole. The outputs are
therefore the reference's bit for bit, whatever order BLAS sums in. A score
that overflows makes its margin inf, so ``screen - margin`` is NaN or the
minimum is inf; either way the test is false and the candidate is
re-scored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import GroupLayout
from .errors import ConfigError
from .ldp import LOGIT_LIMIT, LdpParams, logit, uniform_split_logits
from .uniform import asym_quant_dequant

__all__ = [
    "ClipSearchConfig",
    "ClipSearchResult",
    "grid_search_clip",
    "ldp_init",
    "clipped_uniform_quantizer",
]


BITS = 2
RATIO_MIN = 0.5  # each clip ratio axis of the grid runs from here up to RATIO_MAX
RATIO_MAX = 1.0  # no clipping: the candidate no_clip_objective reads


@dataclass(frozen=True)
class ClipSearchConfig:
    grid: int = 64

    def __post_init__(self):
        if self.grid < 2:
            raise ConfigError("need at least 2 grid points per axis")


@dataclass
class ClipSearchResult:
    """Per-group winners of the clip search; arrays are (H, N)."""

    lo_logit: np.ndarray
    hi_logit: np.ndarray
    ratio_lo: np.ndarray
    ratio_hi: np.ndarray
    objective: np.ndarray
    no_clip_objective: np.ndarray
    degenerate_groups: list = field(default_factory=list)


def _candidate_ratios(cfg: ClipSearchConfig) -> tuple[np.ndarray, np.ndarray]:
    axis = np.linspace(RATIO_MIN, RATIO_MAX, cfg.grid)
    rl, rh = np.meshgrid(axis, axis, indexing="ij")
    return rl.ravel(), rh.ravel()


def _screen(err, gram, spare):
    """BLAS screen of ``err_p @ gram @ err_p`` for every row ``p`` of
    ``err``, and a bound on its distance from the reference einsum.

    Returns ``(screen, margin)``, with ``|screen_p - einsum_p| <= margin_p``
    whatever order either one sums in (see the module docstring).
    ``spare`` is an ``err``-shaped buffer, overwritten with ``|err|``.
    """
    g_dim = err.shape[1]
    quad = err @ gram
    quad *= err
    screen = quad.sum(-1)
    size = np.abs(err, out=spare)
    np.matmul(size, np.abs(gram), out=quad)
    quad *= size
    terms = quad.sum(-1)  # sum over (g, k) of |err_g * gram_gk * err_k|
    eps = np.finfo(np.float64).eps
    tiny = np.finfo(np.float64).smallest_subnormal
    return screen, (terms * eps + 2 * tiny) * (g_dim * g_dim + 2 * g_dim + 4)


def grid_search_clip(
    w_r: np.ndarray,
    x_r: np.ndarray,
    layout: GroupLayout,
    cfg: ClipSearchConfig = ClipSearchConfig(),
) -> ClipSearchResult:
    """Exhaustive per-group search for the best clip ratio pair.

    ``w_r`` is the (H, C) weight and ``x_r`` the (T, C) calibration
    activations, both already rotated if rotation is in play. Constant
    groups cannot be searched; they get a near-1.0 ratio pair and are
    recorded in ``degenerate_groups``.

    Per group, every candidate is screened with BLAS and only those within
    the screen's rounding margin of the best are scored by the reference
    einsum (see the module docstring). The result is that of scoring every
    candidate with the einsum, bit for bit.
    """
    w = np.asarray(w_r, dtype=np.float64)
    x = np.asarray(x_r, dtype=np.float64)
    layout.check(w)
    if x.ndim != 2 or x.shape[1] != layout.in_channels:
        raise ConfigError(f"calibration activations {x.shape} do not match layout")

    rl, rh = _candidate_ratios(cfg)
    groups = layout.grouped(w)
    h_dim, n_dim, g_dim = groups.shape

    # Gram matrices depend only on the column block, shared by all rows.
    grams = np.empty((n_dim, g_dim, g_dim))
    for n in range(n_dim):
        xg = x[:, n * g_dim : (n + 1) * g_dim]
        grams[n] = xg.T @ xg

    out = ClipSearchResult(
        lo_logit=np.zeros((h_dim, n_dim)),
        hi_logit=np.zeros((h_dim, n_dim)),
        ratio_lo=np.ones((h_dim, n_dim)),
        ratio_hi=np.ones((h_dim, n_dim)),
        objective=np.zeros((h_dim, n_dim)),
        no_clip_objective=np.zeros((h_dim, n_dim)),
    )
    no_clip_idx = int(np.flatnonzero((rl == 1.0) & (rh == 1.0))[-1])

    for h in range(h_dim):
        for n in range(n_dim):
            g = groups[h, n]
            mn, mx = g.min(), g.max()
            if mn == mx:
                out.degenerate_groups.append((h, n))
                continue
            lo_c = rl * mn
            hi_c = rh * mx
            clipped = np.clip(g[None, :], lo_c[:, None], hi_c[:, None])
            _, deq, _, _, span = asym_quant_dequant(clipped, None, None, BITS)
            err = np.subtract(deq, clipped, out=deq)
            screen, margin = _screen(err, grams[n], spare=clipped)
            screen[span == 0.0] = np.inf  # fully collapsed candidates are invalid
            # Keep every candidate not proven worse than some other one. The
            # negated test keeps all of them when a score is inf or NaN.
            keep = ~(screen - margin > np.min(screen + margin))
            keep[no_clip_idx] = True
            cand = np.flatnonzero(keep)
            kept = err[cand]
            obj = np.einsum("pg,gk,pk->p", kept, grams[n], kept)
            obj[span[cand] == 0.0] = np.inf
            best_obj = obj.min()
            tied = cand[obj == best_obj]
            widths = hi_c[tied] - lo_c[tied]
            tied = tied[widths == widths.max()]
            # Residual ties (e.g. min == 0 makes the low side irrelevant)
            # resolve toward the least clipping on both axes.
            pick = tied[int(np.argmax(rl[tied] + rh[tied]))]
            out.ratio_lo[h, n] = rl[pick]
            out.ratio_hi[h, n] = rh[pick]
            out.objective[h, n] = best_obj
            out.no_clip_objective[h, n] = obj[np.searchsorted(cand, no_clip_idx)]

    # Ratio 1.0 (no clipping, also the degenerate-group fallback) maps to the
    # near-saturated logit of 1 - 1e-6 so downstream math stays finite.
    eps = 1e-6
    out.lo_logit = np.clip(logit(np.minimum(out.ratio_lo, 1.0 - eps)), -LOGIT_LIMIT, LOGIT_LIMIT)
    out.hi_logit = np.clip(logit(np.minimum(out.ratio_hi, 1.0 - eps)), -LOGIT_LIMIT, LOGIT_LIMIT)
    return out


def clipped_uniform_quantizer(cfg: ClipSearchConfig = ClipSearchConfig()):
    """Quantizer handle: clip search followed by uniform quantize-dequantize.

    Returns a callable ``(w, x, layout) -> (w_hat, w_target)`` suitable for
    the error-vs-kurtosis analysis: ``w_target`` is the clipped weight the
    output error is measured against.
    """

    def quantize(w: np.ndarray, x: np.ndarray, layout: GroupLayout):
        search = grid_search_clip(w, x, layout, cfg)
        groups = layout.grouped(np.asarray(w, dtype=np.float64))
        mn = groups.min(axis=-1)
        mx = groups.max(axis=-1)
        lo = search.ratio_lo * mn
        hi = search.ratio_hi * mx
        clipped = np.clip(groups, lo[..., None], hi[..., None])
        _, deq, _, _, _ = asym_quant_dequant(groups, lo, hi, BITS)
        return deq.reshape(w.shape), clipped.reshape(w.shape)

    return quantize


def ldp_init(clip: ClipSearchResult) -> LdpParams:
    """Quantizer parameters at the start of training: searched clip logits
    plus split logits that partition the range into exact thirds."""
    if not (np.isfinite(clip.lo_logit).all() and np.isfinite(clip.hi_logit).all()):
        raise ConfigError("clip logits must be finite")
    s1, s2 = uniform_split_logits()
    shape = np.asarray(clip.lo_logit).shape
    return LdpParams(
        lo_logit=np.asarray(clip.lo_logit, dtype=np.float64).copy(),
        hi_logit=np.asarray(clip.hi_logit, dtype=np.float64).copy(),
        split1=np.full(shape, s1),
        split2=np.full(shape, s2),
    )
