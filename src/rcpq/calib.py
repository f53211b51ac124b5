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
~110 ms for the 4096 candidates of a 64-point grid at G = 128 on a 2-vCPU
x86 host. The search only runs it on the few candidates that can win:

* A float32 screen scores every candidate with one matrix product: with
  ``e`` and ``m`` the candidate's ``err`` and the group's ``gram`` rounded
  to float32, ``einsum("pk,pk->p", e @ m, e)`` and ``n = ||e||^2`` are
  summed in float32.
* A margin bounds each screen's distance from that candidate's einsum:
  ``2 * (c*F*N + G*t*(F + 2)*(N + G) + T*(G*(N + F + 2*G) + 1))``. Here
  ``c = (2*G + 3)*u32 + (G*G + 1)*u64`` and ``N = n + 2*G*t``, and ``F``
  is the computed ``sqrt(||gram||_F^2 + G*G*T)``; ``u32 = 2**-24`` and
  ``u64 = 2**-53`` are the unit roundoffs, ``t`` and ``T`` the smallest
  float32 and float64 subnormals, and ``gamma32(k) = k*u32 / (1 -
  k*u32)``, likewise ``gamma64``. Let ``x = err`` and ``A = gram`` be
  exact reals and ``S = |x| @ |A| @ |x|`` the sum of the terms' sizes.
  - A float32 rounding moves an entry of ``e`` or ``m`` by at most ``u32``
    relatively or, below float32's normal range, ``t/2`` absolutely. The
    screen's two G-term dot products err by at most ``gamma32(G)`` each,
    relatively, in any order and with or without fused multiply-adds.
    With ``(1 + gamma(j)) * (1 + gamma(k)) <= 1 + gamma(j + k)``, the
    screen is within ``gamma32(2*G + 3) * S`` of ``x @ A @ x`` while
    nothing leaves float32's normal range.
  - Below that range a product errs by at most ``t/2`` absolutely, and a
    sum there is exact. Each such error, of a rounded entry or of a
    product, is carried by at most two further factors: ``m_gk * e_k`` or
    ``x_g * A_gk`` for an entry of ``e``, ``x_g * e_k`` for one of ``m``,
    ``e_k`` for a product in ``e @ m``. Summed over the pairs that is at
    most ``(t/2) * (G*sum|e| + G + 2*sqrt(G)*F2*R + G*R^2)``, with ``R^2``
    a bound on ``||e||^2`` and ``||x||^2`` and ``F2`` one on ``||m||_F``
    and ``||A||_F``. As ``sqrt(G)*R <= (G + R^2) / 2``, that is at most
    ``G*t*(F2 + 2)*(R^2 + G)``.
  - The einsum forms each term with two roundings and adds G*G of them in
    some order, so it is within ``gamma64(G*G + 1) * S`` of the exact
    sum. Below float64's normal range each term's product errs by up to
    ``T/2`` more, carried by one factor, an ``|x_k|`` or an ``|A_gk|``:
    ``T * G * (sum|x| + ||A||_F + G)`` in all. With ``sum|x| <= sqrt(G *
    ||x||^2) <= (G + ||x||^2) / 2``, the margin's ``T`` part covers it.
  - ``S`` needs no second product: by Cauchy-Schwarz, ``S <= ||x|| * ||
    |A| |x| || <= ||A||_F * ||x||^2``. The computed norms bound the exact
    ones. ``n`` is a G-term float32 sum of squares, so ``||e||^2 <= (n +
    G*t) * (1 + gamma32(2*G))``; with ``|x_g| <= (|e_g| + t/2) / (1 -
    u32)`` that gives ``R^2 = N * (1 + gamma32(2*G + 3))``. Each of
    ``F``'s G*G squares rounds by a factor within ``u64`` or by at most
    ``T/2``, and their sum, the added ``G*G*T`` and the square root round
    relatively, so ``||A||_F <= F * (1 + gamma64(G*G + 3))``; and ``||m||_F
    <= (1 + u32) * ||A||_F + G*t/2`` gives ``F2``.
  - ``c`` is ``gamma32(2*G + 3) + gamma64(G*G + 1)`` to first order. The
    factor 2 covers the ``1 + gamma`` factors above while ``G*u32`` is
    small (a G of 2^16 would already need a 32 GiB Gram). It also covers
    the margin's own rounding and that of ``screen +- margin``. The
    screen widens from float32 to float64 exactly, so the margin's last
    ``T`` is slack.
* The bounds hold while nothing overflows. Every float32 product and
  partial sum is at most ``(1 + gamma32(2*G))**2 * F2 * (R^2 + 1)``, and
  every float64 one of the einsum at most ``(1 + gamma64(G*G + 1)) *
  ||A||_F * (||x||^2 + 1)``. So where ``F * (N + 1)`` reaches a quarter of
  the largest float32, or is NaN, the margin is inf; that test also keeps
  the einsum's sums far inside float64's range. A float32 rounding that
  overflows makes ``n`` or ``F`` too large for it.
* Collapsed candidates (span 0), which the reference scores inf, get an
  inf screen. The einsum re-scores the candidates that are not proven
  worse than another, i.e. not ``screen - margin > min(screen + margin)``,
  plus the no-clip candidate. On 16 layers of the quantize benchmark
  (seeds 201-203 and 4242, 256 groups) that is 2-41 of 4096, 3.35 on
  average, on either path. Where the terms fall below float32's normal
  range, the margin's absolute part outgrows the gaps between candidates
  and the einsum re-scores most of them: the same bits, slower. With the
  benchmark's activations that starts at weights of Laplace scale ~1e-20
  (2**-60 times the benchmark's), far below any trained layer's.

Let E be the least einsum score. Every candidate has ``screen + margin >=
its einsum >= E``, and one whose einsum equals E has ``screen - margin <=
E``; so the re-scored set holds the winner and all of its exact ties, and
the tie-break sees the same scores in the same index order. numpy's einsum
loops over the candidates outermost and sums each one's terms on its own,
so a subset of rows gets the same bits as the whole. The outputs are
therefore the reference's bit for bit, whatever order BLAS sums in. An inf
margin makes ``screen - margin`` -inf or NaN and ``min(screen + margin)``
inf or NaN; either way the test is false and the candidate is re-scored.

The screen's operand ``(e, n)`` comes from the compiled scorer in
``_quant.c`` (``_native`` builds it, in one library with the LDP encoder).
It does the reference's float operations in their order in one AVX2 pass
over the group per candidate, taking the group's min and max from the
search, and in that pass rounds each ``err`` to float32 as numpy's cast
does, and sums ``n`` in float32 in its own lanes, one of the orders the
bound allows. Float64 errors exist only for the kept rows: a second call
on the kept candidates' bounds writes them, with the bits a pass over all
candidates gives, as each candidate is computed on its own. The kernel
takes finite groups of a multiple of 8 values: the search rejects a
non-finite weight or activation before it scores a group. Where the
kernel does not load or cover G, ``np.clip`` and ``asym_quant_dequant``
give every candidate's float64 ``err``, and numpy's cast and einsum
``(e, n)`` (``_screen_operand``). Both paths give the same ``e`` and the
same float64 errors; ``n`` may differ in its last bits, and so the kept
set, but the picks and objectives are the reference's on both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _native
from .core import GroupLayout
from .errors import ConfigError, DataError
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
_TINY = np.finfo(np.float64).smallest_subnormal
_U64 = np.finfo(np.float64).eps / 2
_TINY32 = float(np.finfo(np.float32).smallest_subnormal)
_U32 = float(np.finfo(np.float32).eps) / 2
_MAX32 = float(np.finfo(np.float32).max)


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


def _frobenius(gram):
    """``F`` of the margin: ``sqrt(||gram||_F^2 + G*G*tiny)`` over the last two axes."""
    g_dim = gram.shape[-1]
    return np.sqrt(np.einsum("...gk,...gk->...", gram, gram) + g_dim * g_dim * _TINY)


def _screen_gram(gram):
    """``(m, fro)``: ``gram`` rounded to float32, and ``_frobenius(gram)``."""
    return gram.astype(np.float32), float(_frobenius(gram))


def _screen_operand(err, e):
    """The numpy path's screen operand: ``err`` rounded to float32 into
    ``e``, and its rows' float32 sums of squares."""
    with np.errstate(over="ignore", invalid="ignore"):
        np.copyto(e, err, casting="same_kind")
        return e, np.einsum("pk,pk->p", e, e)


def _screen(e, n, gram, prod):
    """float32 screen of ``err_p @ gram @ err_p`` for every row ``p`` of
    ``err``, and a bound on its distance from the reference einsum.

    Returns ``(screen, margin)``, float32 and float64, with ``|screen_p -
    einsum_p| <= margin_p`` whatever order either one sums in (see the
    module docstring). ``e`` is ``err`` rounded to float32 and ``n`` its
    rows' float32 sums of squares, in any order; ``gram`` is
    ``_screen_gram``'s pair, and ``prod`` an ``e``-shaped float32 buffer,
    overwritten.
    """
    m, fro = gram
    g_dim = e.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        screen = np.einsum("pk,pk->p", np.matmul(e, m, out=prod), e)
        norm = n.astype(np.float64)
        norm += 2 * g_dim * _TINY32
        rel = (2 * g_dim + 3) * _U32 + (g_dim * g_dim + 1) * _U64
        margin = (g_dim * _TINY32 * (fro + 2.0)) * (norm + g_dim)
        margin += (rel * fro + g_dim * _TINY) * norm + _TINY * (g_dim * (fro + 2 * g_dim) + 1)
        margin *= 2.0
        # Where a float32 product or sum may overflow, there is no bound.
        margin[~(norm < _MAX32 / 4 / fro - 1)] = np.inf
        return screen, margin


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
    recorded in ``degenerate_groups``. Raises ``DataError`` at the first
    (token, channel) of ``x_r`` and the first (row, group) of ``w_r`` that
    holds an inf or NaN, and at the first (row, group) whose scores
    overflow to NaN, which no candidate can win.

    Per group, the compiled scorer (or its numpy reference) gives every
    candidate's quantization error as the float32 screen's operand, every
    candidate is screened, and only those within the screen's rounding
    margin of the best get float64 errors and are scored by the reference
    einsum (see the module docstring). The result is that of scoring every
    candidate with the einsum, bit for bit.
    """
    w = np.asarray(w_r, dtype=np.float64)
    x = np.asarray(x_r, dtype=np.float64)
    layout.check(w)
    if x.ndim != 2 or x.shape[1] != layout.in_channels:
        raise ConfigError(f"calibration activations {x.shape} do not match layout")
    bad = ~np.isfinite(x)
    if bad.any():
        t, c = np.argwhere(bad)[0]
        raise DataError(f"calibration activation at (token {t}, channel {c}) is not finite")

    rl, rh = _candidate_ratios(cfg)
    groups = np.ascontiguousarray(layout.grouped(w))
    h_dim, n_dim, g_dim = groups.shape
    bad = ~np.isfinite(groups).all(axis=-1)
    if bad.any():
        h, n = np.argwhere(bad)[0]
        raise DataError(f"weights at (row {h}, group {n}) are not finite")

    # Gram matrices depend only on the column block, shared by all rows.
    grams = np.empty((n_dim, g_dim, g_dim))
    for n in range(n_dim):
        xg = x[:, n * g_dim : (n + 1) * g_dim]
        grams[n] = xg.T @ xg
    screen_grams = [_screen_gram(gram) for gram in grams]

    out = ClipSearchResult(
        lo_logit=np.zeros((h_dim, n_dim)),
        hi_logit=np.zeros((h_dim, n_dim)),
        ratio_lo=np.ones((h_dim, n_dim)),
        ratio_hi=np.ones((h_dim, n_dim)),
        objective=np.zeros((h_dim, n_dim)),
        no_clip_objective=np.zeros((h_dim, n_dim)),
    )
    no_clip_idx = int(np.flatnonzero((rl == 1.0) & (rh == 1.0))[-1])
    kernel = _native.covering("clip", g_dim)
    # The screen's operand, and on the kernel path the arrays the kernel
    # writes. The kernel takes raw pointers: each array here is a C-ordered
    # float64 or float32 one of the shape it expects, held for the whole
    # search, so its address is taken once.
    e = np.empty((rl.size, g_dim), dtype=np.float32)
    prod = np.empty_like(e)
    lo_c, hi_c, span = np.empty((3, rl.size))
    norm = np.empty(rl.size, dtype=np.float32)
    addr = {name: arr.ctypes.data for name, arr in
            dict(groups=groups, lo=lo_c, hi=hi_c, e=e, norm=norm, span=span).items()}

    for h in range(h_dim):
        for n in range(n_dim):
            g = groups[h, n]
            mn, mx = g.min(), g.max()
            if mn == mx:
                out.degenerate_groups.append((h, n))
                continue
            np.multiply(rl, mn, out=lo_c)
            np.multiply(rh, mx, out=hi_c)
            g_addr = addr["groups"] + g.itemsize * g_dim * (h * n_dim + n)
            if kernel is None:
                clipped = np.clip(g[None, :], lo_c[:, None], hi_c[:, None])
                deq, span = asym_quant_dequant(clipped, BITS)
                err = np.subtract(deq, clipped, out=deq)
                _, norm = _screen_operand(err, e)
            else:
                kernel(g_addr, g_dim, mn, mx, addr["lo"], addr["hi"], rl.size, None, addr["e"], addr["norm"],
                       addr["span"])
            screen, margin = _screen(e, norm, screen_grams[n], prod)
            screen[span == 0.0] = np.inf  # fully collapsed candidates are invalid
            # Keep every candidate not proven worse than some other one. The
            # negated test keeps all of them when a score is inf or NaN.
            keep = ~(screen - margin > np.min(screen + margin))
            keep[no_clip_idx] = True
            cand = np.flatnonzero(keep)
            if kernel is None:
                kept = err[cand]
            else:  # float64 errors of the kept candidates alone: the same bits as a pass over all
                kept, lo_k, hi_k = np.empty((cand.size, g_dim)), lo_c[cand], hi_c[cand]
                kernel(g_addr, g_dim, mn, mx, lo_k.ctypes.data, hi_k.ctypes.data, cand.size, kept.ctypes.data,
                       None, None, None)
            obj = np.einsum("pg,gk,pk->p", kept, grams[n], kept)
            obj[span[cand] == 0.0] = np.inf
            if np.isnan(obj).any():  # inf - inf in a score: no candidate can be ranked
                raise DataError(f"clip search scores at (row {h}, group {n}) are NaN; the weights or "
                                "activations overflow float64")
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


def clipped_uniform_quantizer(
    w: np.ndarray, x: np.ndarray, layout: GroupLayout, cfg: ClipSearchConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Clip search followed by uniform quantize-dequantize: ``(w_hat, w_target)``.

    The scorer of the error-vs-kurtosis analysis: ``w_hat`` is the
    fake-quantized weight and ``w_target`` the clipped weight the output
    error is measured against.
    """
    search = grid_search_clip(w, x, layout, cfg)
    groups = layout.grouped(np.asarray(w, dtype=np.float64))
    lo = search.ratio_lo * groups.min(axis=-1)
    hi = search.ratio_hi * groups.max(axis=-1)
    clipped = np.clip(groups, lo[..., None], hi[..., None])
    deq, _ = asym_quant_dequant(clipped, BITS)
    return deq.reshape(w.shape), clipped.reshape(w.shape)


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
