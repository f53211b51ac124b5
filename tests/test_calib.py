"""Clip-ratio grid search and quantizer initialization."""

import math
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcpq import _native, calib
from rcpq.calib import (
    BITS,
    RATIO_MAX,
    RATIO_MIN,
    ClipSearchConfig,
    ClipSearchResult,
    _candidate_ratios,
    _frobenius,
    _screen,
    _screen_gram,
    _screen_operand,
    grid_search_clip,
    ldp_init,
)
from rcpq.core import GroupLayout, make_rng
from rcpq.errors import ConfigError, DataError
from rcpq.ldp import LOGIT_LIMIT, derive_grids, fake_quant, logit, sigmoid
from rcpq.pipeline import rotate
from rcpq.uniform import asym_quant_dequant

EPS = np.finfo(np.float64).eps


def _reference_search(w_r, x_r, layout, cfg):
    """The readable reference of ``grid_search_clip``: every candidate of
    every group scored by the einsum, then the span and tie-break rules."""
    w = np.asarray(w_r, dtype=np.float64)
    x = np.asarray(x_r, dtype=np.float64)
    rl, rh = _candidate_ratios(cfg)
    groups = layout.grouped(w)
    h_dim, n_dim, g_dim = groups.shape
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
            deq, span = asym_quant_dequant(clipped, BITS)
            err = deq - clipped
            obj = np.einsum("pg,gk,pk->p", err, grams[n], err)
            obj[span == 0.0] = np.inf
            best_obj = obj.min()
            tied = np.flatnonzero(obj == best_obj)
            widths = hi_c[tied] - lo_c[tied]
            tied = tied[widths == widths.max()]
            pick = tied[int(np.argmax(rl[tied] + rh[tied]))]
            out.ratio_lo[h, n] = rl[pick]
            out.ratio_hi[h, n] = rh[pick]
            out.objective[h, n] = best_obj
            out.no_clip_objective[h, n] = obj[no_clip_idx]

    eps = 1e-6
    out.lo_logit = np.clip(logit(np.minimum(out.ratio_lo, 1.0 - eps)), -LOGIT_LIMIT, LOGIT_LIMIT)
    out.hi_logit = np.clip(logit(np.minimum(out.ratio_hi, 1.0 - eps)), -LOGIT_LIMIT, LOGIT_LIMIT)
    return out


def _on(kernel, fn, *args):
    """``fn(*args)`` with ``kernel`` as the process's clip scorer (None: the numpy path)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "kernel", lambda name: kernel)
        return fn(*args)


@pytest.fixture(scope="module")
def kernel(build_kernel):
    """The compiled clip scorer, built afresh (see ``conftest.build_kernel``)."""
    return build_kernel("clip")


@pytest.fixture(scope="module")
def paths(build_kernel):
    """The search's numpy path (None), then its compiled scorer where that builds."""
    try:
        return [None, build_kernel("clip")]
    except pytest.skip.Exception:  # no cc, or no AVX2: only the numpy path can run
        return [None]


def _assert_same(got, want):
    """Two search results are equal bit for bit."""
    for name in ("lo_logit", "hi_logit", "ratio_lo", "ratio_hi", "objective", "no_clip_objective"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert got.degenerate_groups == want.degenerate_groups


def _assert_bitwise(w, x, layout, grid, paths):
    """``grid_search_clip`` equals the reference bit for bit on each of ``paths``."""
    cfg = ClipSearchConfig(grid=grid)
    want = _reference_search(w, x, layout, cfg)
    for kernel in paths:
        got = _on(kernel, grid_search_clip, w, x, layout, cfg)
        _assert_same(got, want)
    return got


def _scorer_outcome(kernel, group, lo, hi):
    """Each candidate's ``(dequant - clipped, span)``: the compiled scorer's,
    or with ``kernel`` None the numpy reference the search falls back to."""
    with np.errstate(all="ignore"):
        if kernel is None:
            clipped = np.clip(group[None, :], lo[:, None], hi[:, None])
            deq, span = asym_quant_dequant(clipped, BITS)
            return deq - clipped, span
        err, span = np.empty((lo.size, group.size)), np.empty(lo.size)
        e, n = np.empty(err.shape, dtype=np.float32), np.empty(lo.size, dtype=np.float32)
        assert _call(kernel, group, lo, hi, err.ctypes.data, None, None, None) == 0
        # the float64 mode writes no span: the float32 one does
        assert _call(kernel, group, lo, hi, None, e.ctypes.data, n.ctypes.data, span.ctypes.data) == 0
        return err, span


def _call(kernel, group, lo, hi, err, e, n, span):
    """The clip scorer on ``group`` and the bounds ``lo`` and ``hi``; ``err``,
    ``e``, ``n`` and ``span`` are addresses or None, as the kernel takes them."""
    group, lo, hi = (np.ascontiguousarray(v, dtype=np.float64) for v in (group, lo, hi))
    return kernel(group.ctypes.data, group.size, group.min(), group.max(), lo.ctypes.data, hi.ctypes.data,
                  lo.size, err, e, n, span)


def _unit_exponent(size):
    """The power of two that brings ``size`` into [1/2, 1), at most 1023; 0 for 0, inf or NaN."""
    return min(-math.frexp(size)[1], 1023)


def _candidate_errors(group, grid):
    """``dequant - clipped`` of every grid candidate, built as the search's numpy path does."""
    rl, rh = _candidate_ratios(ClipSearchConfig(grid=grid))
    return _scorer_outcome(None, group, rl * group.min(), rh * group.max())[0]


def _term_sums(err, gram):
    """Per row of ``err``, the G*G terms ``err_g * gram_gk * err_k`` summed
    one after another in row-major, column-major, largest-first and
    smallest-first order: orders the einsum is free to use."""
    terms = err[:, :, None] * gram[None] * err[:, None, :]
    flat = terms.reshape(len(err), -1)
    by_size = np.take_along_axis(flat, np.argsort(-np.abs(flat), axis=1, kind="stable"), axis=1)
    orders = (flat, terms.transpose(0, 2, 1).reshape(len(err), -1), by_size, by_size[:, ::-1])
    return [np.cumsum(o, axis=1)[:, -1] for o in orders]


def _benchmark_slice():
    """The quantize benchmark's first layer at seed 913: a Laplace 2x1024
    slice, 256 calibration tokens with 8 outlier channels at x20, --rotate 7,
    --group 128 (run at --grid 64). Generators as the benchmark's."""
    seed = 913
    outliers = np.random.default_rng([seed, 7]).choice(1024, size=8, replace=False)
    x = np.random.default_rng([seed, 0]).standard_normal((256, 1024), dtype=np.float32)
    x[:, outliers] *= 20.0
    w = np.random.default_rng([seed, 2, 0]).laplace(scale=0.02, size=(2, 1024)).astype(np.float32)
    w_r, x_r = rotate(w, x, 7)
    return w_r, x_r, GroupLayout(2, 1024, 128)


def _objective(group, x_group, ratio_lo, ratio_hi, bits=2):
    """Independent re-evaluation of the search objective for one candidate."""
    lo = ratio_lo * group.min()
    hi = ratio_hi * group.max()
    clipped = np.clip(group, lo, hi)
    deq, _ = asym_quant_dequant(clipped, bits)
    err = deq - clipped
    out = x_group @ err
    return float(out @ out)


class TestGridSearchClip:
    def test_grid_aligned_weights_pick_identity(self):
        rng = make_rng(40)
        layout = GroupLayout(2, 16, 16)
        w = rng.integers(0, 4, size=(2, 16)).astype(np.float64)
        w[:, 0] = 0.0
        w[:, 1] = 3.0  # anchor the extremes on the grid
        x = rng.standard_normal((32, 16))
        res = grid_search_clip(w, x, layout, ClipSearchConfig(grid=8))
        np.testing.assert_array_equal(res.ratio_lo, 1.0)
        np.testing.assert_array_equal(res.ratio_hi, 1.0)
        np.testing.assert_allclose(res.objective, 0.0, atol=1e-18)

    def test_outlier_groups_clip_strictly_helps(self):
        # Noise wide enough to exercise several codes, plus a 10-sigma
        # outlier: shrinking the range reduces in-range rounding error.
        layout = GroupLayout(1, 32, 32)
        for seed in range(20):
            rng = make_rng(100 + seed)
            w = rng.normal(0, 0.3, size=(1, 32))
            w[0, int(rng.integers(0, 32))] = 3.0
            x = rng.standard_normal((64, 32))
            res = grid_search_clip(w, x, layout, ClipSearchConfig(grid=32))
            assert res.ratio_hi[0, 0] < 1.0
            assert res.objective[0, 0] < res.no_clip_objective[0, 0]

    def test_coarse_grid_never_beats_fine(self):
        rng = make_rng(41)
        layout = GroupLayout(4, 32, 32)
        w = rng.standard_normal((4, 32))
        x = rng.standard_normal((64, 32))
        coarse = grid_search_clip(w, x, layout, ClipSearchConfig(grid=8))
        fine = grid_search_clip(w, x, layout, ClipSearchConfig(grid=64))
        assert np.all(coarse.objective >= fine.objective - 1e-15)

    def test_exhaustiveness_against_reevaluation(self):
        # the returned objective matches an independent evaluation of the
        # winning pair and is <= every grid candidate re-evaluated directly
        rng = make_rng(42)
        layout = GroupLayout(1, 16, 16)
        w = rng.standard_normal((1, 16))
        x = rng.standard_normal((24, 16))
        cfg = ClipSearchConfig(grid=8)
        res = grid_search_clip(w, x, layout, cfg)
        won = _objective(w[0], x, res.ratio_lo[0, 0], res.ratio_hi[0, 0])
        assert won == pytest.approx(res.objective[0, 0], rel=1e-12, abs=1e-18)
        axis = np.linspace(RATIO_MIN, RATIO_MAX, cfg.grid)
        for rl in axis:
            for rh in axis:
                assert res.objective[0, 0] <= _objective(w[0], x, rl, rh) + 1e-12

    def test_degenerate_group_recorded(self):
        layout = GroupLayout(1, 8, 8)
        w = np.full((1, 8), 2.0)
        x = make_rng(43).standard_normal((8, 8))
        res = grid_search_clip(w, x, layout, ClipSearchConfig(grid=4))
        assert res.degenerate_groups == [(0, 0)]
        assert sigmoid(res.lo_logit[0, 0]) == pytest.approx(1.0, abs=1e-5)

    def test_logits_within_training_clamp(self):
        rng = make_rng(44)
        layout = GroupLayout(2, 16, 16)
        w = rng.standard_normal((2, 16))
        x = rng.standard_normal((16, 16))
        res = grid_search_clip(w, x, layout, ClipSearchConfig(grid=8))
        assert np.all(np.abs(res.lo_logit) <= 20.0)
        assert np.all(np.abs(res.hi_logit) <= 20.0)

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            ClipSearchConfig(grid=1)


class TestMatchesReference:
    """Bit for bit against ``_reference_search``, on the numpy path and the
    compiled scorer's, on inputs that stress the screen: exact ties,
    collapsed candidates, rank-deficient Gram matrices."""

    def test_grid_aligned_integer_weights(self, paths):
        # Lattice weights quantize without error under many clip pairs, so
        # whole rows and columns of the candidate grid tie exactly.
        rng = make_rng(50)
        layout = GroupLayout(6, 64, 16)
        w = rng.integers(0, 4, size=(6, 64)).astype(np.float64)
        w[3:] -= rng.integers(0, 4, size=(3, 64))
        w[:, ::16] = 0.0
        w[:, 1::16] = 3.0
        x = rng.standard_normal((48, 64))
        _assert_bitwise(w, x, layout, grid=16, paths=paths)

    def test_single_sign_groups(self, paths):
        # lo = rl * min can exceed hi = rh * max, where np.clip returns hi:
        # such candidates collapse to span 0, which the reference scores inf.
        rng = make_rng(51)
        layout = GroupLayout(4, 32, 16)
        w = rng.uniform(1.0, 1.3, size=(4, 32))
        w[2:] *= -1.0
        w[1, 16:] = rng.uniform(0.0, 2.0, size=16)
        x = rng.standard_normal((40, 32))
        _assert_bitwise(w, x, layout, grid=16, paths=paths)

    def test_constant_groups_and_zeroed_columns(self, paths):
        rng = make_rng(52)
        layout = GroupLayout(3, 64, 16)
        w = rng.standard_normal((3, 64))
        w[0, :16] = 0.5  # constant group
        w[1, 16:32] = 0.0  # all-zero group
        w[:, 40:44] = 0.0  # zeroed weight columns
        x = rng.standard_normal((32, 64))
        x[:, 5:9] = 0.0  # zeroed activation columns: singular Gram matrix
        x[:, 48:] = 0.0  # a zero Gram matrix: every candidate scores 0
        res = _assert_bitwise(w, x, layout, grid=8, paths=paths)
        assert res.degenerate_groups == [(0, 0), (1, 1)]

    def test_few_tokens_with_outlier_channels(self, paths):
        rng = make_rng(53)
        layout = GroupLayout(4, 64, 32)
        w = rng.laplace(0.0, 0.1, size=(4, 64))
        x = rng.standard_normal((5, 64))  # T=5 < G=32: rank-deficient
        x[:, [3, 17, 40, 63]] *= 1000.0
        _assert_bitwise(w, x, layout, grid=16, paths=paths)

    def test_subnormal_products(self, paths):
        # err^2 * gram falls below the normal range, where rounding errs
        # by an absolute amount and the margin's relative part is no bound.
        rng = make_rng(54)
        layout = GroupLayout(2, 32, 16)
        w = rng.laplace(0.0, 1e-155, size=(2, 32))
        x = rng.standard_normal((24, 32))
        _assert_bitwise(w, x, layout, grid=8, paths=paths)

    def test_overflowing_scores(self, paths):
        # With x = I a score is a plain sum of squared errors, and at 1e156
        # every one overflows to inf. So does ||err||^2, which makes every
        # margin inf: all candidates must reach the exact re-score, where the
        # all-inf tie goes to the widest range: rl = 0.5 in an all-positive group.
        rng = make_rng(56)
        layout = GroupLayout(2, 32, 16)
        w = rng.laplace(0.0, 1e156, size=(2, 32))
        w[1, 16:] = np.abs(w[1, 16:])
        with np.errstate(over="ignore", invalid="ignore"):
            res = _assert_bitwise(w, np.eye(32), layout, grid=8, paths=paths)
        assert np.isinf(res.objective).all()
        assert (res.ratio_lo[1, 1], res.ratio_hi[1, 1]) == (0.5, 1.0)

    def test_nan_scores_name_the_group(self, paths):
        # At 1e154 the squared errors overflow with terms of both signs, and
        # inf - inf is NaN: no candidate can be ranked. Only group (1, 1) is
        # left at that scale; the reference loop fails there too, without a name.
        rng = make_rng(56)
        layout = GroupLayout(2, 32, 16)
        w = rng.laplace(0.0, 1e154, size=(2, 32))
        x = rng.standard_normal((24, 32))
        w[0] *= 1e-154
        w[1, :16] *= 1e-154
        with np.errstate(over="ignore", invalid="ignore"):
            for kernel in paths:
                with pytest.raises(DataError, match=r"scores at \(row 1, group 1\) are NaN"):
                    _on(kernel, grid_search_clip, w, x, layout, ClipSearchConfig(grid=8))
            with pytest.raises(ValueError):
                _reference_search(w, x, layout, ClipSearchConfig(grid=8))

    @pytest.mark.parametrize("group", [4, 16, 128])
    @pytest.mark.parametrize("grid", [2, 8, 64])
    def test_grid_and_group_sizes(self, grid, group, paths):
        rng = make_rng(55, stream=grid * 1000 + group)
        layout = GroupLayout(2, 2 * group, group)
        w = rng.laplace(0.0, 0.02, size=(2, 2 * group))
        x = rng.standard_normal((group + 8, 2 * group))
        x[:, [0, group + 1]] *= 20.0
        _assert_bitwise(w, x, layout, grid=grid, paths=paths)

    def test_benchmark_layer_slice(self, paths):
        _assert_bitwise(*_benchmark_slice(), grid=64, paths=paths)


class TestNonFinite:
    """The search names a non-finite input before it scores a group, so the
    compiled scorer only ever sees finite values."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_weight_names_its_group(self, value, paths):
        rng = make_rng(59)
        w = rng.laplace(0.0, 0.1, size=(2, 32))
        w[1, 21] = value
        for kernel in paths:
            with pytest.raises(DataError, match=r"weights at \(row 1, group 1\) are not finite"):
                _on(kernel, grid_search_clip, w, rng.standard_normal((24, 32)), GroupLayout(2, 32, 16),
                    ClipSearchConfig(grid=8))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_activation_names_its_token_and_channel(self, value, paths):
        rng = make_rng(59)
        x = rng.standard_normal((24, 32))
        x[5, 17] = value
        for kernel in paths:
            with pytest.raises(DataError, match=r"activation at \(token 5, channel 17\) is not finite"):
                _on(kernel, grid_search_clip, rng.laplace(0.0, 0.1, size=(2, 32)), x, GroupLayout(2, 32, 16),
                    ClipSearchConfig(grid=8))


class TestRouting:
    @pytest.mark.parametrize("group, runs", [(12, False), (24, True)])
    def test_kernel_runs_on_multiples_of_8(self, kernel, group, runs):
        # The scorer takes whole blocks of 8 values: at G = 12 the search
        # never calls it and runs its numpy path, with the reference's bits.
        rng = make_rng(60, stream=group)
        layout = GroupLayout(2, 2 * group, group)
        w = rng.laplace(0.0, 0.1, size=(2, 2 * group))
        x = rng.standard_normal((24, 2 * group))
        cfg = ClipSearchConfig(grid=8)
        calls = []
        got = _on(lambda *args: calls.append(args) or kernel(*args), grid_search_clip, w, x, layout, cfg)
        _assert_same(got, _reference_search(w, x, layout, cfg))
        assert bool(calls) == runs


def _screened(err, gram):
    """``_screen`` of ``err`` against ``gram``, its operand as the numpy path builds it."""
    e, n = _screen_operand(err, np.empty(err.shape, np.float32))
    with np.errstate(over="ignore"):
        return _screen(e, n, _screen_gram(gram), np.empty_like(e))


def _float32_orders(err, gram):
    """The screen as float32 may sum it: each G-term dot product of ``e @ m``
    and of the row dot summed first to last, then last to first, each
    product rounded."""
    with np.errstate(over="ignore", invalid="ignore"):
        e = err.astype(np.float32)
        m = gram.astype(np.float32)
        out = []
        for order in (slice(None), slice(None, None, -1)):
            y = np.cumsum((e[:, :, None] * m[None])[:, order], axis=1, dtype=np.float32)[:, -1]
            row = np.cumsum((y * e)[:, order], axis=1, dtype=np.float32)[:, -1]
            out.append(row.astype(np.float64))
    return out


def _assert_bounded(err, gram, inf_ok=False):
    """Where ``_screen``'s margin is finite, and unless ``inf_ok`` that is
    everywhere, it bounds the distance from its screen, and from the screen
    summed in ``_float32_orders``, to the einsum and to every ``_term_sums``
    order. Returns ``(screen, margin, totals)``."""
    screen, margin = _screened(err, gram)
    assert inf_ok or np.isfinite(margin).all()
    totals = [np.einsum("pg,gk,pk->p", err, gram, err), *_term_sums(err, gram)]
    finite = margin < np.inf
    for score in [screen, *_float32_orders(err, gram)]:
        for total in totals:
            assert np.all(np.abs(score - total)[finite] <= margin[finite])
    return screen, margin, totals


def _spy_rescored(monkeypatch):
    """A list that gets the row count of each call of the reference einsum in ``calib``."""
    rows, einsum = [], np.einsum

    def spy(subscripts, *operands, **kwargs):
        if subscripts == "pg,gk,pk->p":
            rows.append(len(operands[0]))
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(calib.np, "einsum", spy)
    return rows


class TestScreenMargin:
    """``_screen``'s margin bounds the distance from its float32 score to the
    G*G terms summed in any order, the reference einsum's included."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log2_group=st.integers(2, 7),
        token_share=st.floats(0.01, 2.0),
        gain_exp=st.integers(0, 9),
        scale_exp=st.integers(-160, 2),
        err_shift=st.one_of(st.just(0), st.integers(-100, -40), st.integers(126, 150)),
        gram_shift=st.one_of(st.just(0), st.integers(-100, -20)),
    )
    def test_rank_deficient_and_outlier_grams(
        self, seed, log2_group, token_share, gain_exp, scale_exp, err_shift, gram_shift
    ):
        # err and gram are scaled by powers of two, exactly: to unit size, or
        # off it by the shifts, so that products fall below float32's normal
        # range or conversions overflow it, where the margin must be inf.
        g_dim = 2**log2_group
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((max(1, int(token_share * g_dim)), g_dim))
        x[:, rng.choice(g_dim, size=max(1, g_dim // 16), replace=False)] *= 10.0**gain_exp
        gram = x.T @ x
        group = rng.laplace(size=g_dim) * 10.0**scale_exp
        err = np.ldexp(_candidate_errors(group, grid=8), _unit_exponent(np.abs(group).max()) + err_shift)
        gram = np.ldexp(gram, _unit_exponent(np.abs(gram).max()) + gram_shift)
        _, margin, _ = _assert_bounded(err, gram, inf_ok=True)
        with np.errstate(over="ignore"):
            overflows = ~np.isfinite(err.astype(np.float32)).all(axis=1)
            overflows |= ~np.isfinite(gram.astype(np.float32)).all()
        assert np.all(margin[overflows] == np.inf)

    def test_absorbed_terms_need_the_squared_factor(self):
        # One term of 1 and G*G - 1 terms just under half its ulp (the
        # matrix is eta * 11^T + (1 - eta) * e0 e0^T, so a valid Gram
        # matrix). Summed largest first, every small term is absorbed;
        # smallest first keeps them. The einsum may use either order, and
        # the gap outgrows any margin linear in G.
        g_dim = 128
        eta = 0.45 * EPS / 2
        gram = np.full((g_dim, g_dim), eta)
        gram[0, 0] = 1.0
        err = np.ones((1, g_dim))
        sums = _assert_bounded(err, gram)[2][1:]
        assert sums[2][0] == 1.0
        gap = np.abs(sums[3] - sums[2])
        assert gap[0] > (2 * g_dim + 2) * EPS * (1.0 + (g_dim * g_dim - 1) * eta)

    @staticmethod
    def _absorbing(g_dim, eta):
        """err is (1, d, ..., d) and gram is [[1, c 1^T], [c 1, (c/d) 1 1^T]]
        with d = sqrt(G * eta) and c = eta/d, of rank 2 and positive
        semidefinite as eta <= 1: ||err||^2 ~ 1 and ||gram||_F ~ 1.4, and
        every term but the first is ~eta."""
        d = np.sqrt(g_dim * eta)
        gram = np.full((g_dim, g_dim), eta / d**2)
        gram[0, 1:] = gram[1:, 0] = eta / d
        gram[0, 0] = 1.0
        err = np.full((1, g_dim), d)
        err[0, 0] = 1.0
        return err, gram

    def test_frobenius_bound_needs_the_squared_factor(self):
        # The same absorption where the margin's F * N is as small as the
        # terms' sizes allow, so no margin linear in G covers the gap
        # between the largest-first and smallest-first orders.
        g_dim = 128
        err, gram = self._absorbing(g_dim, 0.45 * EPS / 2)
        sums = _assert_bounded(err, gram)[2][1:]
        assert sums[2][0] == 1.0
        gap = np.abs(sums[3] - sums[2])
        assert gap[0] > (2 * g_dim + 2) * EPS * _frobenius(gram) * np.sum(err**2)

    def test_float32_absorption_needs_the_linear_factor(self):
        # The same at a quarter of float32's ulp of 1, where every entry,
        # product and partial sum but the absorbed ones is exact: summed
        # first to last, e @ m loses the first column's G - 1 small terms,
        # so the float32 screen misses (G - 1) * eta, more than any float32
        # term without a factor G.
        g_dim = 128
        err, gram = self._absorbing(g_dim, 2.0**-25)
        _, _, totals = _assert_bounded(err, gram)
        gap = np.abs(_float32_orders(err, gram)[0] - totals[0])
        assert gap[0] > 8 * 2.0**-24 * _frobenius(gram) * np.sum(err**2)

    def test_products_below_the_normal_range(self):
        # err ~ 1e-161 against a Gram matrix ~ 20: each err_g * gram_gk is
        # normal, and times err_k it rounds in float64's subnormal range,
        # where the relative part of the margin underflows to 0 and only the
        # tiny part bounds the einsum. In float32, err rounds to 0, and the
        # margin's float32 absolute part bounds the screen.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((24, 16))
        gram = x.T @ x
        group = rng.laplace(size=16) * 1e-161
        err = _candidate_errors(group, grid=8)
        screen, margin, totals = _assert_bounded(err, gram)
        assert np.all((2 * 16 + 3) * 2.0**-24 * _frobenius(gram) * np.einsum("pk,pk->p", err, err) == 0.0)
        assert max(np.max(np.abs(screen - total)) for total in totals) > 0.0

    def test_float32_products_below_the_normal_range(self):
        # Scaled to ~2^-60 and ~2^-40, every float32 err_g * gram_gk * err_k
        # falls below float32's normal range and most round to 0: the screen
        # is off by far more than its relative part, and the absolute part bounds it.
        rng = np.random.default_rng(1)
        x = rng.standard_normal((24, 16))
        gram = np.ldexp(x.T @ x, -40)
        group = rng.laplace(size=16)
        err = np.ldexp(_candidate_errors(group, grid=8), _unit_exponent(np.abs(group).max()) - 60)
        screen, margin, totals = _assert_bounded(err, gram)
        rel = (2 * 16 + 3) * 2.0**-24 * _frobenius(gram) * np.einsum("pk,pk->p", err, err)
        assert np.any(np.abs(screen - totals[0]) > 2 * rel)

    def test_float32_conversion_overflow_has_no_bound(self):
        # A row past float32's range gets an inf margin; the others keep a
        # finite one.
        gram = np.eye(4)
        err = np.array([[1.0, -2.0, 0.5, 0.0], [2.0**130, 0.0, 0.0, 1.0]])
        screen, margin = _screened(err, gram)
        assert np.isfinite(margin[0]) and margin[1] == np.inf
        assert abs(screen[0] - 5.25) <= margin[0]
        _, margin = _screened(err[:1], gram * 2.0**130)  # the Gram's conversion overflows
        assert margin[0] == np.inf

    def test_no_bound_near_overflow(self):
        # Rows whose float32 product and partial sums could reach the float32
        # range get an inf margin, so the search re-scores them, although
        # their screen is still finite.
        gram = np.eye(4)
        err = np.array([[1.0, -2.0, 0.5, 0.0], [8e18, 0.0, 0.0, -8e18]])  # F = 2, N = 1.28e38
        screen, margin = _screened(err, gram)
        assert np.isfinite(screen).all()
        assert np.isfinite(margin[0]) and margin[1] == np.inf


    def test_benchmark_slice_rescores_few_candidates(self, paths, monkeypatch):
        # A margin that grew to keep everything would still give the
        # reference's bits, at ~110 ms per group. On this slice's 16 groups
        # x 4096 candidates the einsum re-scored 53 rows; the bound leaves
        # ~5x headroom for other BLAS kernels' float32 bits.
        rows = _spy_rescored(monkeypatch)
        for kernel in paths:
            rows.clear()
            written = []  # per call of the kernel's float64 mode, its candidates

            def scorer(*args):
                if args[7] is not None:  # err
                    written.append(args[6])
                return kernel(*args)

            _on(None if kernel is None else scorer, grid_search_clip, *_benchmark_slice(), ClipSearchConfig(grid=64))
            assert len(rows) == 16
            assert sum(rows) <= 256
            # the kernel makes float64 errors only for the rows the einsum re-scores
            assert written == (rows if kernel else [])

    @pytest.mark.parametrize("k, j", [(-40, -8), (-40, 8), (40, -8), (40, 8)])
    def test_powers_of_two_scale_the_search(self, k, j, paths, monkeypatch):
        # Weights times 2**k and activations times 2**j scale every error by
        # 2**k and every Gram by 2**(2j), exactly in float64 and in float32:
        # the picks and the re-scored rows stay, and the objectives scale by
        # 2**(2k + 2j). So scaling each group by a power of two before the
        # float32 cast would change nothing.
        w, x, layout = _benchmark_slice()
        cfg = ClipSearchConfig(grid=64)
        rows = _spy_rescored(monkeypatch)
        for kernel in paths:
            rows.clear()
            want = _on(kernel, grid_search_clip, w, x, layout, cfg)
            want_rows = list(rows)
            rows.clear()
            got = _on(kernel, grid_search_clip, np.ldexp(w, k), np.ldexp(x, j), layout, cfg)
            for name in ("lo_logit", "hi_logit", "ratio_lo", "ratio_hi"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            for name in ("objective", "no_clip_objective"):
                scaled = np.ldexp(getattr(want, name), 2 * k + 2 * j)
                assert getattr(got, name).tobytes() == scaled.tobytes(), name
            assert got.degenerate_groups == want.degenerate_groups
            assert rows == want_rows


def _scorer_group(rng, g_dim, data):
    """A group of kind ``data``, and the sides its clip bounds scale: the
    search's min and max."""
    group = rng.laplace(scale=rng.uniform(0.01, 10.0), size=g_dim)
    if data == "one_sign":  # lo = rl * min above hi = rh * max: np.clip gives hi
        group = np.abs(group) * rng.choice([-1.0, 1.0])
    elif data == "zeros":  # +0 and -0 among the values, maybe all of them
        hit = rng.random(g_dim) < rng.choice([0.3, 1.0])
        group[hit] = rng.choice([0.0, -0.0], hit.sum())
    elif data == "subnormal":
        group *= 1e-310
    elif data == "huge":  # the scale where the search's squared errors overflow
        group *= 10.0 ** rng.uniform(154, 156) / np.abs(group).max()
    return group, group.min(), group.max()


# The search sends the kernel finite groups only (TestNonFinite), and only
# groups of a multiple of 8 values (TestRouting).
_DATA = st.sampled_from(["laplace", "one_sign", "zeros", "subnormal", "huge"])


class TestCompiledScorer:
    # The hypothesis examples share the module's kernel fixture.
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        g_dim=st.sampled_from([8, 16, 24, 40, 128]),
        grid=st.integers(2, 64),
        data=_DATA,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bits_equal_numpy(self, kernel, g_dim, grid, data, seed):
        rng = make_rng(seed)
        group, lo_side, hi_side = _scorer_group(rng, g_dim, data)
        rl, rh = _candidate_ratios(ClipSearchConfig(grid=grid))
        lo, hi = rl * lo_side, rh * hi_side
        want_err, want_span = _scorer_outcome(None, group, lo, hi)
        err, span = _scorer_outcome(kernel, group, lo, hi)
        assert err.tobytes() == want_err.tobytes()
        # numpy's min and max may give either sign of a zero span
        np.testing.assert_array_equal(span, want_span)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        g_dim=st.sampled_from([8, 16, 24, 32, 40, 128]),
        grid=st.integers(2, 64),
        data=_DATA,
        # off unit size: float32 conversions that underflow or overflow
        shift=st.one_of(st.just(0), st.integers(-160, -120), st.integers(120, 160)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_float32_operand_equals_numpy(self, kernel, g_dim, grid, data, shift, seed):
        # The screen's operand from the kernel: e is numpy's float32 cast of
        # the errors bit for bit, and n is a float32 sum of e's squares,
        # within the bound the margin's proof takes for one.
        rng = make_rng(seed)
        group, lo_side, hi_side = _scorer_group(rng, g_dim, data)
        # the group scaled by a power of two to unit size, or off it by the
        # shift: float32 conversions that underflow or overflow
        a = min(max(_unit_exponent(float(np.abs(group).max())) + shift, -1074), 1023)
        group, lo_side, hi_side = (np.ldexp(v, a) for v in (group, lo_side, hi_side))
        rl, rh = _candidate_ratios(ClipSearchConfig(grid=grid))
        lo, hi = rl * lo_side, rh * hi_side
        err, want_span = _scorer_outcome(None, group, lo, hi)
        with np.errstate(all="ignore"):
            want = err.astype(np.float32)
        e, n, span = np.empty_like(want), np.empty(lo.size, dtype=np.float32), np.empty(lo.size)
        assert _call(kernel, group, lo, hi, None, e.ctypes.data, n.ctypes.data, span.ctypes.data) == 0
        assert e.tobytes() == want.tobytes()
        np.testing.assert_array_equal(span, want_span)

        nan = np.isnan(e).any(axis=1)
        assert np.isnan(n[nan]).all()
        # the exact sum of the squares, rounded once; inf where e holds an inf
        total = np.array([math.fsum(row) for row in e[~nan].astype(np.float64) ** 2])
        got = n[~nan].astype(np.float64)
        tiny = g_dim * float(np.finfo(np.float32).smallest_subnormal)
        gamma = 2 * g_dim * 2.0**-24 / (1 - 2 * g_dim * 2.0**-24)
        upper = (total + tiny) * (1 + gamma)
        assert np.all(total <= (got + tiny) * (1 + gamma))
        # a finite sum may round to inf only near float32's largest value
        assert np.all(np.where(np.isinf(got), upper >= np.finfo(np.float32).max, got <= upper))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(g_dim=st.sampled_from([8, 16, 24, 40, 128]), data=_DATA, seed=st.integers(0, 2**32 - 1))
    def test_subset_rows_equal_the_full_pass(self, kernel, g_dim, data, seed):
        # The search re-scores the kept candidates from a second call on their
        # bounds alone: each row must have the bits of the pass over all.
        rng = make_rng(seed)
        group, lo_side, hi_side = _scorer_group(rng, g_dim, data)
        rl, rh = _candidate_ratios(ClipSearchConfig(grid=16))
        lo, hi = rl * lo_side, rh * hi_side
        err, span = _scorer_outcome(kernel, group, lo, hi)
        cand = np.flatnonzero(rng.random(lo.size) < rng.choice([0.01, 0.2, 1.0]))
        sub, sub_span = _scorer_outcome(kernel, group, lo[cand], hi[cand])
        assert sub.tobytes() == err[cand].tobytes()
        assert sub_span.tobytes() == span[cand].tobytes()

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")
    def test_host_without_avx2_uses_numpy(self, fresh_kernel, monkeypatch):
        probes, calls = [], []
        monkeypatch.setattr(_native, "_has_avx2", lambda lib: probes.append(lib) or False)
        run = calib.asym_quant_dequant
        monkeypatch.setattr(calib, "asym_quant_dequant", lambda *a: calls.append(a) or run(*a))
        rng = make_rng(57)
        layout = GroupLayout(2, 32, 16)
        w = rng.laplace(0.0, 0.1, size=(2, 32))
        x = rng.standard_normal((24, 32))
        cfg = ClipSearchConfig(grid=8)
        want = _reference_search(w, x, layout, cfg)
        for _ in range(2):
            _assert_same(grid_search_clip(w, x, layout, cfg), want)
        assert len(probes) == 1  # the library built and loaded, and was probed once
        assert len(calls) == 8  # one per group and search: both ran the numpy path
        assert _native.path("clip") == "numpy"

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")
    @pytest.mark.usefixtures("kernel")  # skips where the CPU lacks AVX2
    def test_search_and_encoder_share_one_build(self, fresh_kernel, monkeypatch):
        builds = []
        run = _native.subprocess.run
        monkeypatch.setattr(_native.subprocess, "run", lambda cmd, **kw: builds.append(cmd) or run(cmd, **kw))
        rng = make_rng(58)
        layout = GroupLayout(2, 32, 16)
        search = grid_search_clip(rng.laplace(size=(2, 32)), rng.standard_normal((24, 32)), layout,
                                  ClipSearchConfig(grid=8))
        fake_quant(rng.laplace(size=(2, 2, 16)), ldp_init(search))
        assert len(builds) == 1  # one cc run serves both kernels
        [lib] = fresh_kernel.iterdir()
        assert re.fullmatch(r"quant-[0-9a-f]{16}\.so", lib.name)
        assert _native.path("clip") == _native.path("ldp") == "c"


class TestLdpInit:
    def _search(self, seed=45):
        rng = make_rng(seed)
        layout = GroupLayout(2, 32, 16)
        w = rng.standard_normal((2, 32))
        x = rng.standard_normal((32, 32))
        return w, layout, grid_search_clip(w, x, layout, ClipSearchConfig(grid=8))

    def test_split_logit_values(self):
        _, _, search = self._search()
        params = ldp_init(search)
        assert np.allclose(sigmoid(params.split1), 1 / 3, atol=1e-12)
        assert np.all(sigmoid(params.split2) == 0.5)

    def test_grids_at_init_are_uniform(self):
        w, layout, search = self._search()
        params = ldp_init(search)
        grids = derive_grids(layout.grouped(w), params)
        np.testing.assert_allclose(grids.levels[..., 1], 1 / 3, atol=1e-12)
        np.testing.assert_allclose(grids.levels[..., 2], 2 / 3, atol=1e-12)
        np.testing.assert_allclose(
            grids.thresholds, np.broadcast_to([1 / 6, 0.5, 5 / 6], grids.thresholds.shape),
            atol=1e-12,
        )

    def test_init_fake_quant_matches_uniform_2bit_same_clip(self):
        # With identical clip bounds and a group whose minimum is 0, both
        # level lattices anchor at 0, so the initialized partitioner and the
        # plain 2-bit asymmetric quantizer dequantize grid-aligned inputs to
        # the same values. (Off a shared lattice the two grids are shifted
        # by lo mod step and agreement is not claimed.)
        rng = make_rng(46)
        layout = GroupLayout(1, 16, 16)
        base = np.concatenate([[0.0, 3.0], rng.integers(0, 4, size=14)]).astype(np.float64)
        w = base[None, :]
        x = rng.standard_normal((32, 16))
        search = grid_search_clip(w, x, layout, ClipSearchConfig(grid=8))
        params = ldp_init(search)
        groups = layout.grouped(w)
        grids = derive_grids(groups, params)
        assert grids.lo[0, 0] == 0.0  # sigmoid(beta) * 0 anchors the lattice
        _, w_hat = fake_quant(groups, params)
        # Levels lie span/3 apart, so equal values within atol mean equal codes.
        udeq, _ = asym_quant_dequant(np.clip(groups, grids.lo[..., None], grids.hi[..., None]), bits=2)
        np.testing.assert_allclose(w_hat, udeq, atol=1e-9)

    def test_rejects_non_finite(self):
        _, _, search = self._search()
        search.lo_logit[0, 0] = np.inf
        with pytest.raises(ConfigError):
            ldp_init(search)
