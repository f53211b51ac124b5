"""Clip-ratio grid search and quantizer initialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcpq.calib import (
    BITS,
    RATIO_MAX,
    RATIO_MIN,
    ClipSearchConfig,
    ClipSearchResult,
    _candidate_ratios,
    _screen,
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
            _, deq, _, _, span = asym_quant_dequant(clipped, None, None, BITS)
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


def _assert_bitwise(w, x, layout, grid):
    """``grid_search_clip`` equals the reference bit for bit."""
    cfg = ClipSearchConfig(grid=grid)
    got = grid_search_clip(w, x, layout, cfg)
    want = _reference_search(w, x, layout, cfg)
    for name in ("lo_logit", "hi_logit", "ratio_lo", "ratio_hi", "objective", "no_clip_objective"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert got.degenerate_groups == want.degenerate_groups
    return got


def _candidate_errors(group, grid):
    """``dequant - clipped`` of every grid candidate, built as the search does."""
    rl, rh = _candidate_ratios(ClipSearchConfig(grid=grid))
    clipped = np.clip(group[None, :], (rl * group.min())[:, None], (rh * group.max())[:, None])
    _, deq, *_ = asym_quant_dequant(clipped, None, None, BITS)
    return deq - clipped


def _term_sums(err, gram):
    """Per row of ``err``, the G*G terms ``err_g * gram_gk * err_k`` summed
    one after another in row-major, column-major, largest-first and
    smallest-first order: orders the einsum is free to use."""
    terms = err[:, :, None] * gram[None] * err[:, None, :]
    flat = terms.reshape(len(err), -1)
    by_size = np.take_along_axis(flat, np.argsort(-np.abs(flat), axis=1, kind="stable"), axis=1)
    orders = (flat, terms.transpose(0, 2, 1).reshape(len(err), -1), by_size, by_size[:, ::-1])
    return [np.cumsum(o, axis=1)[:, -1] for o in orders]


def _objective(group, x_group, ratio_lo, ratio_hi, bits=2):
    """Independent re-evaluation of the search objective for one candidate."""
    lo = ratio_lo * group.min()
    hi = ratio_hi * group.max()
    clipped = np.clip(group, lo, hi)
    _, deq, *_ = asym_quant_dequant(group, lo, hi, bits)
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
    """Bit for bit against ``_reference_search`` on inputs that stress the
    screen: exact ties, collapsed candidates, rank-deficient Gram matrices."""

    def test_grid_aligned_integer_weights(self):
        # Lattice weights quantize without error under many clip pairs, so
        # whole rows and columns of the candidate grid tie exactly.
        rng = make_rng(50)
        layout = GroupLayout(6, 64, 16)
        w = rng.integers(0, 4, size=(6, 64)).astype(np.float64)
        w[3:] -= rng.integers(0, 4, size=(3, 64))
        w[:, ::16] = 0.0
        w[:, 1::16] = 3.0
        x = rng.standard_normal((48, 64))
        _assert_bitwise(w, x, layout, grid=16)

    def test_single_sign_groups(self):
        # lo = rl * min can exceed hi = rh * max, where np.clip returns hi:
        # such candidates collapse to span 0, which the reference scores inf.
        rng = make_rng(51)
        layout = GroupLayout(4, 32, 16)
        w = rng.uniform(1.0, 1.3, size=(4, 32))
        w[2:] *= -1.0
        w[1, 16:] = rng.uniform(0.0, 2.0, size=16)
        x = rng.standard_normal((40, 32))
        _assert_bitwise(w, x, layout, grid=16)

    def test_constant_groups_and_zeroed_columns(self):
        rng = make_rng(52)
        layout = GroupLayout(3, 64, 16)
        w = rng.standard_normal((3, 64))
        w[0, :16] = 0.5  # constant group
        w[1, 16:32] = 0.0  # all-zero group
        w[:, 40:44] = 0.0  # zeroed weight columns
        x = rng.standard_normal((32, 64))
        x[:, 5:9] = 0.0  # zeroed activation columns: singular Gram matrix
        x[:, 48:] = 0.0  # a zero Gram matrix: every candidate scores 0
        res = _assert_bitwise(w, x, layout, grid=8)
        assert res.degenerate_groups == [(0, 0), (1, 1)]

    def test_few_tokens_with_outlier_channels(self):
        rng = make_rng(53)
        layout = GroupLayout(4, 64, 32)
        w = rng.laplace(0.0, 0.1, size=(4, 64))
        x = rng.standard_normal((5, 64))  # T=5 < G=32: rank-deficient
        x[:, [3, 17, 40, 63]] *= 1000.0
        _assert_bitwise(w, x, layout, grid=16)

    def test_subnormal_products(self):
        # err^2 * gram falls below the normal range, where rounding errs
        # by an absolute amount and the margin's relative part is no bound.
        rng = make_rng(54)
        layout = GroupLayout(2, 32, 16)
        w = rng.laplace(0.0, 1e-155, size=(2, 32))
        x = rng.standard_normal((24, 32))
        _assert_bitwise(w, x, layout, grid=8)

    def test_overflowing_scores(self):
        # With x = I a score is a plain sum of squared errors, and at 1e156
        # every one overflows to inf. The screen's inf - inf is NaN, so all
        # candidates must reach the exact re-score, where the all-inf tie
        # goes to the widest range: rl = 0.5 in an all-positive group.
        rng = make_rng(56)
        layout = GroupLayout(2, 32, 16)
        w = rng.laplace(0.0, 1e156, size=(2, 32))
        w[1, 16:] = np.abs(w[1, 16:])
        with np.errstate(over="ignore", invalid="ignore"):
            res = _assert_bitwise(w, np.eye(32), layout, grid=8)
        assert np.isinf(res.objective).all()
        assert (res.ratio_lo[1, 1], res.ratio_hi[1, 1]) == (0.5, 1.0)

    def test_nan_scores_name_the_group(self):
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
            with pytest.raises(DataError, match=r"scores at \(row 1, group 1\) are NaN"):
                grid_search_clip(w, x, layout, ClipSearchConfig(grid=8))
            with pytest.raises(ValueError):
                _reference_search(w, x, layout, ClipSearchConfig(grid=8))

    @pytest.mark.parametrize("group", [4, 16, 128])
    @pytest.mark.parametrize("grid", [2, 8, 64])
    def test_grid_and_group_sizes(self, grid, group):
        rng = make_rng(55, stream=grid * 1000 + group)
        layout = GroupLayout(2, 2 * group, group)
        w = rng.laplace(0.0, 0.02, size=(2, 2 * group))
        x = rng.standard_normal((group + 8, 2 * group))
        x[:, [0, group + 1]] *= 20.0
        _assert_bitwise(w, x, layout, grid=grid)

    def test_benchmark_layer_slice(self):
        # The quantize benchmark's first layer at seed 913: a Laplace 2x1024
        # slice, 256 calibration tokens with 8 outlier channels at x20,
        # --rotate 7, --group 128, --grid 64. Generators as the benchmark's.
        seed = 913
        outliers = np.random.default_rng([seed, 7]).choice(1024, size=8, replace=False)
        x = np.random.default_rng([seed, 0]).standard_normal((256, 1024), dtype=np.float32)
        x[:, outliers] *= 20.0
        w = np.random.default_rng([seed, 2, 0]).laplace(scale=0.02, size=(2, 1024)).astype(np.float32)
        w_r, x_r = rotate(w, x, 7)
        _assert_bitwise(w_r, x_r, GroupLayout(2, 1024, 128), grid=64)


class TestScreenMargin:
    """``_screen``'s margin bounds the distance from its BLAS score to the
    G*G terms summed in any order, the reference einsum's included."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log2_group=st.integers(2, 7),
        token_share=st.floats(0.01, 2.0),
        gain_exp=st.integers(0, 9),
        scale_exp=st.integers(-160, 2),
    )
    def test_rank_deficient_and_outlier_grams(self, seed, log2_group, token_share, gain_exp, scale_exp):
        g_dim = 2**log2_group
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((max(1, int(token_share * g_dim)), g_dim))
        x[:, rng.choice(g_dim, size=max(1, g_dim // 16), replace=False)] *= 10.0**gain_exp
        gram = x.T @ x
        err = _candidate_errors(rng.laplace(size=g_dim) * 10.0**scale_exp, grid=8)
        screen, margin = _screen(err, gram, np.empty_like(err))
        for total in [np.einsum("pg,gk,pk->p", err, gram, err), *_term_sums(err, gram)]:
            assert np.all(np.abs(screen - total) <= margin)

    def test_absorbed_terms_need_the_squared_factor(self):
        # One term of 1 and G*G - 1 terms just under half its ulp (the
        # matrix is eta * 11^T + (1 - eta) * e0 e0^T, so a valid Gram
        # matrix). Summed largest first, every small term is absorbed; the
        # screen keeps them. The gap outgrows any margin linear in G.
        g_dim = 128
        eta = 0.45 * EPS / 2
        gram = np.full((g_dim, g_dim), eta)
        gram[0, 0] = 1.0
        err = np.ones((1, g_dim))
        screen, margin = _screen(err, gram, np.empty_like(err))
        sums = _term_sums(err, gram)
        assert sums[2][0] == 1.0
        gap = np.abs(screen - sums[2])
        assert gap[0] > (2 * g_dim + 2) * EPS * (1.0 + (g_dim * g_dim - 1) * eta)
        for total in [np.einsum("pg,gk,pk->p", err, gram, err), *sums]:
            assert np.all(np.abs(screen - total) <= margin)


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
        codes, w_hat = fake_quant(groups, params)
        ucodes, udeq, _, _, _ = asym_quant_dequant(groups, grids.lo, grids.hi, bits=2)
        np.testing.assert_array_equal(codes, ucodes)
        np.testing.assert_allclose(w_hat, udeq, atol=1e-9)

    def test_rejects_non_finite(self):
        _, _, search = self._search()
        search.lo_logit[0, 0] = np.inf
        with pytest.raises(ConfigError):
            ldp_init(search)
