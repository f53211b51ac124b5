"""Clip-ratio grid search and quantizer initialization."""

import numpy as np
import pytest

from rcpq.calib import RATIO_MAX, RATIO_MIN, ClipSearchConfig, grid_search_clip, ldp_init
from rcpq.core import GroupLayout, make_rng
from rcpq.errors import ConfigError
from rcpq.ldp import derive_grids, fake_quant, sigmoid
from rcpq.uniform import asym_quant_dequant, quant_asym


def _objective(group, x_group, ratio_lo, ratio_hi, bits=2):
    """Independent re-evaluation of the search objective for one candidate."""
    lo = ratio_lo * group.min()
    hi = ratio_hi * group.max()
    clipped = np.clip(group, lo, hi)
    r = quant_asym(group, bits=bits, clip_lo=lo, clip_hi=hi)
    err = r.dequantize() - clipped
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
