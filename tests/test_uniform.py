"""Asymmetric group quantizer and the per-token activation path."""

import warnings

import numpy as np
import pytest

from rcpq.core import make_rng
from rcpq.errors import DataError, ZeroTokenError
from rcpq.uniform import ACT_CLIP_RATIO, asym_quant_dequant, quant_act_per_token


def _quant(group, bits):
    """(dequant, span) of one group."""
    return asym_quant_dequant(np.asarray(group, dtype=np.float64), bits)


def _step_and_zero(group, bits):
    """The documented step ``span / (2^bits - 1)`` and zero point ``-round(min/span)``."""
    span = group.max() - group.min()
    return span / ((1 << bits) - 1), -np.round(group.min() / span)


class TestQuantAsym:
    def test_grid_aligned_round_trip(self):
        deq, span = _quant([0.0, 1.0, 2.0, 3.0], 2)
        assert span == 3.0
        np.testing.assert_array_equal(deq, [0.0, 1.0, 2.0, 3.0])

    def test_ties_to_even_hand_case(self):
        # step 2, zero 0: -1/2 = -0.5 rounds to even, 0; -2/2 = -1 clips to code 0
        deq, span = _quant([-2.0, -1.0, 0.0, 4.0], 2)
        assert span == 6.0
        np.testing.assert_array_equal(deq, [0.0, 0.0, 0.0, 4.0])

    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    def test_error_bound_brute_force(self, bits):
        # For every unclipped value, |w - w_hat| <= step/2 exactly.
        rng = make_rng(10 + bits)
        for _ in range(1000 // 4):
            g = rng.normal(0, rng.uniform(0.1, 5.0), size=16)
            deq, _ = _quant(g, bits)
            step, zero = _step_and_zero(g, bits)
            raw = np.round(g / step) + zero
            unclipped = (raw >= 0) & (raw <= (1 << bits) - 1)
            assert np.all(np.abs(g - deq)[unclipped] <= step / 2 + 1e-12)

    def test_monotonicity(self):
        rng = make_rng(20)
        for _ in range(50):
            g = np.sort(rng.normal(size=32))
            deq, _ = _quant(g, 4)
            assert np.all(np.diff(deq) >= 0)

    def test_idempotence_grid_aligned(self):
        first, _ = _quant([0.0, 1.0, 2.0, 3.0], 2)
        second, _ = _quant(first, 2)
        np.testing.assert_array_equal(first, second)

    def test_codes_in_range(self):
        # Each value lands on one of the 2^bits levels (code - zero) * step,
        # code in {0..3}: inside the quantizer's range even where it clips.
        g = np.clip(make_rng(22).normal(size=128), -0.5, 0.5)
        deq, _ = _quant(g, 2)
        step, zero = _step_and_zero(g, 2)
        codes = deq / step + zero
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-9)
        assert codes.min() > -1e-9 and codes.max() < 3 + 1e-9
        assert len(np.unique(np.round(codes))) > 1

    def test_degenerate_group(self):
        deq, span = _quant(np.full(8, 2.5), 4)
        assert span == 0.0
        np.testing.assert_array_equal(deq, 2.5)

    def test_degenerate_after_clip(self):
        deq, span = _quant(np.clip([5.0, 6.0, 7.0], 1.0, 1.0), 4)
        assert span == 0.0
        np.testing.assert_array_equal(deq, 1.0)


class TestActQuant:
    def test_full_range_token(self):
        # The top 10% of max|x| clips: +9 lands past the top code 7 and -9
        # rounds onto -8, so the token spans the full int4 range.
        codes, scale = quant_act_per_token(np.array([[-9.0, 9.0]]))
        assert scale[0] == ACT_CLIP_RATIO * 9.0 / 7.0
        np.testing.assert_array_equal(codes, [[-8, 7]])

    def test_clipping_at_ratio(self):
        codes, scale = quant_act_per_token(np.array([[0.0, 10.0]]))
        assert scale[0] == pytest.approx(9.0 / 7.0)
        np.testing.assert_array_equal(codes, [[0, 7]])

    def test_zero_token_raises(self):
        with pytest.raises(ZeroTokenError):
            quant_act_per_token(np.zeros((1, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_token_raises(self, bad):
        # tokens 2 and 4 hold the value; token 3 is all zero, which is not named first
        x = make_rng(24).normal(size=(5, 8))
        x[3] = 0.0
        x[2, 5] = x[4, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way to the error
            with pytest.raises(DataError, match="non-finite activation in token 2"):
                quant_act_per_token(x)

    def test_codes_within_int4(self):
        x = make_rng(23).normal(0, 10, size=(16, 32))
        codes, _ = quant_act_per_token(x)
        assert codes.min() >= -8 and codes.max() <= 7
