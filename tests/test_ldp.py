"""Partition grids, fake quantization, exact gradients, NF3 variant."""

import shutil
import subprocess
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcpq import _native, ldp
from rcpq.core import GroupLayout, make_rng
from rcpq.errors import DegenerateGroupError, InvalidRangeError
from rcpq.ldp import (
    UNIFORM_SIDE_GRID,
    LdpParams,
    Nf3Params,
    derive_grids,
    encode_codes,
    fake_quant,
    grads,
    logit,
    nf3_fake_quant,
    sigmoid,
    uniform_split_logits,
)
from rcpq.pipeline import encode
from rcpq.uniform import asym_quant_dequant

SAT = 20.0  # saturated clip logits: sigmoid(20) ~ 1 - 2e-9


def _uniform_params() -> LdpParams:
    s1, s2 = uniform_split_logits()
    return LdpParams(SAT, SAT, s1, s2)


class TestDeriveGrids:
    def test_uniform_init(self):
        g = derive_grids(np.array([-1.0, 1.0]), _uniform_params())
        np.testing.assert_allclose(g.shares, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
        np.testing.assert_allclose(g.thresholds, [1 / 6, 1 / 2, 5 / 6], atol=1e-12)
        np.testing.assert_allclose(g.levels, [0, 1 / 3, 2 / 3, 1], atol=1e-12)

    def test_zero_split_logits(self):
        g = derive_grids(np.array([-1.0, 1.0]), LdpParams(SAT, SAT, 0.0, 0.0))
        np.testing.assert_allclose(g.shares, [0.5, 0.25, 0.25], atol=1e-15)
        np.testing.assert_allclose(g.thresholds, [0.25, 0.625, 0.875], atol=1e-15)
        np.testing.assert_allclose(g.levels, [0.0, 0.4375, 0.75, 1.0], atol=1e-15)

    def test_saturated_clip_limits(self):
        g = derive_grids(np.array([-1.0, 1.0]), _uniform_params())
        assert g.lo == pytest.approx(-1.0, abs=1e-8)
        assert g.hi == pytest.approx(1.0, abs=1e-8)
        assert g.span == pytest.approx(2.0, abs=1e-8)

    def test_invalid_range_all_positive_group(self):
        # min > 0 with a harsh low-side clip pushes lo above hi.
        with pytest.raises(InvalidRangeError):
            derive_grids(np.array([5.0, 5.1]), LdpParams(SAT, -SAT, 0.0, 0.0))

    def test_property_sweep(self):
        # Simplex sum, strict ordering, endpoint identities on 1e5 draws.
        rng = make_rng(30)
        n = 100_000
        params = LdpParams(
            rng.uniform(-20, 20, n),
            rng.uniform(-20, 20, n),
            rng.uniform(-20, 20, n),
            rng.uniform(-20, 20, n),
        )
        groups = np.stack([np.full(n, -1.5), np.full(n, 2.0)], axis=-1)
        g = derive_grids(groups, params)
        assert np.max(np.abs(g.shares.sum(axis=-1) - 1.0)) < 1e-12
        assert np.all(np.diff(g.thresholds, axis=-1) > 0)
        assert np.all(np.diff(g.levels, axis=-1) > 0)
        # t3 < 1 holds exactly in reals; at +/-20 logits the last share is
        # ~4e-18 and t3 rounds to 1.0 in float64, so the bound is one ulp.
        assert np.all(g.thresholds[..., 0] > 0) and np.all(g.thresholds[..., -1] <= 1.0)
        assert np.all(g.levels[..., 0] == 0.0) and np.all(g.levels[..., -1] == 1.0)
        assert np.all(g.lo + g.span == g.hi)


class TestFakeQuant:
    def test_center_value_uniform_grids(self):
        codes, w_hat = fake_quant(np.array([-1.0, 0.0, 1.0]), _uniform_params())
        np.testing.assert_array_equal(codes, [0, 2, 3])
        assert w_hat[1] == pytest.approx(1 / 3, abs=1e-8)

    def test_endpoints_exact(self):
        rng = make_rng(31)
        for _ in range(20):
            group = rng.normal(size=16)
            group[0] = group.min() - 1.0
            group[1] = group.max() + 1.0
            p = LdpParams(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.normal(), rng.normal())
            g = derive_grids(group, p)
            codes, w_hat = fake_quant(group, p)
            below = group <= g.lo
            above = group >= g.hi
            assert np.all(codes[below] == 0) and np.all(w_hat[below] == g.lo)
            assert np.all(codes[above] == 3) and np.all(w_hat[above] == g.hi)

    def test_threshold_tie_goes_up(self):
        # A value exactly at a threshold takes the upper bin: u(0) = 1.
        # Anchor min and max so the probe value does not move the range;
        # lo = 0 and span * 0.5 / span round-trip exactly in binary64.
        p = _uniform_params()
        g = derive_grids(np.array([0.0, 1.0]), p)
        v_at_t2 = g.lo + g.span * g.thresholds[1]
        codes, _ = fake_quant(np.array([0.0, v_at_t2, 1.0]), p)
        assert codes[1] == 2

    def test_monotone_codes(self):
        rng = make_rng(32)
        for _ in range(50):
            group = np.sort(rng.normal(size=64))
            p = LdpParams(rng.uniform(-4, 4), rng.uniform(-4, 4), rng.normal(), rng.normal())
            codes, _ = fake_quant(group, p)
            assert np.all(np.diff(codes.astype(int)) >= 0)

    def test_uniform_init_matches_2bit_asym_on_grid(self):
        # With saturated clips and uniform thirds, levels coincide with the
        # integer grid codes/3, so grid-aligned inputs dequantize identically.
        group = np.array([0.0, 1.0, 2.0, 3.0])
        _, w_hat = fake_quant(group, _uniform_params())
        # Levels lie span/3 apart, so equal values within atol mean equal codes.
        ref_w_hat, _ = asym_quant_dequant(group, 2)
        np.testing.assert_allclose(w_hat, ref_w_hat, atol=1e-7)

    def test_broadcast_batched_groups(self):
        rng = make_rng(33)
        groups = rng.normal(size=(5, 3, 8))
        params = LdpParams(
            rng.uniform(-2, 2, (5, 3)),
            rng.uniform(-2, 2, (5, 3)),
            rng.normal(size=(5, 3)),
            rng.normal(size=(5, 3)),
        )
        codes, w_hat = fake_quant(groups, params)
        assert codes.shape == (5, 3, 8) and w_hat.shape == (5, 3, 8)
        # each cell matches the scalar path
        c0, w0 = fake_quant(groups[2, 1], LdpParams(
            params.lo_logit[2, 1], params.hi_logit[2, 1],
            params.split1[2, 1], params.split2[2, 1]))
        np.testing.assert_array_equal(codes[2, 1], c0)
        np.testing.assert_array_equal(w_hat[2, 1], w0)

    def test_scalar_params_broadcast_over_stacked_groups(self):
        groups = make_rng(35).normal(size=(5, 3, 8))
        p = LdpParams(1.5, 2.0, -0.3, 0.4)
        codes, w_hat = fake_quant(groups, p)
        assert codes.shape == w_hat.shape == (5, 3, 8)
        c0, w0 = fake_quant(groups[4, 2], p)
        np.testing.assert_array_equal(codes[4, 2], c0)
        np.testing.assert_array_equal(w_hat[4, 2], w0)


def _fake_quant_reference(groups, params):
    """The per-element rule: a (..., G, 3) threshold count, then ``lo + span * level``."""
    g = np.asarray(groups, dtype=np.float64)
    grids = derive_grids(g, params)
    v = np.clip((g - grids.lo[..., None]) / grids.span[..., None], 0.0, 1.0)
    codes = (v[..., None] >= grids.thresholds[..., None, :]).sum(axis=-1).astype(np.uint8)
    picked = np.take_along_axis(grids.levels, codes.astype(np.int64), axis=-1)
    return codes, grids.lo[..., None] + grids.span[..., None] * picked


def _sweep_logits(rng, shape):
    """Logits in [-6, 6], a quarter of them saturated at +/-800.

    ``hi_logit`` saturates only upwards: with both clip logits at -800 the
    range is empty and ``derive_grids`` raises.
    """
    fields = []
    for extremes in ([-800.0, 800.0], [800.0], [-800.0, 800.0], [-800.0, 800.0]):
        x = rng.uniform(-6.0, 6.0, shape)
        fields.append(np.where(rng.random(shape) < 0.25, rng.choice(extremes, shape), x))
    return LdpParams(*fields)


class TestSharedTable:
    def test_matches_per_element_reference(self):
        rng = make_rng(36)
        for case in range(300):
            size = int(rng.choice([2, 4, 16, 128]))
            batch = [(), (3,), (4, 5)][case % 3]
            groups = rng.normal(size=batch + (size,)) * rng.uniform(0.01, 10.0)
            groups[..., 0] = -np.abs(groups[..., 0]) - 0.1  # min < 0 < max keeps the range open
            groups[..., -1] = np.abs(groups[..., -1]) + 0.1
            groups = groups.astype([np.float32, np.float64][case % 2])
            params = _sweep_logits(rng, batch)
            codes, w_hat = fake_quant(groups, params)
            ref_codes, ref_w_hat = _fake_quant_reference(groups, params)
            assert codes.dtype == ref_codes.dtype and codes.tobytes() == ref_codes.tobytes()
            assert w_hat.dtype == ref_w_hat.dtype and w_hat.shape == ref_w_hat.shape
            assert w_hat.tobytes() == ref_w_hat.tobytes(), f"case {case}"

    def test_underflowed_threshold_counts_for_clipped_values(self):
        # split1 = -800 underflows t1 to 0; values below lo clip to v = 0,
        # which counts it, so they take code 1, as lo itself does.
        group = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        p = LdpParams(-3.0, -3.0, -800.0, 800.0)
        assert derive_grids(group, p).thresholds[0] == 0.0
        codes, w_hat = fake_quant(group, p)
        np.testing.assert_array_equal(codes, [1, 1, 2, 3, 3])
        ref_codes, ref_w_hat = _fake_quant_reference(group, p)
        assert codes.tobytes() == ref_codes.tobytes()
        assert w_hat.tobytes() == ref_w_hat.tobytes()

    def test_values_are_the_table_gathered_at_the_codes(self):
        rng = make_rng(37)
        groups = rng.laplace(size=(6, 4, 32))
        params = LdpParams(*[rng.uniform(-4, 4, (6, 4)) for _ in range(4)])
        codes, w_hat = fake_quant(groups, params)
        table = derive_grids(groups, params).table
        assert table.shape == (6, 4, 4)
        gathered = table[np.arange(6)[:, None, None], np.arange(4)[None, :, None], codes]
        assert w_hat.tobytes() == gathered.tobytes()

    def test_transient_memory_bound(self):
        # Per element: v, the uint8 codes and a bool compare buffer; v is
        # freed before the gathered values are made. ~1.4x the input.
        rng = make_rng(38)
        groups = rng.normal(size=(512, 8, 128))
        params = LdpParams(*[rng.uniform(-3, 3, (512, 8)) for _ in range(4)])
        tracemalloc.start()
        try:
            fake_quant(groups, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * groups.nbytes


def _fake_quant_whole_array(groups, params):
    """``fake_quant`` written with whole-array temporaries and a (..., G, 3)
    threshold compare: the reference its in-place buffers must reproduce."""
    g = np.asarray(groups, dtype=np.float64)
    grids = derive_grids(g, params)
    v = np.clip((g - grids.lo[..., None]) / grids.span[..., None], 0.0, 1.0)
    codes = (v[..., None] >= grids.thresholds[..., None, :]).sum(axis=-1, dtype=np.uint8)
    return codes, np.take_along_axis(grids.table, codes, axis=-1)


class TestInPlace:
    @staticmethod
    def _assert_same_bits(groups, params):
        codes, values = fake_quant(groups, params)
        ref_codes, ref_values = _fake_quant_whole_array(groups, params)
        for got, ref in ((codes, ref_codes), (values, ref_values)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
        return codes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_saturated_and_clipped_groups(self, dtype):
        rng = make_rng(39)
        groups = rng.laplace(scale=0.02, size=(64, 8, 128)).astype(dtype)
        params = _sweep_logits(rng, (64, 8))
        grids = derive_grids(groups, params)
        assert np.any(grids.thresholds[..., 0] == 0.0)  # split1 = -800 underflows t1
        assert np.any(groups < grids.lo[..., None]) and np.any(groups > grids.hi[..., None])
        self._assert_same_bits(groups, params)

    def test_values_on_thresholds(self):
        # Clip logits of 800 give lo = 0 and span = 1 on [0, 1] groups, so
        # v = w: each threshold and the float just below it are probed exactly.
        rng = make_rng(40)
        params = LdpParams(800.0, 800.0, rng.uniform(-3, 3, 16), rng.uniform(-3, 3, 16))
        t = derive_grids(np.array([0.0, 1.0]), params).thresholds
        below = np.nextafter(t, -np.inf)
        groups = np.concatenate([np.zeros((16, 1)), t, below, np.ones((16, 1))], axis=-1)
        codes = self._assert_same_bits(groups, params)
        np.testing.assert_array_equal(codes[:, 1:4], np.broadcast_to([1, 2, 3], (16, 3)))
        np.testing.assert_array_equal(codes[:, 4:7], np.broadcast_to([0, 1, 2], (16, 3)))

    @pytest.mark.parametrize("logits", [(1.5, 2.0, -0.3, 0.4), (1.0, 1.0, -800.0, 800.0),
                                        (-800.0, 800.0, 800.0, -800.0)])
    def test_scalar_params_over_one_group(self, logits):
        group = make_rng(41).laplace(size=64)
        codes = self._assert_same_bits(group, LdpParams(*logits))
        assert codes.shape == (64,)


@pytest.fixture(scope="module")
def kernel(build_kernel):
    """The LDP encoder, built afresh (see ``conftest.build_kernel``)."""
    return build_kernel("ldp")


def _on(kernel, fn, *args):
    """``fn(*args)`` with ``kernel`` as the process's LDP encoder (None: the numpy path)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "kernel", lambda name: kernel)
        return fn(*args)


def _outcome(fn, *args):
    """Codes and values as (dtype, shape, bytes), or the InvalidRangeError's message."""
    try:
        with np.errstate(invalid="ignore"):  # NaN and inf groups
            out = fn(*args)
    except InvalidRangeError as exc:
        return str(exc)
    return [(a.dtype, a.shape, a.tobytes()) for a in (out if isinstance(out, tuple) else (out,))]


@pytest.fixture
def numpy_calls(monkeypatch):
    """Counts the calls that run the numpy encoder."""
    calls = []
    run = ldp._fake_quant_numpy
    monkeypatch.setattr(ldp, "_fake_quant_numpy", lambda *a: calls.append(a) or run(*a))
    return calls


SPECIAL_VALUES = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")


class TestCompiledEncoder:
    # The hypothesis examples share the module's kernel fixture.
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        g=st.sampled_from([1, 2, 3, 4, 5, 7, 16, 31, 33, 128]),
        shapes=st.sampled_from([((), ()), ((1,), ()), ((3,), (3,)), ((3,), ()), ((2, 5), (2, 5)),
                                ((2, 5), (5,)), ((2, 5), (2, 1)), ((4,), (2, 4))]),
        dtype=st.sampled_from([np.float32, np.float64]),
        data=st.sampled_from(["laplace", "specials", "one_sign", "thresholds"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bits_equal_numpy(self, kernel, g, shapes, dtype, data, seed):
        # groups (*batch, g) and params of shape ``pshape``; the last case
        # broadcasts the groups up to the params.
        batch, pshape = shapes
        rng = make_rng(seed)
        params = _sweep_logits(rng, pshape)
        groups = rng.laplace(scale=rng.uniform(0.01, 10.0), size=batch + (g,))
        if data == "specials":  # NaN, +-inf and +-0 in about a third of the groups
            hit = rng.random(groups.shape) < rng.choice([0.05, 0.5]) * (rng.random(batch + (1,)) < 0.3)
            groups = np.where(hit, rng.choice(SPECIAL_VALUES, groups.shape), groups)
        elif data == "one_sign":  # lo above hi in some groups: InvalidRangeError
            groups = np.abs(groups) * rng.choice([-1.0, 1.0])
        elif data == "thresholds":  # lo = 0 and span = 1, so v = w: on and just below each threshold
            params.lo_logit = np.full(pshape, 800.0)
            params.hi_logit = np.full(pshape, 800.0)
            t = derive_grids(np.array([0.0, 1.0]), params).thresholds
            t = np.broadcast_to(t, np.broadcast_shapes(batch, pshape) + (3,))
            picks = np.concatenate([t, np.nextafter(t, -np.inf), np.zeros_like(t[..., :1]),
                                    np.ones_like(t[..., :1])], axis=-1)
            groups = np.take_along_axis(picks, rng.integers(0, 8, t.shape[:-1] + (g,)), axis=-1)
            groups[..., :1] = 0.0
            groups[..., -1:] = 1.0
        groups = groups.astype(dtype)
        want = _outcome(_on, None, fake_quant, groups, params)
        assert _outcome(_on, kernel, fake_quant, groups, params) == want
        codes_only = _outcome(_on, kernel, encode_codes, groups, params)
        assert codes_only == (want if isinstance(want, str) else want[:1])

    def test_error_names_the_first_flat_group(self, kernel):
        groups = np.ones((3, 4, 8))
        groups[..., 0] = -1.0
        groups[1, 2] = 2.0  # all positive: lo = 1.98 > hi = 0.2
        groups[2, 0] = 2.0
        params = LdpParams(SAT, -2.2, 0.0, 0.0)
        for k in (None, kernel):
            with pytest.raises(InvalidRangeError, match=r"at group index \(1, 2\)$"):
                _on(k, fake_quant, groups, params)

    def test_empty_groups_use_numpy(self, kernel, numpy_calls):
        p = _uniform_params()
        assert _on(kernel, fake_quant, np.empty((0, 4)), p)[0].shape == (0, 4)
        with pytest.raises(ValueError):
            _on(kernel, fake_quant, np.empty((2, 0)), p)
        assert len(numpy_calls) == 2

    def test_uncovered_group_size_uses_numpy(self, kernel, numpy_calls):
        # The encoder takes whole blocks of 4 values: at G = 6 fake_quant runs the reference.
        groups = make_rng(47).laplace(size=(3, 6))
        got = _outcome(_on, kernel, fake_quant, groups, _uniform_params())
        assert len(numpy_calls) == 1
        assert got == _outcome(_on, None, fake_quant, groups, _uniform_params())

    @needs_cc  # so the library builds here, and only the probe says no
    def test_host_without_avx2_uses_numpy(self, fresh_kernel, monkeypatch, numpy_calls):
        probes = []
        monkeypatch.setattr(_native, "_has_avx2", lambda lib: probes.append(lib) or False)
        groups = make_rng(42).laplace(size=(8, 4, 16))
        params = _sweep_logits(make_rng(43), (8, 4))
        for _ in range(2):
            assert _outcome(fake_quant, groups, params) == _outcome(_on, None, fake_quant, groups, params)
        assert len(probes) == 1  # the library built and loaded, and was probed once
        assert len(numpy_calls) == 4  # fake_quant's and the reference's, twice
        assert _native.path("ldp") == "numpy"

    @pytest.mark.usefixtures("kernel")
    def test_builds_into_cache(self, fresh_kernel, numpy_calls):
        groups = make_rng(44).laplace(size=(8, 4, 16))
        codes, _ = fake_quant(groups, _uniform_params())
        assert codes.shape == (8, 4, 16) and numpy_calls == []
        assert [p.name.split("-")[0] for p in fresh_kernel.iterdir()] == ["quant"]
        assert _native.path("ldp") == "c"

    @pytest.mark.parametrize("failure", ["no compiler", "compile error", "load error"])
    def test_failed_build_falls_back(self, failure, fresh_kernel, monkeypatch, numpy_calls):
        builds = []
        run = subprocess.run

        def counted_run(cmd, **kwargs):
            builds.append(cmd)
            if failure == "no compiler":
                raise FileNotFoundError(cmd[0])
            return run(cmd, **kwargs)

        def failed_load(path):
            raise OSError(f"cannot load {path}")

        monkeypatch.setattr(_native.subprocess, "run", counted_run)
        if failure == "compile error":
            monkeypatch.setattr(_native, "_CFLAGS", _native._CFLAGS + ("-include", "no-such-header.h"))
        if failure == "load error":
            monkeypatch.setattr(_native.ctypes, "CDLL", failed_load)
        rng = make_rng(45)
        for _ in range(3):
            groups = rng.laplace(size=(8, 4, 16))
            params = _sweep_logits(rng, (8, 4))
            assert _outcome(fake_quant, groups, params) == _outcome(_on, None, fake_quant, groups, params)
        assert len(numpy_calls) == 6  # fake_quant's and the reference's, three times
        assert len(builds) <= 1  # not retried per call
        assert not list(fresh_kernel.glob("*.tmp"))
        assert _native.path("ldp") == "numpy"

    def test_encode_makes_no_values(self, kernel):
        # A float32 2048x4096 layer: encode holds the float64 copy of the
        # layer (64 MiB), the codes (8 MiB) and ~6 MiB of per-group grids,
        # 78 MiB measured. The values fake_quant makes would add 64 MiB;
        # with them, and the numpy encoder's temporaries, it peaked at 153 MiB.
        rng = make_rng(46)
        layout = GroupLayout(2048, 4096, 128)
        w = rng.laplace(scale=0.02, size=(2048, 4096)).astype(np.float32)
        params = LdpParams(*[rng.uniform(-4, 4, (2048, 32)) for _ in range(4)])
        tracemalloc.start()
        try:
            _on(kernel, encode, w, layout, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 80 * 2**20


def _fd_param_grads(group, vals, up, eps=1e-4):
    """Central differences of <up, fake_quant(...)> per parameter."""
    out = []
    for k in range(4):
        shifted = []
        for sign in (+1, -1):
            v = list(vals)
            v[k] += sign * eps
            _, w = fake_quant(group, LdpParams(*v))
            shifted.append(float((w * up).sum()))
        out.append((shifted[0] - shifted[1]) / (2 * eps))
    return out


def _codes_stable(group, vals, eps=1e-4):
    base, _ = fake_quant(group, LdpParams(*vals))
    for k in range(4):
        for sign in (+1, -1):
            v = list(vals)
            v[k] += sign * eps
            c, _ = fake_quant(group, LdpParams(*v))
            if not np.array_equal(c, base):
                return False
    return True


class TestGrads:
    def test_zero_upstream(self):
        group = make_rng(34).normal(size=8)
        p = _uniform_params()
        out = grads(group, p, fake_quant(group, p)[0], np.zeros(8))
        for g in out:
            assert np.all(np.asarray(g) == 0.0)

    def test_codes_shape_must_match_groups(self):
        group = make_rng(36).normal(size=8)
        p = _uniform_params()
        codes, _ = fake_quant(group, p)
        with pytest.raises(ValueError, match=r"codes \(7,\) does not match groups \(8,\)"):
            grads(group, p, codes[:7], np.zeros(8))

    @pytest.mark.parametrize("dtype, bad", [(np.uint8, 4), (np.uint8, 255), (np.int8, -1), (np.int64, -4)])
    def test_codes_outside_range_name_the_first_group(self, dtype, bad):
        # The flat gather would read a neighbouring group's level for these.
        groups = make_rng(37).normal(size=(3, 4, 8))
        groups[..., 0], groups[..., 1] = -3.0, 3.0
        p = LdpParams(*[np.zeros((3, 4))] * 4)
        codes = fake_quant(groups, p)[0].astype(dtype)
        codes[2, 1, 5] = bad
        codes[1, 3, 7] = bad
        with pytest.raises(ValueError, match=r"^codes outside 0\.\.3 at group index \(1, 3\)$"):
            grads(groups, p, codes, np.ones_like(groups))
        with pytest.raises(ValueError, match=r"at group index \(\)$"):  # one group, no batch axes
            grads(groups[1, 3], LdpParams(0.0, 0.0, 0.0, 0.0), codes[1, 3], np.ones(8))

    def test_code_zero_element_closed_form(self):
        # A min-clipped element: hi-side gradient vanishes, lo-side gradient
        # is upstream * sigmoid'(lo_logit) * min(group).
        group = np.array([-2.0, -1.0, 0.5, 1.0])
        p = LdpParams(0.3, 0.7, -0.2, 0.4)
        up = np.array([1.7, 0.0, 0.0, 0.0])  # only the min element
        codes, _ = fake_quant(group, p)
        assert codes[0] == 0
        _, d_lo, d_hi, _, _ = grads(group, p, codes, up)
        s = sigmoid(0.3)
        assert d_hi == pytest.approx(0.0, abs=1e-15)
        assert d_lo == pytest.approx(1.7 * s * (1 - s) * group.min(), rel=1e-12)

    def test_finite_difference_oracle(self):
        rng = make_rng(35)
        checked = 0
        max_rel = 0.0
        while checked < 100:
            group = rng.normal(size=16)
            group[0] -= 2.0
            group[1] += 2.0
            vals = [rng.uniform(-2, 2), rng.uniform(-2, 2), rng.normal(), rng.normal()]
            if not _codes_stable(group, vals):
                continue
            up = rng.normal(size=16)
            p = LdpParams(*vals)
            _, *analytic = grads(group, p, fake_quant(group, p)[0], up)
            fd = _fd_param_grads(group, vals, up)
            for a, f in zip(analytic, fd):
                rel = abs(a - f) / max(abs(f), abs(a), 1e-8)
                max_rel = max(max_rel, rel)
            checked += 1
        assert max_rel <= 1e-4

    def test_clipped_ste_weight_gradient(self):
        group = np.array([-5.0, -0.1, 0.1, 5.0])
        p = LdpParams(-1.0, -1.0, 0.0, 0.0)  # heavy clipping
        g = derive_grids(group, p)
        up = np.ones(4)
        d_group, *_ = grads(group, p, fake_quant(group, p)[0], up)
        inside = (group >= g.lo) & (group <= g.hi)
        np.testing.assert_array_equal(d_group, np.where(inside, 1.0, 0.0))


@pytest.fixture(scope="module")
def grads_kernel(build_kernel):
    """The LDP backward pass, built afresh (see ``conftest.build_kernel``)."""
    return build_kernel("ldp_grads")


@pytest.fixture
def numpy_grads(monkeypatch):
    """Counts the calls that run the numpy backward pass."""
    calls = []
    run = ldp._grads_numpy
    monkeypatch.setattr(ldp, "_grads_numpy", lambda *a: calls.append(a) or run(*a))
    return calls


def _backward(fn, *args):
    """``fn(*args)``'s outputs as (dtype, shape, bytes), or its error's type and message."""
    try:
        with np.errstate(all="ignore"):  # overflows, and NaN or inf values
            out = fn(*args)
    except (ValueError, InvalidRangeError) as exc:
        return type(exc).__name__, str(exc)
    return [(a.dtype, a.shape, a.tobytes()) for a in out]


def _grads_on(kernel, *args):
    """``_backward`` of ``grads`` with ``kernel`` as the backward pass (None: the numpy path)."""
    return _backward(_on, kernel, grads, *args)


def _backward_case(rng, rows, g, data="laplace"):
    """Groups, params, uint8 codes and upstream for a (rows, g) backward call.

    Each row's groups and upstream are scaled by their own powers of ten in
    [1e-300, 1e300], so products overflow and underflow in some rows.
    """
    scale = 10.0 ** rng.uniform(-300.0, 300.0, (2, rows, 1))
    groups = rng.laplace(size=(rows, g)) * scale[0]
    upstream = rng.standard_normal((rows, g)) * scale[1]
    if data == "one_sign":  # lo above hi in some groups: InvalidRangeError
        groups = np.abs(groups) * rng.choice([-1.0, 1.0], (rows, 1))
    elif data == "zeros":  # a min or max of +0 or -0
        groups = np.abs(groups) * rng.choice([-1.0, 1.0], (rows, 1))
        hit = rng.random(groups.shape) < 0.3
        groups = np.where(hit, rng.choice([0.0, -0.0], groups.shape), groups)
    codes = rng.integers(0, 4, (rows, g)).astype(np.uint8)
    return groups, _sweep_logits(rng, (rows,)), codes, upstream


class TestCompiledGrads:
    # G = 4 takes numpy's short sum, 12 its eight accumulators and a tail,
    # 136 and 256 its halving; the hypothesis examples share the module's kernel.
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        g=st.sampled_from([4, 8, 12, 16, 64, 128, 132, 136, 256, 516]),
        rows=st.integers(0, 12),
        data=st.sampled_from(["laplace", "one_sign", "zeros"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bits_equal_numpy(self, grads_kernel, g, rows, data, seed):
        args = _backward_case(make_rng(seed), rows, g, data)
        assert _grads_on(grads_kernel, *args) == _grads_on(None, *args)

    def test_covered_call_runs_the_kernel(self, grads_kernel, numpy_grads):
        # train_toy's shape, with the forward pass's codes
        rng = make_rng(48)
        groups = rng.laplace(size=(320, 16))
        params = _sweep_logits(rng, (320,))
        args = (groups, params, fake_quant(groups, params)[0], rng.standard_normal((320, 16)))
        got = _grads_on(grads_kernel, *args)
        assert numpy_grads == []
        assert got == _grads_on(None, *args)

    def test_errors_match_numpy(self, grads_kernel):
        groups = np.ones((6, 8))
        groups[:, 0] = -1.0
        groups[[2, 4]] = 2.0  # all positive: lo = 1.98 > hi = 0.2
        bad_range = LdpParams(*[np.full(6, v) for v in (SAT, -2.2, 0.0, 0.0)])
        fine = LdpParams(*[np.zeros(6)] * 4)
        codes = np.zeros((6, 8), dtype=np.uint8)
        stray = codes.copy()
        stray[3, 5] = stray[5, 0] = 4
        up = np.ones((6, 8))
        cases = [
            ((groups, fine, codes[:5], up), "codes (5, 8) does not match groups (6, 8)"),
            ((groups, fine, codes, up[:, :7]), "upstream (6, 7) does not match groups (6, 8)"),
            ((groups, fine, stray, up), "codes outside 0..3 at group index (3,)"),
            ((groups, bad_range, codes, up), "clip logits give non-positive range at group index (2,)"),
            # a stray code outranks an earlier group's bad range
            ((groups, bad_range, stray, up), "codes outside 0..3 at group index (3,)"),
        ]
        for args, message in cases:
            got = _grads_on(grads_kernel, *args)
            assert got == _grads_on(None, *args)
            assert got[1] == message

    @pytest.mark.parametrize("case", ["nan group", "inf group", "nan upstream", "inf upstream", "nan logit",
                                      "int64 codes", "broadcast params", "scalar params", "one group",
                                      "stacked groups", "uncovered group size"])
    def test_uncovered_calls_use_numpy(self, grads_kernel, numpy_grads, case):
        rng = make_rng(49)
        shape = (5, 6 if case == "uncovered group size" else 8)
        groups, upstream = rng.laplace(size=shape), rng.standard_normal(shape)
        params = _sweep_logits(rng, shape[:1])
        codes = rng.integers(0, 4, shape).astype(np.uint8)

        def each_field(fn):
            return LdpParams(*[fn(getattr(params, f)) for f in ("lo_logit", "hi_logit", "split1", "split2")])

        if case.startswith(("nan", "inf")):
            value = np.nan if case.startswith("nan") else -np.inf
            if case.endswith("logit"):
                params.split2[1] = value
            else:
                (groups if case.endswith("group") else upstream)[3, 2] = value
        elif case == "int64 codes":
            codes = codes.astype(np.int64)
        elif case == "broadcast params":
            params = each_field(lambda f: f[:1])
        elif case == "scalar params":
            params = LdpParams(1.5, 2.0, -0.3, 0.4)
        elif case == "one group":
            groups, params, codes, upstream = groups[0], LdpParams(1.5, 2.0, -0.3, 0.4), codes[0], upstream[0]
        elif case == "stacked groups":
            groups, codes, upstream = (a.reshape(5, 1, -1) for a in (groups, codes, upstream))
            params = each_field(lambda f: f[:, None])
        got = _grads_on(grads_kernel, groups, params, codes, upstream)
        assert len(numpy_grads) == 1
        assert got == _grads_on(None, groups, params, codes, upstream)

    @needs_cc  # so the library builds here, and only the probe says no
    def test_host_without_avx2_uses_numpy(self, fresh_kernel, monkeypatch, numpy_grads):
        monkeypatch.setattr(_native, "_has_avx2", lambda lib: False)
        args = _backward_case(make_rng(50), 8, 16)
        assert _backward(grads, *args) == _grads_on(None, *args)
        assert len(numpy_grads) == 2
        assert _native.path("ldp_grads") == "numpy"

    @pytest.mark.parametrize("failure", ["no compiler", "compile error"])
    def test_failed_build_falls_back(self, failure, fresh_kernel, monkeypatch, numpy_grads):
        def no_compiler(cmd, **kwargs):
            raise FileNotFoundError(cmd[0])

        if failure == "no compiler":
            monkeypatch.setattr(_native.subprocess, "run", no_compiler)
        else:
            monkeypatch.setattr(_native, "_CFLAGS", _native._CFLAGS + ("-include", "no-such-header.h"))
        rng = make_rng(51)
        for _ in range(2):
            args = _backward_case(rng, 8, 16)
            assert _backward(grads, *args) == _grads_on(None, *args)
        assert len(numpy_grads) == 4  # grads' and the reference's, twice
        assert not list(fresh_kernel.glob("*.tmp"))
        assert _native.path("ldp_grads") == "numpy"


@pytest.fixture(scope="module", params=["c", "numpy"])
def encoder(request):
    """The LDP encoder of each path: the compiled kernel, or None for numpy."""
    return request.getfixturevalue("kernel") if request.param == "c" else None


class TestStackedGroups:
    # Training quantizes every layer in one call on the layers' groups
    # stacked along the group axis; that is only the per-layer result if no
    # group's bits depend on the groups around it.
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        rows=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        g=st.sampled_from([2, 3, 5, 8, 16, 33]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_calls_match_separate_calls(self, encoder, rows, g, seed):
        rng = make_rng(seed)
        parts = []
        for r in rows:
            groups = rng.laplace(scale=rng.uniform(0.01, 10.0), size=(r, g))
            groups[:, 0] = -np.abs(groups[:, 0]) - 0.5  # min < 0 < max: every range is valid
            groups[:, -1] = np.abs(groups[:, -1]) + 0.5
            parts.append((groups, _sweep_logits(rng, (r,)), rng.standard_normal((r, g))))
        fields = ("lo_logit", "hi_logit", "split1", "split2")
        groups = np.concatenate([part[0] for part in parts])
        params = LdpParams(*[np.concatenate([getattr(part[1], f) for part in parts]) for f in fields])
        upstream = np.concatenate([part[2] for part in parts])

        def run(groups, params, upstream):
            codes, values = _on(encoder, fake_quant, groups, params)
            return [codes, values, *grads(groups, params, codes, upstream)]

        separate = [run(*part) for part in parts]
        for got, *pieces in zip(run(groups, params, upstream), *separate):
            want = np.concatenate(pieces)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


class TestNf3:
    def test_center_fixed_point(self):
        p = Nf3Params(2.0, 2.0, 0.3)
        lo = sigmoid(2.0) * -2.0
        span = sigmoid(2.0) * 2.0 - lo
        center = lo + span * sigmoid(0.3)
        codes, w_hat = nf3_fake_quant(np.array([center, -2.0, 2.0]), p)
        assert codes[0] == 0
        assert w_hat[0] == center

    def test_endpoints_map_to_clip(self):
        p = Nf3Params(1.0, 1.5, -0.2)
        group = np.array([-3.0, 1.0, 4.0])
        codes, w_hat = nf3_fake_quant(group, p)
        lo = sigmoid(1.0) * -3.0
        hi = lo + (sigmoid(1.5) * 4.0 - lo)
        assert codes[0] == -3 and codes[-1] == 3
        assert w_hat[0] == pytest.approx(lo, rel=1e-12)
        assert w_hat[-1] == pytest.approx(hi, rel=1e-12)

    def test_round_trip_error_bound_exhaustive(self):
        # 1e4-value scan: error <= half the local level gap on each side.
        p = Nf3Params(SAT, SAT, 0.0)
        group = np.linspace(-1.0, 1.0, 10_000)
        codes, w_hat = nf3_fake_quant(group, p)
        lo, hi, center = -1.0, 1.0, 0.0
        gaps = np.diff(UNIFORM_SIDE_GRID)
        scale = np.where(group > center, hi - center, center - lo)
        normalized = np.abs(group - center) / scale
        chosen = UNIFORM_SIDE_GRID[np.abs(codes)]
        assert np.all(np.abs(normalized - chosen) <= gaps.max() / 2 + 1e-12)
        assert np.max(np.abs(w_hat - group)) <= gaps.max() / 2 * scale.max() + 1e-12

    def test_degenerate_side_raises(self):
        with pytest.raises(DegenerateGroupError):
            nf3_fake_quant(np.array([-1.0, 1.0]), Nf3Params(5.0, 5.0, 50.0))


def _two_branch_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 5e-324, -5e-324, np.nan, 20.0, -20.0, 0.3, -0.3]


class TestLogitSigmoid:
    @pytest.mark.parametrize("v", _SIGMOID_EDGES)
    def test_bits_equal_two_branch_formula(self, v):
        want = _two_branch_sigmoid(np.array([v]))
        got = sigmoid(np.array([v]))
        assert got.tobytes() == want.tobytes()
        scalar = sigmoid(v)
        assert type(scalar) is float
        assert np.float64(scalar).tobytes() == want[0].tobytes()

    def test_bits_equal_two_branch_formula_on_arrays(self):
        x = np.concatenate([_SIGMOID_EDGES, make_rng(4).standard_normal(987) * 40]).reshape(-1, 8)
        assert sigmoid(x).tobytes() == _two_branch_sigmoid(x).tobytes()

    def test_inverse_pair(self):
        x = np.linspace(-15, 15, 101)
        np.testing.assert_allclose(logit(sigmoid(x)), x, atol=1e-9)

    def test_uniform_split_values(self):
        s1, s2 = uniform_split_logits()
        assert sigmoid(s1) == pytest.approx(1 / 3, abs=1e-12)
        assert sigmoid(s2) == 0.5
