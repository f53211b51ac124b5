"""LUT-decoding GEMV: reference, compiled and numpy fast paths, dense oracle."""

import dataclasses
import math
import shutil
import subprocess
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcpq import gemv
from rcpq.core import GroupLayout, make_rng
from rcpq.errors import ConfigError, DataError, ShapeError
from rcpq.gemv import GemvTask, bench_gemv, dense_oracle, gemv_fast, gemv_ref, random_activation
from rcpq.pack import (
    DequantLut,
    PackedActivations,
    PackedWeights,
    pack_activation_codes,
    pack_weight_codes,
    unpack_activation_codes,
    unpack_weight_codes,
)

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")


@pytest.fixture(scope="module")
def kernel(tmp_path_factory):
    """The kernel, built afresh: a compile or load error fails the test.

    Skips without ``cc``, or where the built library's probe finds no AVX2.
    """
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    lib = tmp_path_factory.mktemp("kernel") / "w2a4.so"
    gemv._build(gemv._KERNEL_SOURCE.read_bytes(), lib)
    built = gemv._open(lib)
    if built is None:
        pytest.skip("CPU without AVX2")
    return built


def make_task(rng, h, c, g, lut_values=None):
    layout = GroupLayout(h, c, g)
    codes = rng.integers(0, 4, size=(h, c))
    pw = pack_weight_codes(codes, layout)
    if lut_values is None:
        base = np.sort(rng.normal(0, 0.5, size=(h, layout.num_groups, 4)), axis=-1)
        base += np.linspace(0, 1e-3, 4)  # break ties so rows strictly increase
        lut = DequantLut(base.astype(np.float16))
    else:
        lut = DequantLut(lut_values)
    x_packed, scale = random_activation(rng, c)
    return GemvTask(x_packed=x_packed, scale=scale, weights=pw, lut=lut, layout=layout)


# float16 extremes, subnormals and signed zeros
SPECIALS = np.array([65504, -65504, 6e-8, -6e-8, 0.0, -0.0, 1e-5, -1.0, 1.0], dtype=np.float16)


def numpy_fast(task, tile=8):
    """``gemv_fast`` on its numpy tile loop: the spec the compiled kernel must match."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gemv, "_kernel_for", lambda layout: None)
        return gemv_fast(task, tile)


@pytest.fixture
def compiled_calls(monkeypatch):
    """Counts the calls that reach the compiled kernel."""
    calls = []
    run = gemv._row_sums_compiled

    def spy(kernel, task):
        calls.append(task.layout)
        return run(kernel, task)

    monkeypatch.setattr(gemv, "_row_sums_compiled", spy)
    return calls


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """An empty kernel cache directory, and a process that has not loaded the kernel."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    gemv._load_kernel.cache_clear()
    yield tmp_path / "cache" / "rcpq"
    gemv._load_kernel.cache_clear()


def rel_gap(a, b):
    return float(np.abs(np.asarray(a, np.float64) - np.asarray(b, np.float64)).max()) / max(
        float(np.abs(b).max()), 1e-30
    )


class TestGemvRef:
    def test_hand_case(self):
        layout = GroupLayout(1, 4, 4)
        # weight codes (3, 1, 0, 0); activation codes (1, 2, 0, 0); scale 1
        pw = pack_weight_codes(np.array([[3, 1, 0, 0]]), layout)
        lut = DequantLut(np.array([[[0.0, 0.25, 0.5, 1.0]]], dtype=np.float16))
        xp = pack_activation_codes(np.array([1, 2, 0, 0]))
        task = GemvTask(x_packed=xp, scale=1.0, weights=pw, lut=lut, layout=layout)
        # 1*1.0 + 2*0.25 + 0 + 0 = 1.5
        assert gemv_ref(task)[0] == pytest.approx(1.5)

    def test_zero_activations(self):
        layout = GroupLayout(3, 8, 4)
        rng = make_rng(60)
        task = make_task(rng, 3, 8, 4)
        task = GemvTask(
            x_packed=pack_activation_codes(np.zeros(8, dtype=np.int8)),
            scale=task.scale,
            weights=task.weights,
            lut=task.lut,
            layout=layout,
        )
        np.testing.assert_array_equal(gemv_ref(task), 0.0)

    def test_against_dense_oracle(self):
        rng = make_rng(61)
        for _ in range(100):
            g = int(rng.choice([4, 8, 16]))
            c = g * int(rng.integers(1, 9))
            h = int(rng.integers(1, 33))
            task = make_task(rng, h, c, g)
            assert rel_gap(gemv_ref(task), dense_oracle(task)) <= 1e-5

    def test_zero_lut(self):
        rng = make_rng(62)
        lut = np.zeros((4, 2, 4), dtype=np.float16)
        task = make_task(rng, 4, 16, 8, lut_values=lut)
        np.testing.assert_array_equal(dense_oracle(task), 0.0)
        np.testing.assert_array_equal(gemv_ref(task), 0.0)

    def test_integer_lut_matches_uniform_gemv(self):
        # LUT rows (0, 1, 2, 3) * step reproduce a plain integer-grid GEMV
        rng = make_rng(63)
        layout = GroupLayout(4, 32, 16)
        codes = rng.integers(0, 4, size=(4, 32))
        step = 0.25
        lut = DequantLut(
            np.broadcast_to(np.arange(4, dtype=np.float16) * step, (4, 2, 4)).copy()
        )
        pw = pack_weight_codes(codes, layout)
        xcodes = rng.integers(-8, 8, size=32).astype(np.int8)
        task = GemvTask(
            x_packed=pack_activation_codes(xcodes),
            scale=0.5,
            weights=pw,
            lut=lut,
            layout=layout,
        )
        expect = (codes.astype(np.float64) * step) @ (0.5 * xcodes.astype(np.float64))
        assert rel_gap(gemv_ref(task), expect) <= 1e-5


class TestGemvFast:
    def test_matches_ref_over_random_tasks(self):
        rng = make_rng(64)
        for _ in range(100):
            g = int(rng.choice([4, 8, 16, 32]))
            c = g * int(rng.integers(1, 9))
            h = int(rng.integers(1, 65))
            task = make_task(rng, h, c, g)
            assert rel_gap(gemv_fast(task, tile=2), gemv_ref(task)) <= 1e-5

    def test_bit_deterministic(self):
        rng = make_rng(65)
        task = make_task(rng, 64, 256, 32)
        a = gemv_fast(task, tile=8)
        b = gemv_fast(task, tile=8)
        assert a.tobytes() == b.tobytes()

    def test_tile_independent(self):
        rng = make_rng(66)
        task = make_task(rng, 48, 128, 32)
        base = gemv_fast(task, tile=2)
        for tile in (2, 4, 8, 16, 64):
            assert gemv_fast(task, tile=tile).tobytes() == base.tobytes()
            assert numpy_fast(task, tile=tile).tobytes() == base.tobytes()

    def test_linearity_in_scale(self):
        rng = make_rng(67)
        task = make_task(rng, 16, 64, 16)
        doubled = GemvTask(
            x_packed=task.x_packed,
            scale=task.scale * 2.0,
            weights=task.weights,
            lut=task.lut,
            layout=task.layout,
        )
        assert rel_gap(gemv_fast(doubled, 4), 2.0 * gemv_fast(task, 4).astype(np.float64)) <= 1e-5

    def test_invalid_tile(self):
        task = make_task(make_rng(68), 4, 16, 8)
        with pytest.raises(ConfigError):
            gemv_fast(task, tile=3)
        with pytest.raises(ConfigError):
            gemv_fast(task, tile=1)

    def test_decode_matches_unpack_spot_check(self):
        # every multiplied value equals LUT[h, c // G, code(h, c)]
        rng = make_rng(69)
        task = make_task(rng, 8, 32, 16)
        wcodes = unpack_weight_codes(task.weights)
        xcodes = unpack_activation_codes(task.x_packed)
        lut = task.lut.table.astype(np.float64)
        h = 5
        manual = sum(
            float(task.scale) * float(xcodes[cc]) * lut[h, cc // 16, wcodes[h, cc]]
            for cc in range(32)
        )
        assert abs(dense_oracle(task)[h] - manual) < 1e-12


class TestGemvTaskDtypes:
    @pytest.mark.parametrize("field", ["x_packed.data", "weights.data", "lut.table"])
    def test_wrong_dtype_rejected(self, field):
        task = make_task(make_rng(71), 4, 32, 8)
        wrong = {
            "x_packed.data": {"x_packed": PackedActivations(task.x_packed.data.astype(np.int16))},
            "weights.data": {"weights": PackedWeights(task.weights.data.astype(np.int32), task.layout)},
            "lut.table": {"lut": DequantLut(task.lut.table.astype(np.float32))},
        }[field]
        with pytest.raises(DataError, match=field):
            dataclasses.replace(task, **wrong)

    def test_mutated_task_fails_closed(self):
        # a task changed after construction is checked again before C reads it
        task = make_task(make_rng(72), 4, 32, 8)
        task.weights = PackedWeights(task.weights.data[:2], task.layout)
        with pytest.raises(ShapeError, match="do not match layout"):
            gemv_fast(task)


class TestCompiledKernel:
    @pytest.mark.usefixtures("kernel")
    def test_bit_identical_to_numpy_loop(self, compiled_calls):
        rng = make_rng(73)
        tasks = []
        for _ in range(200):
            g = 8 * int(rng.integers(1, 17))
            tasks.append(make_task(rng, int(rng.integers(1, 50)), g * int(rng.integers(1, 40)), g))
        # SPECIALS in the LUT; all-zero and all-negative activations
        for i in range(300):
            g = int(rng.choice([8, 24, 40, 96, 120, 128]))
            h, c = int(rng.integers(1, 20)), g * int(rng.integers(1, 9))
            lut = rng.choice(SPECIALS, size=(h, c // g, 4))
            task = make_task(rng, h, c, g, lut_values=lut)
            if i % 3:
                xcodes = np.zeros(c) if i % 3 == 1 else rng.integers(-8, 0, size=c)
                task = dataclasses.replace(task, x_packed=pack_activation_codes(xcodes.astype(np.int8)))
            tasks.append(task)
        for g in (4, 256, 2048 + 28):
            for _ in range(20):
                tasks.append(make_task(rng, int(rng.integers(1, 50)), g * int(rng.integers(1, 9)), g))
        for task in tasks:
            assert gemv_fast(task).tobytes() == numpy_fast(task).tobytes()
        assert len(compiled_calls) == len(tasks)

    @pytest.mark.parametrize("g", [2, 6])
    def test_uncovered_group_sizes_use_numpy(self, g, compiled_calls):
        task = make_task(make_rng(74), 6, 4 * g, g)
        assert rel_gap(gemv_fast(task), gemv_ref(task)) <= 1e-5
        assert gemv_fast(task).tobytes() == converted(python_row_sums(task), task.scale).tobytes()
        assert compiled_calls == []
        assert bench_gemv(task, iters=1)["kernel"] == "numpy"

    @needs_cc  # so the library builds here, and only the probe says no
    def test_host_without_avx2_uses_numpy(self, fresh_kernel, monkeypatch, compiled_calls):
        probes = []
        monkeypatch.setattr(gemv, "_has_avx2", lambda lib: probes.append(lib) or False)
        task = make_task(make_rng(80), 8, 256, 128)
        for _ in range(2):
            assert gemv_fast(task).tobytes() == converted(python_row_sums(task), task.scale).tobytes()
        assert len(probes) == 1  # the library built and loaded, and was probed once
        assert compiled_calls == []
        assert bench_gemv(task, iters=1)["kernel"] == "numpy"

    @pytest.mark.usefixtures("kernel")
    def test_builds_into_cache(self, fresh_kernel, compiled_calls):
        task = make_task(make_rng(75), 8, 64, 32)
        assert gemv_fast(task).tobytes() == numpy_fast(task).tobytes()
        assert compiled_calls
        assert [p.suffix for p in fresh_kernel.iterdir()] == [".so"]

    @pytest.mark.parametrize("failure", ["no compiler", "compile error", "load error"])
    def test_failed_build_falls_back(self, failure, fresh_kernel, monkeypatch, compiled_calls):
        builds = []
        run = subprocess.run

        def counted_run(cmd, **kwargs):
            builds.append(cmd)
            if failure == "no compiler":
                raise FileNotFoundError(cmd[0])
            return run(cmd, **kwargs)

        monkeypatch.setattr(gemv.subprocess, "run", counted_run)
        def failed_load(path):
            raise OSError(f"cannot load {path}")

        if failure == "compile error":
            monkeypatch.setattr(gemv, "_CFLAGS", gemv._CFLAGS + ("-include", "no-such-header.h"))
        if failure == "load error":
            monkeypatch.setattr(gemv.ctypes, "CDLL", failed_load)
        rng = make_rng(76)
        for _ in range(3):
            task = make_task(rng, 8, 256, 32)
            assert gemv_fast(task).tobytes() == numpy_fast(task).tobytes()
        assert compiled_calls == []
        assert len(builds) <= 1  # not retried per call
        assert not list(fresh_kernel.glob("*.tmp"))

    # The hypothesis examples share the module's kernel fixture.
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        g=st.sampled_from([4, 12, 28, 32, 64, 124, 128, 160, 256, 1024]),
        groups=st.integers(1, 3),
        rows=st.sampled_from([1, 2, 3, 5, 13]),
        lut_kind=st.sampled_from(["normal", "specials"]),
        all_negative=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernel_sums_equal_spec(self, kernel, g, groups, rows, lut_kind, all_negative, seed):
        rng = make_rng(seed)
        c = g * groups
        lut = rng.choice(SPECIALS, size=(rows, groups, 4)) if lut_kind == "specials" else None
        task = make_task(rng, rows, c, g, lut_values=lut)
        if all_negative:  # every |code| = 8: the largest bucket sums
            task = dataclasses.replace(task, x_packed=pack_activation_codes(np.full(c, -8, dtype=np.int8)))
        assert gemv._row_sums_compiled(kernel, task).tolist() == gemv._row_sums(task, 2).tolist()

    def test_bench_reports_kernel_and_bandwidth(self):
        task = make_task(make_rng(77), 16, 256, 32)
        bench = bench_gemv(task, iters=3)
        expect = "numpy" if gemv._load_kernel() is None else "c"
        assert bench["kernel"] == expect
        read = task.weights.data.nbytes + task.lut.table.nbytes + task.x_packed.data.nbytes
        assert bench["fast_gbytes_per_s"] == pytest.approx(read / bench["fast_ns_per_call"])


def python_row_sums(task):
    """Each row's sum of LUT entries in units of 2^-24 times activation codes, in Python ints."""
    lay = task.layout
    wcodes = unpack_weight_codes(task.weights).tolist()
    xcodes = unpack_activation_codes(task.x_packed).tolist()
    sums = []
    for h in range(lay.out_channels):
        total = 0
        for c in range(lay.in_channels):
            units = Fraction(float(task.lut.table[h, c // lay.group_size, wcodes[h][c]])) * 2**24
            assert units.denominator == 1
            total += units.numerator * xcodes[c]
        sums.append(total)
    return sums


def converted(sums, scale):
    """The contract's one rounding of each row sum."""
    return np.array([np.float32(math.ldexp(float(s), -24) * scale) for s in sums], dtype=np.float32)


def contract_tasks(group_sizes):
    rng = make_rng(78)
    tasks = []
    for _ in range(40):
        g = int(rng.choice(group_sizes))
        h, c = int(rng.integers(1, 9)), 2 * g * int(rng.integers(1, 5))
        tasks.append(make_task(rng, h, c, g, lut_values=rng.choice(SPECIALS, size=(h, c // g, 4))))
    return tasks


def widest_task():
    """2^20 input channels, every term 65504 * -8: the largest |S_h| the contract admits.

    Weight code 3 sets both bit planes everywhere, so the kernel's narrow
    plane sums are as large as they get and must be widened in time; only
    code 3's LUT entry is non-zero, so a wrong split into buckets shows.
    """
    c = 2**20
    layout = GroupLayout(1, c, c)
    return GemvTask(
        x_packed=pack_activation_codes(np.full(c, -8, dtype=np.int8)),
        scale=1.0,
        weights=pack_weight_codes(np.full((1, c), 3, dtype=np.uint8), layout),
        lut=DequantLut(np.array([[[0, 0, 0, -65504]]], dtype=np.float16)),
        layout=layout,
    )


class TestExactContract:
    """``S_h`` is an exact integer, and ``gemv_fast`` is ``float32(ldexp(S_h, -24) * scale)``."""

    def test_numpy_row_sums(self):
        for task in contract_tasks([2, 4, 6, 8, 32]):
            sums = python_row_sums(task)
            assert gemv._row_sums(task, 2).tolist() == sums
            assert numpy_fast(task).tobytes() == converted(sums, task.scale).tobytes()

    def test_kernel_row_sums(self, kernel, compiled_calls):
        tasks = contract_tasks([4, 8, 32, 128])
        for task in tasks:
            sums = python_row_sums(task)
            assert gemv._row_sums_compiled(kernel, task).tolist() == sums
            assert gemv_fast(task).tobytes() == converted(sums, task.scale).tobytes()
        assert len(compiled_calls) == 2 * len(tasks)

    @pytest.mark.parametrize("path", ["numpy", "kernel"])
    def test_widest_sum_is_exact(self, path, compiled_calls, request):
        task = widest_task()
        if path == "numpy":
            sums, out = gemv._row_sums(task, 2), numpy_fast(task)
        else:
            sums, out = gemv._row_sums_compiled(request.getfixturevalue("kernel"), task), gemv_fast(task)
        assert sums.tolist() == [65504 * 8 * 2**20 * 2**24]  # 2^63 - 2^52
        assert out.tolist() == [65504 * 8 * 2**20]
        assert len(compiled_calls) == (0 if path == "numpy" else 2)

    def test_too_many_input_channels(self):
        c = 2**20 + 4
        layout = GroupLayout(1, c, c)
        task = GemvTask(
            x_packed=PackedActivations(np.zeros(c // 2, dtype=np.int8)),
            scale=1.0,
            weights=PackedWeights(np.zeros((1, c // 4), dtype=np.uint8), layout),
            lut=DequantLut(np.zeros((1, 1, 4), dtype=np.float16)),
            layout=layout,
        )
        with pytest.raises(ShapeError, match="exceed 2\\^20"):
            gemv_fast(task)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_lut_entry_is_named(self, bad):
        task = make_task(make_rng(79), 12, 64, 16)
        table = task.lut.table.copy()
        table[11, 0, 3] = bad
        table[9, 2, 1] = bad
        task.lut = DequantLut(table)
        for run in (gemv_fast, numpy_fast):
            with pytest.raises(DataError, match=r"LUT at \(row 9, group 2\) is not finite"):
                run(task, 4)


class TestDenseOracle:
    def test_mutual_consistency_many_tasks(self):
        rng = make_rng(70)
        for _ in range(200):
            g = int(rng.choice([4, 8]))
            c = g * int(rng.integers(1, 5))
            h = int(rng.integers(1, 17))
            task = make_task(rng, h, c, g)
            assert rel_gap(gemv_ref(task), dense_oracle(task)) <= 1e-5
