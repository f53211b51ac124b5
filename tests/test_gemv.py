"""LUT-decoding GEMV: the spec (``gemv_ref``), the compiled kernel behind ``gemv_fast``, dense oracle."""

import dataclasses
import math
import re
import shutil
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcpq import _native, gemv
from rcpq.core import GroupLayout, make_rng
from rcpq.errors import ConfigError, DataError, ShapeError
from rcpq.gemv import GemvTask, bench_gemv, dense_oracle, gemv_fast, gemv_ref, random_activation
from rcpq.ldp import LdpParams, uniform_split_logits
from rcpq.pack import (
    DequantLut,
    PackedActivations,
    PackedWeights,
    build_lut,
    pack_activation_codes,
    pack_weight_codes,
    read_rcpq,
    unpack_activation_codes,
    unpack_weight_codes,
    write_rcpq,
)

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")


@pytest.fixture(scope="module")
def kernel(build_kernel):
    """The GEMV kernel, built afresh (see ``conftest.build_kernel``)."""
    return build_kernel("w2a4")


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
        # G = 2 and 6 run the spec in gemv_fast too; the rest run the kernel where it builds
        rng = make_rng(64)
        for _ in range(100):
            g = int(rng.choice([2, 4, 6, 8, 16, 32, 64, 128, 256, 2076]))
            c = g * 2 * int(rng.integers(1, 5))  # a multiple of 4
            h = int(rng.integers(1, 65))
            task = make_task(rng, h, c, g)
            assert gemv_fast(task, tile=2).tobytes() == gemv_ref(task).tobytes()

    def test_bit_deterministic(self):
        rng = make_rng(65)
        task = make_task(rng, 64, 256, 32)
        a = gemv_fast(task, tile=8)
        b = gemv_fast(task, tile=8)
        assert a.tobytes() == b.tobytes()

    def test_tile_independent(self):
        rng = make_rng(66)
        for g in (32, 6):  # the kernel's group size, where it builds, and the spec's
            task = make_task(rng, 48, 4 * g, g)
            base = gemv_ref(task)
            for tile in (2, 4, 8, 16, 64):
                assert gemv_fast(task, tile=tile).tobytes() == base.tobytes()

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
        for run in (gemv_fast, gemv_ref):
            with pytest.raises(ShapeError, match="do not match layout"):
                run(task)

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_scale_not_finite_and_positive_rejected(self, scale):
        task = make_task(make_rng(81), 4, 32, 8)
        with pytest.raises(DataError, match="scale must be finite and > 0"):
            dataclasses.replace(task, scale=scale)
        task.scale = scale  # replaced after construction
        for run in (gemv_fast, gemv_ref):
            with pytest.raises(DataError, match="scale must be finite and > 0"):
                run(task)


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
            assert gemv_fast(task).tobytes() == gemv_ref(task).tobytes()
        assert len(compiled_calls) == len(tasks)

    @pytest.mark.parametrize("g", [2, 6])
    def test_uncovered_group_sizes_use_numpy(self, g, compiled_calls):
        task = make_task(make_rng(74), 6, 4 * g, g)
        assert gemv_fast(task).tobytes() == gemv_ref(task).tobytes()
        assert gemv_fast(task).tobytes() == converted(python_row_sums(task), task.scale).tobytes()
        assert compiled_calls == []
        assert bench_gemv(task, iters=1)["kernel"] == "numpy"

    @needs_cc  # so the library builds here, and only the probe says no
    def test_host_without_avx2_uses_numpy(self, fresh_kernel, monkeypatch, compiled_calls):
        probes = []
        monkeypatch.setattr(_native, "_has_avx2", lambda lib: probes.append(lib) or False)
        task = make_task(make_rng(80), 8, 256, 128)
        for _ in range(2):
            assert gemv_fast(task).tobytes() == converted(python_row_sums(task), task.scale).tobytes()
        assert len(probes) == 1  # the library built and loaded, and was probed once
        assert compiled_calls == []
        assert bench_gemv(task, iters=1)["kernel"] == "numpy"

    @pytest.mark.usefixtures("kernel")
    def test_builds_into_cache(self, fresh_kernel, compiled_calls):
        task = make_task(make_rng(75), 8, 64, 32)
        assert gemv_fast(task).tobytes() == gemv_ref(task).tobytes()
        assert compiled_calls
        # the call built one library, which holds the kernel and the repack into its tiles
        built = sorted((p.name.split("-")[0], p.suffix) for p in fresh_kernel.iterdir())
        assert built == [("w2a4", ".so")]

    @needs_cc
    def test_build_leaves_other_builds(self, fresh_kernel, monkeypatch):
        fresh_kernel.mkdir(parents=True)
        # an earlier source's build, another kernel's build, a build in
        # progress, a name that is no build, and a directory
        others = {"w2a4-0123456789abcdef.so", "ldp-0123456789abcdef.so", "w2a4-0123456789abcdef.soXk3j.tmp",
                  "w2a4-notes.so"}
        for name in others:
            (fresh_kernel / name).write_bytes(b"old")
        busy = fresh_kernel / "w2a4-fedcba9876543210.so"
        busy.mkdir()
        opened = []
        monkeypatch.setattr(_native, "open_kernel", lambda name, path: opened.append(path.name) or "kernel")
        assert _native.kernel("w2a4") == "kernel"
        assert all((fresh_kernel / name).read_bytes() == b"old" for name in others) and busy.is_dir()
        new = {p.name for p in fresh_kernel.iterdir()} - others - {busy.name}
        assert new == set(opened) and len(opened) == 1
        assert re.fullmatch(r"w2a4-[0-9a-f]{16}\.so", opened[0])

    @pytest.mark.parametrize("failure", ["no compiler", "compile error", "load error"])
    def test_failed_build_falls_back(self, failure, fresh_kernel, monkeypatch, compiled_calls):
        builds = []
        run = subprocess.run

        def counted_run(cmd, **kwargs):
            builds.append(cmd)
            if failure == "no compiler":
                raise FileNotFoundError(cmd[0])
            return run(cmd, **kwargs)

        monkeypatch.setattr(_native.subprocess, "run", counted_run)
        def failed_load(path):
            raise OSError(f"cannot load {path}")

        if failure == "compile error":
            monkeypatch.setattr(_native, "_CFLAGS", _native._CFLAGS + ("-include", "no-such-header.h"))
        if failure == "load error":
            monkeypatch.setattr(_native.ctypes, "CDLL", failed_load)
        rng = make_rng(76)
        for _ in range(3):
            task = make_task(rng, 8, 256, 32)
            assert gemv_fast(task).tobytes() == gemv_ref(task).tobytes()
        assert compiled_calls == []
        assert len(builds) <= 1  # not retried per call
        assert not list(fresh_kernel.glob("*.tmp"))

    # The hypothesis examples share the module's kernel fixture.
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        g=st.sampled_from([4, 12, 28, 32, 64, 124, 128, 160, 256, 1024]),
        groups=st.integers(1, 3),
        rows=st.sampled_from([1, 2, 3, 5, 13, 31, 32, 33, 64, 97]),  # about the 32-row tiles
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

    @pytest.mark.parametrize("g", [256 * 128 + 4, 256 * 128 + 32, 512 * 128 + 12, 1024 * 128 + 4])
    def test_kernel_sums_equal_spec_past_widening_with_a_tail(self, kernel, g):
        # Over 4096 pairs of 4-channel blocks, so int16 lanes are widened
        # after every 512 pairs and once after a short last span, some with
        # a padding block; past 1024 pairs of -32 lookups an unwidened lane
        # would wrap.
        task = make_task(make_rng(g), 2, g, g)
        extreme = dataclasses.replace(  # weight code 3 and activation -8 everywhere: the largest plane sums
            task,
            x_packed=pack_activation_codes(np.full(g, -8, dtype=np.int8)),
            weights=pack_weight_codes(np.full((2, g), 3), task.layout),
        )
        for t in (task, extreme):
            assert gemv._row_sums_compiled(kernel, t).tolist() == gemv._row_sums(t, 2).tolist()

    @pytest.mark.usefixtures("kernel")
    def test_first_non_finite_entry_in_row_major_order(self, compiled_calls):
        # rows 33 and 35 share a tile, whose lookups see row 35's group 3
        # first; row 70 is in the next tile, which a tile order would reach
        # later. The LUT builds no units, so both paths run the spec.
        task = make_task(make_rng(83), 97, 6 * 16, 16)
        table = task.lut.table.copy()
        table[35, 3, 0], table[33, 5, 2], table[70, 0, 1] = np.inf, np.nan, -np.inf
        task = dataclasses.replace(task, lut=DequantLut(table))
        for run in (gemv_fast, gemv_ref):
            with pytest.raises(DataError, match=r"LUT at \(row 33, group 5\) is not finite"):
                run(task)
        assert len(compiled_calls) == 0

    def test_bench_reports_kernel_and_bandwidth(self):
        # what the path that ran reads: tiles, units and activations, or codes,
        # float16 LUT and activations (G = 6 has no kernel)
        for g in (32, 6):
            task = make_task(make_rng(77), 16, 8 * g, g)
            bench = bench_gemv(task, iters=3)
            compiled = gemv._kernel_for(task) is not None
            assert bench["kernel"] == ("c" if compiled else "numpy")
            if compiled:
                read = gemv._tiles(task.weights).nbytes + gemv._units(task.lut).nbytes + task.x_packed.data.nbytes
            else:
                read = task.weights.data.nbytes + task.lut.table.nbytes + task.x_packed.data.nbytes
            assert bench["fast_gbytes_per_s"] == pytest.approx(read / bench["fast_ns_per_call"])
            assert bench["read_gbytes_per_s"] > 0


@pytest.fixture
def repacks(monkeypatch):
    """Counts the calls of the compiled repack into the GEMV's tiles."""
    calls = []
    lookup = _native.kernel

    def kernel(name):
        entry = lookup(name)
        if name != "w2a4_tiles" or entry is None:
            return entry

        def counted(*args):
            calls.append(args[1:4])  # rows, groups, group size
            return entry(*args)

        return counted

    monkeypatch.setattr(_native, "kernel", kernel)
    return calls


@pytest.mark.usefixtures("kernel")
class TestTilesAtLoad:
    """The GEMV repacks a ``PackedWeights`` into the kernel's tiles at its first call, once, and they cannot go stale."""

    def test_repacked_at_first_call_and_never_per_token(self, repacks, compiled_calls, tmp_path):
        rng = make_rng(84)
        task = make_task(rng, 64, 256, 32)
        write_rcpq(tmp_path / "w.rcpq", task.weights, task.lut)
        box = read_rcpq(tmp_path / "w.rcpq")
        assert repacks == []  # neither packing, writing nor reading repacks
        for _ in range(50):
            x_packed, scale = random_activation(rng, 256)
            token = GemvTask(x_packed=x_packed, scale=scale, weights=box.weights, lut=box.lut, layout=box.weights.layout)
            gemv_fast(token)
            assert repacks == [(64, 8, 32)]
        assert len(compiled_calls) == 50
        assert gemv_fast(token).tobytes() == gemv_ref(token).tobytes()

    def test_data_is_read_only(self, tmp_path):
        task = make_task(make_rng(85), 8, 64, 16)
        write_rcpq(tmp_path / "w.rcpq", task.weights, task.lut)
        direct = PackedWeights(np.array(task.weights.data), task.layout)
        for pw in (task.weights, read_rcpq(tmp_path / "w.rcpq").weights, direct):
            with pytest.raises(ValueError, match="read-only"):
                pw.data[0, 0] = 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                pw.data = np.zeros_like(pw.data)

    def test_source_array_changed_after_construction(self, compiled_calls):
        task = make_task(make_rng(86), 40, 128, 32)
        source = np.array(task.weights.data)
        task = dataclasses.replace(task, weights=PackedWeights(source, task.layout))
        ref = gemv_ref(task).tobytes()
        source ^= 0xFF  # every code changes, before the first call repacks and after it
        assert gemv_fast(task).tobytes() == ref
        source ^= 0x55
        assert gemv_fast(task).tobytes() == ref
        assert gemv_ref(task).tobytes() == ref
        assert len(compiled_calls) == 2

    def test_replaced_weights_compute_with_their_own_bytes(self, compiled_calls):
        rng = make_rng(87)
        task = make_task(rng, 40, 128, 32)
        other = pack_weight_codes(rng.integers(0, 4, size=(40, 128)), task.layout)
        swapped = dataclasses.replace(task, weights=other)
        expect = converted(python_row_sums(swapped), task.scale).tobytes()
        assert gemv_fast(swapped).tobytes() == gemv_ref(swapped).tobytes() == expect
        assert gemv_fast(swapped).tobytes() != gemv_fast(task).tobytes()
        assert len(compiled_calls) == 3

    def test_weights_packed_for_another_layout_are_refused(self, repacks, compiled_calls):
        # groups of 3 blocks are padded to 2 pairs in the tiles, groups of 6 are not
        task = make_task(make_rng(89), 40, 96, 12)
        lut, layout = DequantLut(task.lut.table[:, ::2].copy()), GroupLayout(40, 96, 24)
        with pytest.raises(ShapeError, match="weights packed for"):
            dataclasses.replace(task, lut=lut, layout=layout)
        task.lut, task.layout = lut, layout  # assignments bypass the constructor's checks
        for evaluate in (gemv_fast, gemv_ref):
            with pytest.raises(ShapeError, match="weights packed for"):
                evaluate(task)
        assert compiled_calls == [] and repacks == []

    def test_uncovered_group_size_is_found_once(self, repacks, compiled_calls):
        task = make_task(make_rng(98), 6, 24, 6)
        for _ in range(3):
            assert gemv_fast(task).tobytes() == gemv_ref(task).tobytes()
        assert vars(task.weights)["_tiles"] is None  # kept, so later calls do not look again
        assert compiled_calls == [] and repacks == []

    def test_concurrent_first_calls_agree(self, compiled_calls):
        # More threads than cores race on each new operand pair's first call,
        # which builds and keeps its tiles and units while the kernel runs.
        rng = make_rng(99)
        tasks = [make_task(rng, 64, 512, 32) for _ in range(20)]
        expect = [gemv_ref(task).tobytes() for task in tasks]
        start = threading.Barrier(4, timeout=60)
        got = [[] for _ in range(4)]

        def worker(k):
            for task in tasks:
                start.wait()
                got[k].append(gemv_fast(task).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [expect] * 4
        assert len(compiled_calls) == 80

    def test_bad_data_still_fails_in_the_task(self, repacks):
        # The repack reads rows * stride bytes unchecked: the task's checks
        # must run first, also on a task whose weights were assigned unchecked.
        task = make_task(make_rng(88), 4, 32, 8)
        for data, error in ((task.weights.data.astype(np.int32), DataError), (task.weights.data[:2], ShapeError)):
            pw = PackedWeights(data, task.layout)  # does not raise
            with pytest.raises(error, match="weights"):
                dataclasses.replace(task, weights=pw)
            bypassed = dataclasses.replace(task)
            bypassed.weights = pw  # an assignment runs no check
            with pytest.raises(error, match="weights"):
                gemv_fast(bypassed)
        assert repacks == []


@pytest.fixture
def unit_builds(monkeypatch):
    """Counts the decodes of a LUT into the GEMV's units, each with its inf/NaN scan."""
    calls = []
    decode = gemv._decode_units

    def counted(table):
        calls.append(table.shape)
        return decode(table)

    monkeypatch.setattr(gemv, "_decode_units", counted)
    return calls


def lut_of(rng, layout):
    """A LUT that ``build_lut`` makes for a random weight at ``layout``."""
    s1, s2 = uniform_split_logits()
    params = LdpParams(*(np.full((layout.out_channels, layout.num_groups), v) for v in (3.0, 3.0, s1, s2)))
    return build_lut(rng.standard_normal((layout.out_channels, layout.in_channels)), layout, params)


def units_by_row(lut):
    """``lut``'s units back in (row, group, entry) order, each decoded to ``smant << shift``."""
    h, n, _ = lut.table.shape
    u = gemv._units(lut).astype(np.int64).reshape(-1, n, 2, 2, 4, 2, 4)  # tile, group, half, parity, i, j, entry
    rows = ((u >> 8) << (u & 255)).transpose(0, 2, 5, 4, 3, 1, 6)  # row 16 half + 8 j + 2 i + parity
    return rows.reshape(-1, n, 4)[:h]


@pytest.mark.usefixtures("kernel")
class TestLutAtLoad:
    """The GEMV decodes a ``DequantLut``'s float16 entries into the kernel's units at its first call, once,
    and they cannot go stale."""

    def test_decoded_at_first_call_and_never_per_token(self, unit_builds, compiled_calls, tmp_path):
        rng = make_rng(90)
        layout = GroupLayout(64, 256, 32)
        lut = lut_of(rng, layout)
        write_rcpq(tmp_path / "w.rcpq", pack_weight_codes(rng.integers(0, 4, size=(64, 256)), layout), lut)
        box = read_rcpq(tmp_path / "w.rcpq")
        DequantLut(np.array(lut.table))
        assert unit_builds == []  # neither build_lut, read_rcpq nor a direct DequantLut decodes
        for _ in range(50):
            x_packed, scale = random_activation(rng, 256)
            token = GemvTask(x_packed=x_packed, scale=scale, weights=box.weights, lut=box.lut, layout=layout)
            gemv_fast(token)
            assert unit_builds == [(64, 8, 4)]
        assert len(compiled_calls) == 50
        assert gemv_fast(token).tobytes() == gemv_ref(token).tobytes()

    def test_table_is_read_only(self, tmp_path):
        rng = make_rng(91)
        task = make_task(rng, 8, 64, 16)
        write_rcpq(tmp_path / "w.rcpq", task.weights, task.lut)
        direct = DequantLut(np.array(task.lut.table))
        for lut in (lut_of(rng, task.layout), read_rcpq(tmp_path / "w.rcpq").lut, direct):
            with pytest.raises(ValueError, match="read-only"):
                lut.table[0, 0, 0] = 1
            for field in ("table", "_units"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(lut, field, None)

    def test_source_array_changed_after_construction(self, compiled_calls):
        task = make_task(make_rng(92), 40, 128, 32)
        source = np.array(task.lut.table)
        task = dataclasses.replace(task, lut=DequantLut(source))
        ref = gemv_ref(task).tobytes()
        source *= -2  # every non-zero entry changes, before the first call decodes and after it
        assert gemv_fast(task).tobytes() == ref
        source *= -2
        assert gemv_fast(task).tobytes() == ref
        assert gemv_ref(task).tobytes() == ref
        assert len(compiled_calls) == 2

    def test_replaced_lut_computes_with_its_own_units(self, compiled_calls):
        rng = make_rng(93)
        task = make_task(rng, 40, 128, 32)
        swapped = dataclasses.replace(task, lut=DequantLut(rng.choice(SPECIALS, size=(40, 4, 4))))
        expect = converted(python_row_sums(swapped), task.scale).tobytes()
        assert gemv_fast(swapped).tobytes() == gemv_ref(swapped).tobytes() == expect
        assert gemv_fast(swapped).tobytes() != gemv_fast(task).tobytes()
        assert len(compiled_calls) == 3

    def test_bad_table_builds_no_units(self, unit_builds, compiled_calls):
        task = make_task(make_rng(94), 4, 32, 8)
        table = task.lut.table
        for bad, error in ((table.astype(np.float32), DataError), (table[..., :3], ShapeError),
                           (table.reshape(4, -1), ShapeError)):
            lut = DequantLut(bad)  # does not raise
            with pytest.raises(error, match="(?i)lut"):
                dataclasses.replace(task, lut=lut)
            bypassed = dataclasses.replace(task)
            bypassed.lut = lut  # an assignment runs no check
            with pytest.raises(error, match="(?i)lut"):
                gemv_fast(bypassed)
        assert unit_builds == []
        assert compiled_calls == []

    def test_non_finite_table_is_found_once(self, unit_builds, compiled_calls):
        task = make_task(make_rng(94), 4, 32, 8)
        non_finite = np.array(task.lut.table)
        non_finite[2, 1, 3] = np.inf
        task = dataclasses.replace(task, lut=DequantLut(non_finite))
        for _ in range(3):
            with pytest.raises(DataError, match=r"LUT at \(row 2, group 1\) is not finite"):
                gemv_fast(task)  # from the spec
        assert unit_builds == [(4, 4, 4)]  # one scan finds the inf, and its "no units" is kept
        with pytest.raises(DataError, match=r"LUT at \(row 2, group 1\) is not finite"):
            gemv_ref(task)
        assert compiled_calls == []

    def test_every_finite_float16(self, compiled_calls):
        every = np.arange(2**16, dtype=np.uint16).view(np.float16)
        finite = np.sort(every[np.isfinite(every)])  # +-0, subnormals, normals up to +-65504
        assert finite.size == 2 * 31 * 1024
        h, n, g = 97, 164, 8  # a short last tile
        table = np.concatenate([finite, np.full(h * n * 4 - finite.size, finite[-1])]).reshape(h, n, 4)
        lut = DequantLut(table)
        assert np.array_equal(units_by_row(lut), np.ldexp(table.astype(np.float64), 24).astype(np.int64))
        layout = GroupLayout(h, n * g, g)
        rng = make_rng(95)
        codes = rng.permuted(np.tile(np.arange(4), (h, n, g // 4)), axis=-1)  # every entry of every group
        weights = pack_weight_codes(codes.reshape(h, n * g), layout)
        for x_codes in (np.full(n * g, -8), rng.integers(-8, 8, size=n * g)):
            task = GemvTask(pack_activation_codes(x_codes.astype(np.int8)), 1.0, weights, lut, layout)
            assert gemv_fast(task).tobytes() == gemv_ref(task).tobytes()
        assert len(compiled_calls) == 2


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
            assert gemv_ref(task).tobytes() == converted(sums, task.scale).tobytes()

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
            sums, out = gemv._row_sums(task, 2), gemv_ref(task)
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
        for run in (gemv_fast, gemv_ref):
            with pytest.raises(ShapeError, match="exceed 2\\^20"):
                run(task)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_lut_entry_is_named(self, bad):
        task = make_task(make_rng(79), 12, 64, 16)
        table = task.lut.table.copy()
        table[11, 0, 3] = bad
        table[9, 2, 1] = bad
        task.lut = DequantLut(table)
        for run in (lambda t: gemv_fast(t, 4), gemv_ref):
            with pytest.raises(DataError, match=r"LUT at \(row 9, group 2\) is not finite"):
                run(task)


class TestDenseOracle:
    def test_mutual_consistency_many_tasks(self):
        rng = make_rng(70)
        for _ in range(200):
            g = int(rng.choice([4, 8]))
            c = g * int(rng.integers(1, 5))
            h = int(rng.integers(1, 17))
            task = make_task(rng, h, c, g)
            assert rel_gap(gemv_ref(task), dense_oracle(task)) <= 1e-5
