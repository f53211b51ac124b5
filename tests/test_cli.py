"""End-to-end runs of every subcommand, exit codes, report files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rcpq import (
    ClipSearchConfig,
    GroupLayout,
    build_lut,
    fake_quant,
    fuse,
    grid_search_clip,
    ldp_init,
    pack_weight_codes,
    quantize_layer,
    randomized_hadamard,
    write_rcpq,
)
from rcpq import _native, cli, pipeline
from rcpq.cli import main
from rcpq.core import load_npy, make_rng, save_npy
from rcpq.gemv import GemvTask, dense_oracle, gemv_fast, gemv_ref
from rcpq.pack import (
    pack_activation_codes,
    read_rcpq,
    stored_params,
    unpack_activation_codes,
    unpack_weight_codes,
)
from rcpq.pipeline import encode
from rcpq.rotation import RandomizedHadamard, apply_online
from rcpq.uniform import quant_act_per_token

SRC = Path(__file__).resolve().parents[1] / "src"


def _report(path):
    """A ``--json`` report parsed as strict JSON: NaN and Infinity raise."""

    def reject(constant):
        raise ValueError(f"{path}: {constant} is not valid JSON")

    return json.loads(path.read_text(), parse_constant=reject)


@pytest.fixture
def weight_files(tmp_path):
    rng = make_rng(90)
    w = rng.uniform(-1, 1, size=(16, 64)).astype(np.float32)
    x = rng.standard_normal((32, 64)).astype(np.float32)
    wp = tmp_path / "w.npy"
    xp = tmp_path / "x.npy"
    save_npy(w, wp)
    save_npy(x, xp)
    return wp, xp


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lemma1", "--no-such-flag"])
        assert exc.value.code == 1

    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["stats", "--weights", str(tmp_path / "nope.npy")])
        assert code == 2


class TestLemma1:
    def test_report_and_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main([
            "lemma1", "--dist", "uniform", "--n", "16",
            "--trials", "100000", "--seed", "7", "--json", str(out),
        ])
        assert code == 0
        rep = _report(out)
        assert rep["tool"] == "rcpq"
        assert rep["config"]["seed"] == 7
        assert abs(rep["kurt_after"] - (-1.2 / 16)) <= 0.02
        assert rep["expected_after"] == pytest.approx(-0.075)

    def test_reproducible(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(["lemma1", "--n", "8", "--trials", "5000", "--seed", "3", "--json", str(out)])
            outs.append(_report(out))
        assert outs[0]["kurt_after"] == outs[1]["kurt_after"]

    def test_cli_loads_no_scipy(self, tmp_path):
        script = (
            "import sys\n"
            "import rcpq.cli\n"
            f"assert rcpq.cli.main(['lemma1', '--n', '8', '--trials', '500', '--json', {str(tmp_path / 'r.json')!r}]) == 0\n"
            "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "assert not loaded, loaded\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestStats:
    def test_plain_report(self, weight_files, tmp_path, capsys):
        wp, _ = weight_files
        out = tmp_path / "s.json"
        code = main(["stats", "--weights", str(wp), "--group", "32", "--json", str(out)])
        assert code == 0
        rep = _report(out)
        assert rep["kurtosis"]["platykurtic_fraction"] > 0.9  # uniform weights

    def test_with_rotation_and_acts(self, weight_files, tmp_path):
        wp, xp = weight_files
        out = tmp_path / "s.json"
        code = main([
            "stats", "--weights", str(wp), "--group", "64", "--rotate", "5",
            "--acts", str(xp), "--grid", "8", "--json", str(out),
        ])
        assert code == 0
        rep = _report(out)
        assert rep["kurtosis_rotated"]["mean_delta"] > 0  # platykurtic input
        assert rep["qerr_vs_kurt"]["tokens"] == 32

    def test_acts_without_rotation_is_usage_error(self, laplace_files, tmp_path):
        # without a rotation every kurtosis delta is 0 and the rank
        # correlation is NaN, which would land in the report
        wp, xp = laplace_files
        out = tmp_path / "s.json"
        with pytest.raises(SystemExit) as exc:
            main([
                "stats", "--weights", str(wp), "--group", "64", "--acts", str(xp),
                "--grid", "8", "--json", str(out),
            ])
        assert exc.value.code == 1
        assert not out.exists()


class TestQuantizeVerifyBench:
    def test_pipeline_self_consistency(self, weight_files, tmp_path, capsys):
        wp, xp = weight_files
        box = tmp_path / "m.rcpq"
        code = main([
            "quantize", "--weights", str(wp), "--calib", str(xp), "--group", "32",
            "--rotate", "9", "--grid", "8", "--out", str(box),
            "--json", str(tmp_path / "q.json"),
        ])
        assert code == 0
        rep = _report(tmp_path / "q.json")
        assert rep["weight_bytes"] == 16 * 64 // 4
        assert rep["lut_bytes"] == 16 * 2 * 4 * 2
        assert rep["ldp_kernel"] == _native.path("ldp")

        code = main([
            "verify", str(box), "--against", str(wp), "--acts", str(xp), "--rotate", "9",
            "--json", str(tmp_path / "v.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "OK" in out
        rep = _report(tmp_path / "v.json")
        assert rep["container_version"] == 2
        assert rep["ldp_kernel"] == _native.path("ldp")
        assert rep["codes_match"] is True and rep["lut_match"] is True
        assert rep["gemv_ref_gap"] <= cli.GEMV_TOL and rep["gemv_fast_gap"] <= cli.GEMV_TOL

    def test_reports_numpy_ldp_path_without_the_kernel(self, weight_files, tmp_path, monkeypatch):
        wp, xp = weight_files
        kernel = _native.kernel
        monkeypatch.setattr(_native, "kernel", lambda name: None if name == "ldp" else kernel(name))
        box = tmp_path / "m.rcpq"
        assert main(["quantize", "--weights", str(wp), "--calib", str(xp), "--group", "32", "--grid", "8",
                     "--out", str(box), "--json", str(tmp_path / "q.json")]) == 0
        assert main(["verify", str(box), "--against", str(wp), "--acts", str(xp),
                     "--json", str(tmp_path / "v.json")]) == 0
        assert _report(tmp_path / "q.json")["ldp_kernel"] == "numpy"
        assert _report(tmp_path / "v.json")["ldp_kernel"] == "numpy"

    def test_verify_detects_corruption(self, weight_files, tmp_path, capsys):
        wp, xp = weight_files
        box = tmp_path / "m.rcpq"
        main([
            "quantize", "--weights", str(wp), "--calib", str(xp), "--group", "32",
            "--grid", "8", "--out", str(box),
        ])
        blob = bytearray(box.read_bytes())
        # flip one byte inside the LUT section (sections: weights, LUT, params)
        lut_bytes = 16 * 2 * 4 * 2
        params_bytes = 16 * 2 * 4 * 4
        blob[len(blob) - params_bytes - lut_bytes + 3] ^= 0x40
        box.write_bytes(bytes(blob))
        code = main(["verify", str(box), "--against", str(wp), "--acts", str(xp)])
        assert code == 2
        # The flipped exponent bit breaks the group's order, so reading the
        # container already fails, naming the group.
        assert "LUT at (row 0, group 0) decreases" in capsys.readouterr().err

    def test_verify_detects_wrong_lut(self, weight_files, tmp_path, capsys):
        # A LUT that is finite and ordered but not the one the params give.
        wp, xp = weight_files
        box = tmp_path / "m.rcpq"
        main([
            "quantize", "--weights", str(wp), "--calib", str(xp), "--group", "32",
            "--grid", "8", "--out", str(box),
        ])
        blob = bytearray(box.read_bytes())
        lut_at = len(blob) - 16 * 2 * 4 * 4 - 16 * 2 * 4 * 2
        table = np.frombuffer(bytes(blob[lut_at : lut_at + 256]), dtype="<f2").reshape(16, 2, 4).copy()
        table[5, 1, 0] -= 1.0
        blob[lut_at : lut_at + 256] = table.tobytes()
        box.write_bytes(bytes(blob))
        code = main(["verify", str(box), "--against", str(wp), "--acts", str(xp)])
        assert code == 2
        assert "FAIL: LUT mismatch at (h=5, g=1)" in capsys.readouterr().out

    def test_verify_rejects_non_finite_params(self, weight_files, tmp_path, capsys):
        wp, xp = weight_files
        box = tmp_path / "m.rcpq"
        main([
            "quantize", "--weights", str(wp), "--calib", str(xp), "--group", "32",
            "--grid", "8", "--out", str(box),
        ])
        blob = bytearray(box.read_bytes())
        params_at = len(blob) - 16 * 2 * 4 * 4  # the last section
        raw = np.frombuffer(bytes(blob[params_at:]), dtype="<f4").reshape(16, 2, 4).copy()
        raw[0, 1, 1] = np.nan
        blob[params_at:] = raw.tobytes()
        box.write_bytes(bytes(blob))
        code = main(["verify", str(box), "--against", str(wp), "--acts", str(xp)])
        assert code == 2
        assert "params at (row 0, group 1) hi_logit is not finite" in capsys.readouterr().err

    def test_verify_without_rotation_mismatch(self, weight_files, tmp_path, capsys):
        # quantized with rotation but verified without -> codes differ -> exit 2
        wp, xp = weight_files
        box = tmp_path / "m.rcpq"
        main([
            "quantize", "--weights", str(wp), "--calib", str(xp), "--group", "32",
            "--rotate", "4", "--grid", "8", "--out", str(box),
        ])
        code = main(["verify", str(box), "--against", str(wp), "--acts", str(xp)])
        assert code == 2

    @pytest.mark.parametrize("tokens", [3, 0])
    def test_verify_without_non_zero_token(self, tokens, weight_files, tmp_path, capsys):
        wp, xp = weight_files
        box = tmp_path / "m.rcpq"
        main([
            "quantize", "--weights", str(wp), "--calib", str(xp), "--group", "32",
            "--rotate", "4", "--grid", "8", "--out", str(box),
        ])
        zp = tmp_path / "zeros.npy"
        save_npy(np.zeros((tokens, 64), dtype=np.float32), zp)
        code = main(["verify", str(box), "--against", str(wp), "--acts", str(zp), "--rotate", "4"])
        assert code == 2
        assert "no token has a non-zero activation" in capsys.readouterr().err

    def test_float16_overflow_fails_and_writes_nothing(self, tmp_path, capsys):
        # A group whose top level, 1e5, has no float16 value.
        rng = make_rng(91)
        w = rng.uniform(-4e4, 4e4, size=(4, 64)).astype(np.float32)
        w[2, 10] = 1e5
        wp, xp, box = tmp_path / "w.npy", tmp_path / "x.npy", tmp_path / "m.rcpq"
        save_npy(w, wp)
        save_npy(rng.standard_normal((16, 64)).astype(np.float32), xp)
        code = main(["quantize", "--weights", str(wp), "--calib", str(xp), "--group", "64",
                     "--grid", "8", "--out", str(box)])
        assert code == 2
        assert "(row 2, group 0) is not finite" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w.npy", "x.npy"]

    def test_float64_weight_past_float32_range_fails(self, tmp_path, capsys):
        # 1e39 is a finite float64 that narrows to inf in float32.
        rng = make_rng(92)
        w = rng.standard_normal((2, 64))
        w[1, 5] = 1e39
        wp, xp, box = tmp_path / "w.npy", tmp_path / "x.npy", tmp_path / "m.rcpq"
        np.save(wp, w)
        save_npy(rng.standard_normal((16, 64)).astype(np.float32), xp)
        code = main(["quantize", "--weights", str(wp), "--calib", str(xp), "--group", "64",
                     "--grid", "8", "--out", str(box)])
        assert code == 2
        assert f"error: {wp}: payload contains NaN or Inf" in capsys.readouterr().err
        assert not box.exists()

    def test_nan_gemv_gap_fails(self, weight_files, tmp_path, monkeypatch, capsys):
        wp, xp = weight_files
        box = tmp_path / "m.rcpq"
        main([
            "quantize", "--weights", str(wp), "--calib", str(xp), "--group", "32",
            "--grid", "8", "--out", str(box),
        ])
        monkeypatch.setattr(cli, "gemv_ref", lambda task: np.full(task.layout.out_channels, np.nan, np.float32))
        code = main(["verify", str(box), "--against", str(wp), "--acts", str(xp)])
        assert code == 2
        assert "FAIL: GEMV gap ref=nan" in capsys.readouterr().out

    def test_bench_report(self, weight_files, tmp_path, capsys):
        wp, xp = weight_files
        box = tmp_path / "m.rcpq"
        main([
            "quantize", "--weights", str(wp), "--calib", str(xp), "--group", "32",
            "--grid", "8", "--out", str(box),
        ])
        out = tmp_path / "bench.json"
        code = main(["gemv-bench", str(box), "--iters", "5", "--json", str(out)])
        assert code == 0
        rep = _report(out)
        assert rep["fast_ns_per_call"] > 0
        assert rep["oracle_gap"] <= 1e-5
        assert rep["kernel"] in ("c", "numpy")
        assert rep["fast_gbytes_per_s"] > 0
        assert f"{rep['kernel']} kernel" in capsys.readouterr().out

    @pytest.mark.parametrize("iters", ["0", "-3"])
    def test_bench_rejects_no_iterations(self, iters, weight_files, tmp_path, capsys, monkeypatch):
        wp, xp = weight_files
        box = tmp_path / "m.rcpq"
        main([
            "quantize", "--weights", str(wp), "--calib", str(xp), "--group", "32",
            "--grid", "8", "--out", str(box),
        ])
        oracle_calls = []
        oracle = cli._oracle
        monkeypatch.setattr(cli, "_oracle", lambda task: oracle_calls.append(task) or oracle(task))
        out = tmp_path / "bench.json"
        assert main(["gemv-bench", str(box), "--iters", iters, "--json", str(out)]) == 2
        assert f"iters must be >= 1, got {iters}" in capsys.readouterr().err
        assert not out.exists()
        assert oracle_calls == []  # rejected before the float64 decode
        assert main(["gemv-bench", str(box), "--iters", "1", "--json", str(out)]) == 0
        assert _report(out)["fast_iters"] == 1
        assert len(oracle_calls) == 1

    def test_import_compiles_nothing_and_quantize_only_the_encoder(self, weight_files, tmp_path):
        wp, xp = weight_files
        cache = tmp_path / "cache"
        script = (
            "import os\n"
            "import rcpq\n"
            "from rcpq.cli import main\n"
            f"assert not os.path.exists({str(cache)!r})\n"
            f"assert main(['quantize', '--weights', {str(wp)!r}, '--calib', {str(xp)!r}, "
            f"'--group', '32', '--grid', '8', '--out', {str(tmp_path / 'm.rcpq')!r}]) == 0\n"
        )
        env = {**os.environ, "XDG_CACHE_HOME": str(cache), "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        # quantize encodes with the LDP kernel; the GEMV's is built only by a GEMV call
        assert {p.name.split("-")[0] for p in (cache / "rcpq").glob("*")} <= {"ldp"}


@pytest.fixture
def laplace_files(tmp_path):
    # On this input, codes and LUT derived from the unrounded float64 logits
    # give a LUT that verify rejects at (h=51, g=0).
    rng = make_rng(2)
    w = rng.laplace(0, 0.02, size=(64, 256)).astype(np.float32)
    x = rng.standard_normal((128, 256)).astype(np.float32)
    wp = tmp_path / "w.npy"
    xp = tmp_path / "x.npy"
    save_npy(w, wp)
    save_npy(x, xp)
    return wp, xp


class TestVerifyGemvGap:
    """verify scales each row's GEMV error by ``sum_c |w_hc| * |x_c|``."""

    @pytest.fixture
    def two_row_files(self, tmp_path):
        # A correct 2-row container, and a token (found by a seed scan) whose
        # two outputs nearly cancel: max |oracle| is small next to the terms.
        rng = make_rng(96)
        paths = [tmp_path / name for name in ("w.npy", "x.npy", "token.npy", "m.rcpq")]
        save_npy(rng.laplace(scale=0.02, size=(2, 1024)).astype(np.float32), paths[0])
        save_npy(rng.standard_normal((64, 1024)).astype(np.float32), paths[1])
        save_npy(make_rng(97, 2924).standard_normal((1, 1024)).astype(np.float32), paths[2])
        assert main(["quantize", "--weights", str(paths[0]), "--calib", str(paths[1]),
                     "--group", "128", "--grid", "8", "--out", str(paths[3])]) == 0
        return paths

    @staticmethod
    def _task(box, token_path):
        container = read_rcpq(box)
        codes, scales = quant_act_per_token(load_npy(token_path))
        return GemvTask(pack_activation_codes(codes[0]), float(scales[0]), container.weights,
                        container.lut, container.weights.layout)

    def test_cancelling_two_row_layer_passes(self, two_row_files, capsys):
        wp, _, tp, box = two_row_files
        task = self._task(box, tp)
        oracle = dense_oracle(task)
        old_gap = max(np.abs(f(task) - oracle).max() for f in (gemv_ref, gemv_fast)) / np.abs(oracle).max()
        assert old_gap > 1e-5  # what a scale of max |oracle| rejected
        assert main(["verify", str(box), "--against", str(wp), "--acts", str(tp)]) == 0
        assert capsys.readouterr().out.startswith("OK: codes and LUT reproduce")

    def test_fast_output_off_by_one_weight_fails(self, two_row_files, monkeypatch, capsys):
        wp, _, tp, box = two_row_files
        task = self._task(box, tp)
        lay = task.layout
        x = task.scale * unpack_activation_codes(task.x_packed).astype(np.float64)
        codes = unpack_weight_codes(task.weights)[0]
        terms = task.lut.table[0, np.arange(lay.in_channels) // lay.group_size, codes] * x
        nonzero = np.sort(np.abs(terms[terms != 0]))
        off = np.array([nonzero[nonzero.size // 2], 0.0], dtype=np.float32)  # a median term
        fast = cli.gemv_fast
        monkeypatch.setattr(cli, "gemv_fast", lambda task: fast(task) + off)
        assert main(["verify", str(box), "--against", str(wp), "--acts", str(tp)]) == 2
        assert "FAIL: GEMV gap ref=" in capsys.readouterr().out


class TestQuantizePipeline:
    def test_quantize_matches_public_call_sequence(self, laplace_files, tmp_path):
        # The sequence a caller of the public API (and the benchmark's
        # traced replay) writes out; the command must produce the same bytes.
        wp, xp = laplace_files
        box = tmp_path / "cli.rcpq"
        code = main([
            "quantize", "--weights", str(wp), "--calib", str(xp), "--group", "64",
            "--rotate", "7", "--grid", "16", "--out", str(box),
        ])
        assert code == 0

        w, x = load_npy(wp), load_npy(xp)
        layout = GroupLayout(64, 256, 64)
        rot = randomized_hadamard(256, 7)
        w_r = fuse(w, None, rot)
        search = grid_search_clip(w_r, apply_online(x, rot), layout, ClipSearchConfig(grid=16))
        params = ldp_init(search)
        for name in ("lo_logit", "hi_logit", "split1", "split2"):
            setattr(params, name, getattr(params, name).astype(np.float32).astype(np.float64))
        codes, _ = fake_quant(layout.grouped(w_r.astype(np.float64)), params)
        lut = build_lut(w_r, layout, params)
        ref = tmp_path / "ref.rcpq"
        write_rcpq(ref, pack_weight_codes(codes.reshape(w_r.shape), layout), lut, params)
        assert box.read_bytes() == ref.read_bytes()

    def test_library_container_passes_verify(self, laplace_files, tmp_path, capsys):
        wp, xp = laplace_files
        w, x = load_npy(wp), load_npy(xp)
        _, params, lut, packed = quantize_layer(w, x, GroupLayout(64, 256, 64), rotate_seed=7, grid=16)
        box = tmp_path / "m.rcpq"
        write_rcpq(box, packed, lut, params)
        code = main(["verify", str(box), "--against", str(wp), "--acts", str(xp), "--rotate", "7"])
        assert code == 0
        assert "OK" in capsys.readouterr().out


class TestContainerVersions:
    """verify re-fuses a version-1 container by the dense product, a version-2 one by the transform."""

    @pytest.mark.parametrize("version", [1, 2])
    def test_verify_fuses_as_the_version_says(self, version, laplace_files, tmp_path, monkeypatch):
        wp, xp = laplace_files
        w, x = load_npy(wp), load_npy(xp)
        layout = GroupLayout(64, 256, 64)
        rot = randomized_hadamard(256, 7)
        w_r = fuse(w, None, np.asarray(rot) if version == 1 else rot)
        search = grid_search_clip(w_r, apply_online(x, rot), layout, ClipSearchConfig(grid=16))
        params = stored_params(ldp_init(search))
        codes, lut = encode(w_r, layout, params)
        box = tmp_path / "m.rcpq"
        write_rcpq(box, pack_weight_codes(codes.reshape(w_r.shape), layout), lut, params)
        blob = bytearray(box.read_bytes())
        blob[4:6] = version.to_bytes(2, "little")
        box.write_bytes(bytes(blob))

        rears = []

        def spy(w, r_front=None, r_rear=None):
            rears.append(type(r_rear))
            return fuse(w, r_front, r_rear)

        monkeypatch.setattr(pipeline, "fuse", spy)
        out = tmp_path / "v.json"
        code = main(["verify", str(box), "--against", str(wp), "--acts", str(xp), "--rotate", "7",
                     "--json", str(out)])
        assert code == 0
        assert rears == [np.ndarray if version == 1 else RandomizedHadamard]
        assert _report(out)["container_version"] == version


class TestTrainToy:
    def test_short_run_report(self, tmp_path):
        out = tmp_path / "t.json"
        code = main(["train-toy", "--seed", "0", "--steps", "10", "--json", str(out)])
        assert code == 0
        rep = _report(out)
        assert len(rep["loss_trace"]) == 10
        assert rep["config"]["freeze_partitions"] is False

    def test_freeze_flag(self, tmp_path):
        out = tmp_path / "t.json"
        code = main([
            "train-toy", "--seed", "0", "--steps", "5", "--freeze-partitions",
            "--json", str(out),
        ])
        assert code == 0
        assert _report(out)["config"]["freeze_partitions"] is True
