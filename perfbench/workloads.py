"""The four benchmark workloads and the inputs they generate from a seed.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns. Each one has

* ``setup(tr)``: input generation, container build and first read;
* ``inputs(i)``: untimed preparation of operation ``i``;
* ``op(inp, tr)``: the timed operation. With tracing off, ``quantize`` and
  ``verify`` run the ``rcpq`` command line in-process; with tracing on they
  replay the command's sequence of public calls with a span around each;
* ``check(i, inp, result, tr)``: the untimed correctness check;
* ``fidelity(plain, traced)``: whether the traced replay reproduced the
  untraced operation's output.

The library only ever sees generated arrays and files; the workload seed
picks them and nothing else.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import rcpq
from rcpq import cli
from rcpq.ldp import LOGIT_LIMIT, logit

ROTATE_SEED = 7  # the --rotate seed every container is built and checked with
GROUP = 128
OUTLIER_CHANNELS = 8
OUTLIER_GAIN = 20.0
WEIGHT_SCALE = 0.02
GEMV_TOL = 1e-5  # acceptance criterion 08's bound on the oracle gap
GEMV_TILE = 8  # the command line's default --bh

# Quantize: a 2x1024 slice is 16 groups; at ~130 ms per group of clip search
# that is ~2 s per layer, so several layers fit into one run.
Q_ROWS, Q_COLS, Q_GRID = 2, 1024, 64
Q_CALIB_TOKENS = Q_HELDOUT_TOKENS = 256

# Verify and decode share one 4096x4096 container.
V_DIM = 4096
V_TOKENS = 64
DECODE_CHECK_EVERY = 8  # every 8th token is checked against the oracle

# Random streams within one workload seed.
_CALIB, _HELDOUT, _LAYER, _WEIGHT, _ACTS, _RATIOS, _TOKEN, _OUTLIERS = range(8)


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def heavy_tailed(rng: np.random.Generator, shape) -> np.ndarray:
    """Laplace weights: excess kurtosis 3, so group extremes are outliers."""
    return rng.laplace(scale=WEIGHT_SCALE, size=shape).astype(np.float32)


def activations(rng: np.random.Generator, tokens: int, outliers: np.ndarray, channels: int):
    x = rng.standard_normal((tokens, channels), dtype=np.float32)
    x[:, outliers] *= OUTLIER_GAIN
    return x


def outlier_channels(seed: int, channels: int) -> np.ndarray:
    return rng_for(seed, _OUTLIERS).choice(channels, size=OUTLIER_CHANNELS, replace=False)


def relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Max abs difference over max abs of ``b``, as ``rcpq verify`` reports it."""
    scale = max(float(np.abs(b).max()), 1e-30)
    return float(np.abs(a.astype(np.float64) - b.astype(np.float64)).max()) / scale


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``rcpq.cli.main`` in-process, with its console output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def narrow_params(params: rcpq.LdpParams) -> None:
    """Round-trip logits through float32, as the quantize pipeline does before
    deriving codes, so verification from stored params reproduces them."""
    for name in ("lo_logit", "hi_logit", "split1", "split2"):
        setattr(params, name, getattr(params, name).astype(np.float32).astype(np.float64))


def write_and_count(tr, path: str, packed, lut, params) -> None:
    tr.call("pack.write_rcpq", rcpq.write_rcpq, path, packed, lut, params)
    tr.count("pack.bytes_written", os.path.getsize(path))


def read_and_count(tr, path: str) -> rcpq.RcpqContainer:
    container = tr.call("pack.read_rcpq", rcpq.read_rcpq, path)
    tr.count("pack.bytes_read", os.path.getsize(path))
    return container


def fuse_and_count(tr, w: np.ndarray, rot: np.ndarray) -> np.ndarray:
    w_r = tr.call("rotation.fuse", rcpq.fuse, w, None, rot)
    h, c = w.shape
    tr.count("rotation.fuse_flop", 2.0 * h * c * c)
    return w_r


def fake_quant_and_count(tr, layout: rcpq.GroupLayout, w_r: np.ndarray, params):
    grouped = layout.grouped(np.asarray(w_r, dtype=np.float64))
    codes, _ = tr.call("ldp.fake_quant", rcpq.fake_quant, grouped, params)
    tr.count("ldp.weights", grouped.size)
    return codes


def gemv_fast_and_count(tr, task: rcpq.GemvTask) -> np.ndarray:
    y = tr.call("gemv.gemv_fast", rcpq.gemv_fast, task, GEMV_TILE)
    lay = task.layout
    # Computed: packed weights + float16 LUT + packed activations.
    tr.count("gemv.bytes", task.weights.data.nbytes + task.lut.table.nbytes + task.x_packed.data.nbytes)
    tr.count("gemv.macs", lay.out_channels * lay.in_channels)
    return y


# ---------------------------------------------------------------------------
# quantize


@dataclass
class QuantizeInput:
    w: np.ndarray
    w_path: str
    out_path: str


class Quantize:
    """``rcpq quantize --group 128 --rotate 7 --grid 64`` on a fresh seeded
    2x1024 layer slice per operation, with 256 calibration tokens."""

    name = "quantize"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir
        self.x_path = os.path.join(workdir, "calib.npy")
        self.out_rel_errs: list[float] = []

    def setup(self, tr) -> None:
        outliers = outlier_channels(self.seed, Q_COLS)
        x = activations(rng_for(self.seed, _CALIB), Q_CALIB_TOKENS, outliers, Q_COLS)
        tr.call("core.save_npy", rcpq.save_npy, x, self.x_path)
        held_out = activations(rng_for(self.seed, _HELDOUT), Q_HELDOUT_TOKENS, outliers, Q_COLS)
        self.rot = tr.call("rotation.randomized_hadamard", rcpq.randomized_hadamard, Q_COLS, ROTATE_SEED)
        self.held_out_r = held_out.astype(np.float64) @ self.rot

    def inputs(self, i: int) -> QuantizeInput:
        w = heavy_tailed(rng_for(self.seed, _LAYER, i), (Q_ROWS, Q_COLS))
        w_path = os.path.join(self.dir, "w.npy")
        rcpq.save_npy(w, w_path)
        return QuantizeInput(w, w_path, os.path.join(self.dir, "q.rcpq"))

    def op(self, inp: QuantizeInput, tr) -> str:
        if not tr.enabled:
            argv = ["quantize", "--weights", inp.w_path, "--calib", self.x_path,
                    "--group", str(GROUP), "--rotate", str(ROTATE_SEED), "--grid", str(Q_GRID),
                    "--out", inp.out_path]
            rc, text = run_cli(argv)
            if rc != 0:
                raise RuntimeError(f"rcpq quantize exited {rc}: {text.strip()}")
            return inp.out_path
        out_path = inp.out_path + ".traced"
        replay_quantize(tr, inp.w_path, self.x_path, out_path)
        return out_path

    def check(self, i: int, inp: QuantizeInput, out_path: str, tr) -> tuple[bool, str]:
        container = read_and_count(tr, out_path)
        rc, text = run_cli(["verify", out_path, "--against", inp.w_path, "--acts", self.x_path,
                            "--rotate", str(ROTATE_SEED)])
        if rc != 0:
            return False, f"layer {i}: rcpq verify exited {rc}: {text.strip()}"
        self.out_rel_errs.append(self._out_rel_err(inp.w, container))
        return True, ""

    def _out_rel_err(self, w: np.ndarray, container: rcpq.RcpqContainer) -> float:
        """||(W_hat - W_r) X^T|| / ||W_r X^T|| on held-out rotated tokens."""
        lay = container.weights.layout
        codes = rcpq.unpack_weight_codes(container.weights).astype(np.int64)
        groups = np.repeat(np.arange(lay.num_groups), lay.group_size)
        lut = container.lut.table.astype(np.float64)
        w_hat = lut[np.arange(lay.out_channels)[:, None], groups[None, :], codes]
        w_r = rcpq.fuse(w, None, self.rot).astype(np.float64)
        ref = w_r @ self.held_out_r.T
        return float(np.linalg.norm((w_hat - w_r) @ self.held_out_r.T) / np.linalg.norm(ref))

    @staticmethod
    def fidelity(plain: str, traced: str) -> tuple[bool, str]:
        with open(plain, "rb") as a, open(traced, "rb") as b:
            same = a.read() == b.read()
        return same, "" if same else "replayed container differs from rcpq quantize's"

    def named(self, op_s: float, rate: float) -> dict:
        err = float(np.median(self.out_rel_errs)) if self.out_rel_errs else float("nan")
        return {"quantize_layer_s": (op_s, "s"), "quantize_out_rel_err": (err, "ratio")}

    @staticmethod
    def working_set() -> dict:
        n = Q_COLS // GROUP
        return {
            "rotation_f64": Q_COLS * Q_COLS * 8,
            "calib_acts_f64": Q_CALIB_TOKENS * Q_COLS * 8,
            "gram_matrices_f64": n * GROUP * GROUP * 8,
            "candidates_per_group_f64": Q_GRID * Q_GRID * GROUP * 8,
        }


def replay_quantize(tr, w_path: str, x_path: str, out_path: str) -> None:
    """The public calls ``rcpq quantize`` makes, in its order, one span each."""
    w = tr.call("core.load_npy", rcpq.load_npy, w_path)
    x = tr.call("core.load_npy", rcpq.load_npy, x_path)
    layout = rcpq.GroupLayout(w.shape[0], w.shape[1], GROUP)
    rot = tr.call("rotation.randomized_hadamard", rcpq.randomized_hadamard, layout.in_channels, ROTATE_SEED)
    w_r = fuse_and_count(tr, w, rot)
    x_r = tr.call("rotation.apply_online", rcpq.apply_online, x, rot)
    cfg = rcpq.ClipSearchConfig(grid=Q_GRID)
    search = tr.call("calib.grid_search_clip", rcpq.grid_search_clip, w_r, x_r, layout, cfg)
    groups = search.ratio_lo.size
    tr.count("calib.groups", groups)
    tr.count("calib.candidates", groups * cfg.grid * cfg.grid)
    tr.count("calib.clipped", int(np.count_nonzero((search.ratio_lo != 1.0) | (search.ratio_hi != 1.0))))
    tr.count("calib.degenerate_groups", len(search.degenerate_groups))
    params = tr.call("calib.ldp_init", rcpq.ldp_init, search)
    narrow_params(params)
    codes = fake_quant_and_count(tr, layout, w_r, params)
    lut = tr.call("pack.build_lut", rcpq.build_lut, w_r, layout, params)
    packed = tr.call("pack.pack_weight_codes", rcpq.pack_weight_codes, codes.reshape(w_r.shape), layout)
    write_and_count(tr, out_path, packed, lut, params)


# ---------------------------------------------------------------------------
# verify and decode share the container build


def build_container(tr, seed: int, path: str):
    """Seeded 4096x4096 weight and clip ratios in [0.5, 1] -> RCPQ file.

    Mirrors the quantize pipeline from the fuse on, with the clip search
    replaced by seeded ratios. Returns the weight, the rotation and the
    layout.
    """
    w = heavy_tailed(rng_for(seed, _WEIGHT), (V_DIM, V_DIM))
    layout = rcpq.GroupLayout(V_DIM, V_DIM, GROUP)
    rot = tr.call("rotation.randomized_hadamard", rcpq.randomized_hadamard, V_DIM, ROTATE_SEED)
    w_r = fuse_and_count(tr, w, rot)
    ratios = rng_for(seed, _RATIOS).uniform(0.5, 1.0, size=(2, V_DIM, layout.num_groups))
    lo_logit, hi_logit = np.clip(logit(ratios), -LOGIT_LIMIT, LOGIT_LIMIT)
    zeros = np.zeros_like(ratios[0])
    search = rcpq.ClipSearchResult(lo_logit, hi_logit, ratios[0], ratios[1], zeros, zeros)
    params = tr.call("calib.ldp_init", rcpq.ldp_init, search)
    narrow_params(params)
    codes = fake_quant_and_count(tr, layout, w_r, params)
    lut = tr.call("pack.build_lut", rcpq.build_lut, w_r, layout, params)
    packed = tr.call("pack.pack_weight_codes", rcpq.pack_weight_codes, codes.reshape(w_r.shape), layout)
    write_and_count(tr, path, packed, lut, params)
    return w, rot, layout


VERDICT_KEYS = ("codes_match", "lut_match", "gemv_ref_gap", "gemv_fast_gap")


class Verify:
    """``rcpq verify --rotate 7`` on a 4096x4096 container with 64 tokens."""

    name = "verify"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.container = os.path.join(workdir, "v.rcpq")
        self.w_path = os.path.join(workdir, "w.npy")
        self.x_path = os.path.join(workdir, "x.npy")
        self.report = os.path.join(workdir, "verify.json")

    def setup(self, tr) -> None:
        w, _, _ = build_container(tr, self.seed, self.container)
        tr.call("core.save_npy", rcpq.save_npy, w, self.w_path)
        x = activations(rng_for(self.seed, _ACTS), V_TOKENS, outlier_channels(self.seed, V_DIM), V_DIM)
        tr.call("core.save_npy", rcpq.save_npy, x, self.x_path)
        read_and_count(tr, self.container)

    def inputs(self, i: int) -> None:
        return None

    def op(self, inp, tr) -> dict:
        if not tr.enabled:
            rc, text = run_cli(["verify", self.container, "--against", self.w_path, "--acts", self.x_path,
                                "--rotate", str(ROTATE_SEED), "--json", self.report])
            verdict = {"exit": rc, "output": text.strip()}
            if os.path.exists(self.report):
                with open(self.report) as fh:
                    report = json.load(fh)
                os.remove(self.report)
                verdict.update({k: report.get(k) for k in VERDICT_KEYS})
            return verdict
        return replay_verify(tr, self.container, self.w_path, self.x_path)

    def check(self, i: int, inp, verdict: dict, tr) -> tuple[bool, str]:
        if verdict["exit"] != 0:
            return False, f"rcpq verify exited {verdict['exit']}: {verdict.get('output', '')}"
        return True, ""

    @staticmethod
    def fidelity(plain: dict, traced: dict) -> tuple[bool, str]:
        keys = ("exit",) + VERDICT_KEYS
        same = all(plain.get(k) == traced.get(k) for k in keys)
        return same, "" if same else f"replay verdict {traced} differs from rcpq verify's {plain}"

    @staticmethod
    def named(op_s: float, rate: float) -> dict:
        return {"verify_s": (op_s, "s")}

    @staticmethod
    def working_set() -> dict:
        return {
            "weight_f64": V_DIM * V_DIM * 8,
            "rotation_f64": V_DIM * V_DIM * 8,
            "fake_quant_threshold_masks": V_DIM * V_DIM * 3,
            "packed_weights": V_DIM * V_DIM // 4,
            "lut_f16": V_DIM * (V_DIM // GROUP) * 4 * 2,
            "params_f32": V_DIM * (V_DIM // GROUP) * 4 * 4,
        }


def replay_verify(tr, container_path: str, w_path: str, x_path: str) -> dict:
    """The public calls ``rcpq verify`` makes, in its order, one span each.

    Returns the verdict in the shape of the command's JSON report.
    """
    container = read_and_count(tr, container_path)
    layout = container.weights.layout
    w = tr.call("core.load_npy", rcpq.load_npy, w_path)
    x = tr.call("core.load_npy", rcpq.load_npy, x_path)
    layout.check(w)
    rot = tr.call("rotation.randomized_hadamard", rcpq.randomized_hadamard, layout.in_channels, ROTATE_SEED)
    w_r = fuse_and_count(tr, w, rot)
    x_r = tr.call("rotation.apply_online", rcpq.apply_online, x, rot)
    codes = fake_quant_and_count(tr, layout, w_r, container.params)
    stored = tr.call("pack.unpack_weight_codes", rcpq.unpack_weight_codes, container.weights)
    if not np.array_equal(codes, stored.reshape(codes.shape)):
        return {"exit": cli.FAILURE_EXIT, "codes_match": False}
    lut = tr.call("pack.build_lut", rcpq.build_lut, w_r, layout, container.params)
    if not np.array_equal(lut.table, container.lut.table):
        return {"exit": cli.FAILURE_EXIT, "codes_match": True, "lut_match": False}
    token = x_r[np.flatnonzero(np.abs(x_r).max(axis=1) > 0)[0]]
    act_codes, scales = tr.call("uniform.quant_act_per_token", rcpq.quant_act_per_token, token[None, :])
    x_packed = tr.call("pack.pack_activation_codes", rcpq.pack_activation_codes, act_codes[0])
    task = rcpq.GemvTask(x_packed=x_packed, scale=float(scales[0]), weights=container.weights,
                         lut=container.lut, layout=layout)
    oracle = tr.call("gemv.dense_oracle", rcpq.dense_oracle, task)
    gap_ref = relative_gap(tr.call("gemv.gemv_ref", rcpq.gemv_ref, task), oracle)
    gap_fast = relative_gap(gemv_fast_and_count(tr, task), oracle)
    ok = gap_ref <= GEMV_TOL and gap_fast <= GEMV_TOL
    return {"exit": 0 if ok else cli.FAILURE_EXIT, "codes_match": True, "lut_match": True,
            "gemv_ref_gap": gap_ref, "gemv_fast_gap": gap_fast}


@dataclass
class DecodeResult:
    task: rcpq.GemvTask
    y: np.ndarray


class Decode:
    """One token through the 4096x4096 container: online rotation, 4-bit
    per-token activation quantization, activation packing, fast GEMV."""

    name = "decode"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.path = os.path.join(workdir, "d.rcpq")
        self.gaps: list[float] = []

    def setup(self, tr) -> None:
        self.container = self.rot = None  # release the previous build before the next
        _, self.rot, self.layout = build_container(tr, self.seed, self.path)
        self.container = read_and_count(tr, self.path)
        self.outliers = outlier_channels(self.seed, V_DIM)

    def inputs(self, i: int) -> np.ndarray:
        return activations(rng_for(self.seed, _TOKEN, i), 1, self.outliers, V_DIM)

    def op(self, x: np.ndarray, tr) -> DecodeResult:
        x_r = tr.call("rotation.apply_online", rcpq.apply_online, x, self.rot)
        codes, scales = tr.call("uniform.quant_act_per_token", rcpq.quant_act_per_token, x_r)
        x_packed = tr.call("pack.pack_activation_codes", rcpq.pack_activation_codes, codes[0])
        task = rcpq.GemvTask(x_packed=x_packed, scale=float(scales[0]), weights=self.container.weights,
                             lut=self.container.lut, layout=self.layout)
        return DecodeResult(task, gemv_fast_and_count(tr, task))

    def check(self, i: int, x, res: DecodeResult, tr) -> tuple[bool, str]:
        if i % DECODE_CHECK_EVERY:
            return True, ""
        gap = relative_gap(res.y, tr.call("gemv.dense_oracle", rcpq.dense_oracle, res.task))
        self.gaps.append(gap)
        if not gap <= GEMV_TOL:
            return False, f"token {i}: oracle gap {gap:.3e} exceeds {GEMV_TOL:.0e}"
        return True, ""

    @staticmethod
    def fidelity(plain: DecodeResult, traced: DecodeResult) -> tuple[bool, str]:
        same = np.array_equal(plain.y, traced.y)
        return same, "" if same else "traced GEMV output differs from untraced"

    def named(self, op_s: float, rate: float) -> dict:
        return {
            "decode_tokens_per_s": (rate, "1/s"),
            "decode_ms_p50": (op_s * 1e3, "ms"),
            "decode_rel_gap": (max(self.gaps) if self.gaps else float("nan"), "ratio"),
        }

    @staticmethod
    def working_set() -> dict:
        return {
            "rotation_f64_read_per_token": V_DIM * V_DIM * 8,
            "rotation_f32_cast_per_token": V_DIM * V_DIM * 4,
            "gemv_bytes_per_call": V_DIM * V_DIM // 4 + V_DIM * (V_DIM // GROUP) * 8 + V_DIM // 2,
        }


# ---------------------------------------------------------------------------
# train


class Train:
    """``train_toy(DistillConfig(seed=<workload seed>))``: 200 steps on the
    default toy model, repeated with the same seed."""

    name = "train"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.first_trace: list[float] | None = None
        self.loss_ratios: list[float] = []

    def setup(self, tr) -> None:
        # Warm-up: model build, initial clip search, one step and the eval.
        rcpq.train_toy(rcpq.DistillConfig(seed=self.seed, steps=1))

    def inputs(self, i: int) -> rcpq.DistillConfig:
        return rcpq.DistillConfig(seed=self.seed)

    def op(self, cfg: rcpq.DistillConfig, tr):
        rep = tr.call("qat.train_toy", rcpq.train_toy, cfg)
        tr.count("qat.steps", len(rep.loss_trace))
        return rep

    def check(self, i: int, cfg, rep, tr) -> tuple[bool, str]:
        trace = rep.loss_trace
        if not np.all(np.isfinite(trace)):
            return False, f"call {i}: non-finite loss"
        if not trace[-1] < trace[0]:
            return False, f"call {i}: loss {trace[0]:.4f} -> {trace[-1]:.4f} did not fall"
        if self.first_trace is None:
            self.first_trace = list(trace)
        elif trace != self.first_trace:
            return False, f"call {i}: loss trace differs from the first call's with the same seed"
        self.loss_ratios.append(rep.final_loss / rep.initial_loss)
        return True, ""

    @staticmethod
    def fidelity(plain, traced) -> tuple[bool, str]:
        same = plain.loss_trace == traced.loss_trace
        return same, "" if same else "traced loss trace differs from untraced"

    def named(self, op_s: float, rate: float) -> dict:
        ratio = self.loss_ratios[0] if self.loss_ratios else float("nan")
        return {"train_s": (op_s, "s"), "train_loss_ratio": (ratio, "ratio")}

    @staticmethod
    def working_set() -> dict:
        spec = rcpq.ToyModelSpec()
        cfg = rcpq.DistillConfig()
        return {
            "weights_f64": (spec.hidden * spec.in_dim + spec.classes * spec.hidden) * 8,
            "batch_f64": cfg.batch * spec.in_dim * 8,
        }


WORKLOADS = {w.name: w for w in (Quantize, Verify, Decode, Train)}


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced run. A layer a workload never calls reads 0.

# metric -> span; the value is the median span duration per call.
PER_CALL = {
    "calib.search_s": "calib.grid_search_clip",
    "rotation.hadamard_s": "rotation.randomized_hadamard",
    "rotation.fuse_s": "rotation.fuse",
    "rotation.apply_online_s": "rotation.apply_online",
    "ldp.fake_quant_s": "ldp.fake_quant",
    "ldp.init_s": "calib.ldp_init",
    "uniform.quant_act_ms": "uniform.quant_act_per_token",
    "pack.build_lut_s": "pack.build_lut",
    "pack.pack_weights_s": "pack.pack_weight_codes",
    "pack.unpack_weights_s": "pack.unpack_weight_codes",
    "pack.pack_act_ms": "pack.pack_activation_codes",
    "pack.write_s": "pack.write_rcpq",
    "pack.read_s": "pack.read_rcpq",
    "gemv.fast_ms": "gemv.gemv_fast",
    "gemv.ref_s": "gemv.gemv_ref",
    "gemv.oracle_s": "gemv.dense_oracle",
    "core.load_npy_s": "core.load_npy",
    "qat.train_toy_s": "qat.train_toy",
}


def layer_metrics(tr) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``."""

    def med(values):
        return float(np.median(values)) if values else 0.0

    def rate(total, seconds):
        return total / seconds if seconds > 0 else 0.0

    counts = {name: tr.counts.get(name, []) for name in (
        "calib.groups", "calib.candidates", "calib.clipped", "calib.degenerate_groups",
        "rotation.fuse_flop", "ldp.weights", "pack.bytes_written", "pack.bytes_read",
        "gemv.bytes", "gemv.macs", "qat.steps")}
    out = {}
    for metric, span in PER_CALL.items():
        scale, unit = (1e3, "ms") if metric.endswith("_ms") else (1.0, "s")
        out[metric] = (med(tr.durations(span)) * scale, unit)
    search_s = sum(tr.durations("calib.grid_search_clip"))
    groups = sum(counts["calib.groups"])
    out.update({
        "calib.groups": (med(counts["calib.groups"]), "count"),
        "calib.candidates": (med(counts["calib.candidates"]), "count"),
        "calib.candidates_per_s": (rate(sum(counts["calib.candidates"]), search_s), "1/s"),
        "calib.clipped_frac": (sum(counts["calib.clipped"]) / groups if groups else 0.0, "ratio"),
        "calib.degenerate_groups": (sum(counts["calib.degenerate_groups"]), "count"),
        "rotation.fuse_gflop": (med(counts["rotation.fuse_flop"]) / 1e9, "GFLOP"),
        "ldp.weights_per_s": (rate(sum(counts["ldp.weights"]), sum(tr.durations("ldp.fake_quant"))), "1/s"),
        "pack.bytes_written": (med(counts["pack.bytes_written"]), "B"),
        "pack.bytes_read": (med(counts["pack.bytes_read"]), "B"),
        "gemv.bytes_per_call": (med(counts["gemv.bytes"]), "B"),
        "gemv.gbytes_per_s": (
            rate(sum(counts["gemv.bytes"]), sum(tr.durations("gemv.gemv_fast"))) / 1e9, "GB/s"),
        "gemv.macs_per_call": (med(counts["gemv.macs"]), "count"),
        "qat.steps": (med(counts["qat.steps"]), "count"),
    })
    return out
