"""Command-line surface tying the modules into reproducible runs.

Every subcommand is a pure function of its inputs, flags, and seed; reports
carry the tool version and the fully resolved configuration. A human
summary goes to stdout and, with ``--json PATH``, the machine report is
written there. Exit codes: 0 success, 1 usage error, 2 data or verification
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import __version__, _native
from .calib import ClipSearchConfig, clipped_uniform_quantizer
from .core import GroupLayout, load_npy, make_rng
from .errors import RcpqError, ZeroTokenError
from .gemv import GemvTask, bench_gemv, decode_dense, gemv_fast, gemv_ref, random_activation
from .pack import pack_activation_codes, read_rcpq, unpack_weight_codes, write_rcpq
from .pipeline import encode, quantize_layer, rotate
from .qat import DistillConfig, train_toy
from .rotation import fuse, randomized_hadamard
from .stats import analytic_kurtosis, groupwise_kurtosis, qerr_vs_kurt, rotation_kurtosis_mc
from .uniform import quant_act_per_token

USAGE_EXIT = 1
FAILURE_EXIT = 2
GEMV_TOL = 1e-5  # verify's bound on each GEMV path's per-row relative gap to the oracle


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _emit(report: dict, json_path: str | None) -> None:
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(report, fh, indent=2, default=_jsonable)
        print(f"report written to {json_path}")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _base_report(command: str, args: argparse.Namespace) -> dict:
    config = {k: v for k, v in vars(args).items() if k != "func"}
    return {"tool": "rcpq", "version": __version__, "command": command, "config": config}


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_stats(args) -> int:
    w = load_npy(args.weights)
    layout = GroupLayout(w.shape[0], w.shape[1], args.group)
    report = _base_report("stats", args)
    kr = groupwise_kurtosis(w, layout)
    report["kurtosis"] = {
        "mean": float(kr.per_group.mean()),
        "platykurtic_fraction": kr.platykurtic_fraction,
    }
    print(f"groups: {layout.out_channels}x{layout.num_groups} (G={layout.group_size})")
    print(f"mean group kurtosis: {kr.per_group.mean():+.4f}  platykurtic: {kr.platykurtic_fraction:.1%}")

    if args.rotate is not None:
        rot = randomized_hadamard(layout.in_channels, args.rotate)
        kr_rot = groupwise_kurtosis(fuse(w, None, rot), layout)
        report["kurtosis_rotated"] = {
            "mean": float(kr_rot.per_group.mean()),
            "platykurtic_fraction": kr_rot.platykurtic_fraction,
            "mean_delta": float((kr_rot.per_group - kr.per_group).mean()),
        }
        print(f"rotated mean kurtosis: {kr_rot.per_group.mean():+.4f} "
              f"(delta {report['kurtosis_rotated']['mean_delta']:+.4f})")

    if args.acts:
        x = load_npy(args.acts)
        qr = qerr_vs_kurt(w, x, rot, clipped_uniform_quantizer(ClipSearchConfig(grid=args.grid)), layout)
        report["qerr_vs_kurt"] = {
            "tokens": qr.tokens,
            "spearman": qr.spearman,
            "mean_delta_qerr": float(qr.delta_qerr.mean()),
            "mean_delta_kurt": float(qr.delta_kurt.mean()),
        }
        print(f"qerr-vs-kurt over T={qr.tokens} tokens: spearman={qr.spearman:+.3f} "
              f"mean dQErr={qr.delta_qerr.mean():+.3e}")
    _emit(report, args.json)
    return 0


def _cmd_lemma1(args) -> int:
    rep = rotation_kurtosis_mc(args.dist, args.n, args.trials, args.seed)
    report = _base_report("lemma1", args)
    report.update(dataclasses.asdict(rep), analytic_before=analytic_kurtosis(args.dist))
    print(f"{rep.dist} n={rep.n} trials={rep.trials}")
    print(f"kurtosis before: {rep.kurt_before:+.5f} (analytic {analytic_kurtosis(args.dist):+.2f})")
    print(f"kurtosis after : {rep.kurt_after:+.5f} (law predicts {rep.expected_after:+.5f})")
    _emit(report, args.json)
    return 0


def _cmd_quantize(args) -> int:
    w = load_npy(args.weights)
    x = load_npy(args.calib)
    layout = GroupLayout(w.shape[0], w.shape[1], args.group)
    if x.shape[1] != layout.in_channels:
        raise RcpqError(f"calib activations {x.shape} do not match weights {w.shape}")
    t0 = time.perf_counter()
    search, params, lut, packed = quantize_layer(w, x, layout, args.rotate, args.grid)
    write_rcpq(args.out, packed, lut, params)
    elapsed = time.perf_counter() - t0
    weight_bytes = packed.data.nbytes
    lut_bytes = lut.table.nbytes
    fp16_bytes = w.size * 2
    report = _base_report("quantize", args)
    report.update(
        weight_bytes=weight_bytes,
        lut_bytes=lut_bytes,
        effective_bits_per_weight=8.0 * (weight_bytes + lut_bytes) / w.size,
        compression_vs_fp16=fp16_bytes / (weight_bytes + lut_bytes),
        mean_objective=float(search.objective.mean()),
        degenerate_groups=len(search.degenerate_groups),
        ldp_kernel=_native.path("ldp"),
        seconds=elapsed,
    )
    print(f"wrote {args.out}: weights {weight_bytes} B + LUT {lut_bytes} B "
          f"({report['effective_bits_per_weight']:.2f} bits/weight, "
          f"{report['compression_vs_fp16']:.2f}x vs fp16) in {elapsed:.1f}s")
    _emit(report, args.json)
    return 0


def _oracle(task: GemvTask) -> tuple[np.ndarray, np.ndarray]:
    """The float64 oracle ``W @ x`` and, per row, ``|W| @ |x|``, from one decode."""
    w, x = decode_dense(task)
    oracle = w @ x
    return oracle, np.abs(w, out=w) @ np.abs(x)


def _relative_gap(y: np.ndarray, oracle: np.ndarray, magnitude: np.ndarray) -> float:
    """Max over rows of ``|y_h - oracle_h| / magnitude_h``.

    ``magnitude`` is ``sum_c |w_hc| * |x_c|`` per row (see ``_oracle``): the
    size of the terms a row sums, which bounds its float32 accumulation
    error. ``max |oracle|`` does not: on a layer with few rows every output
    can be small by cancellation. A NaN in ``y`` gives a NaN gap.
    """
    err = np.abs(y.astype(np.float64) - oracle)
    return float(np.max(err / np.maximum(magnitude, 1e-30)))


def _cmd_verify(args) -> int:
    container = read_rcpq(args.container)
    layout = container.weights.layout
    w = load_npy(args.against)
    x = load_npy(args.acts)
    layout.check(w)
    if x.shape[1] != layout.in_channels:
        raise RcpqError(f"activations {x.shape} do not match container layout")
    if container.params is None:
        raise RcpqError("container has no parameter section; cannot re-derive codes")

    w_r, x_r = rotate(w, x, args.rotate, container.version)
    codes, lut = encode(w_r, layout, container.params)
    stored = unpack_weight_codes(container.weights).reshape(codes.shape)
    if not np.array_equal(codes, stored):
        h, n, g = map(int, np.argwhere(codes != stored)[0])
        print(f"FAIL: stored codes diverge from recomputed at (h={h}, g={n}, col={n * layout.group_size + g})")
        return FAILURE_EXIT

    if not np.array_equal(lut.table, container.lut.table):
        h, n = map(int, np.argwhere((lut.table != container.lut.table).any(axis=-1))[0])
        print(f"FAIL: LUT mismatch at (h={h}, g={n})")
        return FAILURE_EXIT

    nonzero = np.flatnonzero(np.abs(x_r).max(axis=1) > 0)
    if nonzero.size == 0:
        raise ZeroTokenError(f"{args.acts}: no token has a non-zero activation")
    token = x_r[nonzero[0]]
    act_codes, scales = quant_act_per_token(token[None, :])
    task = GemvTask(
        x_packed=pack_activation_codes(act_codes[0]),
        scale=float(scales[0]),
        weights=container.weights,
        lut=container.lut,
        layout=layout,
    )
    oracle, magnitude = _oracle(task)
    gap_ref = _relative_gap(gemv_ref(task), oracle, magnitude)
    gap_fast = _relative_gap(gemv_fast(task), oracle, magnitude)
    report = _base_report("verify", args)
    report.update(container_version=container.version, ldp_kernel=_native.path("ldp"), codes_match=True,
                  lut_match=True, gemv_ref_gap=gap_ref, gemv_fast_gap=gap_fast)
    if not (gap_ref <= GEMV_TOL and gap_fast <= GEMV_TOL):  # a NaN gap fails too
        print(f"FAIL: GEMV gap ref={gap_ref:.2e} fast={gap_fast:.2e} exceeds {GEMV_TOL:.0e}")
        _emit(report, args.json)
        return FAILURE_EXIT
    print(f"OK: codes and LUT reproduce; GEMV gaps ref={gap_ref:.2e} fast={gap_fast:.2e}")
    _emit(report, args.json)
    return 0


def _cmd_gemv_bench(args) -> int:
    container = read_rcpq(args.container)
    layout = container.weights.layout
    x_packed, scale = random_activation(make_rng(args.seed), layout.in_channels)
    task = GemvTask(
        x_packed=x_packed,
        scale=scale,
        weights=container.weights,
        lut=container.lut,
        layout=layout,
    )
    bench = bench_gemv(task, iters=args.iters)  # rejects iters < 1 before the decode
    gap = _relative_gap(gemv_fast(task), *_oracle(task))
    report = _base_report("gemv-bench", args)
    report.update(bench, oracle_gap=gap)
    print(f"H={layout.out_channels} C={layout.in_channels} G={layout.group_size}")
    print(f"ref : {bench['ref_ns_per_call'] / 1e6:.3f} ms/call ({bench['ref_iters']} iters)")
    print(f"fast: {bench['fast_ns_per_call'] / 1e6:.3f} ms/call ({bench['fast_iters']} iters, "
          f"{bench['kernel']} kernel, {bench['fast_gbytes_per_s']:.2f} GB/s)")
    print(f"speedup: {bench['speedup']:.2f}x  oracle gap: {gap:.2e}")
    _emit(report, args.json)
    return 0


def _cmd_train_toy(args) -> int:
    cfg = DistillConfig(
        seed=args.seed,
        steps=args.steps,
        batch=args.batch,
        freeze_partitions=args.freeze_partitions,
    )
    rep = train_toy(cfg)
    report = _base_report("train-toy", args)
    report.update(
        alpha=rep.alpha,
        initial_loss=rep.initial_loss,
        final_loss=rep.final_loss,
        loss_ratio=rep.final_loss / rep.initial_loss,
        max_loss_spike=rep.max_loss_spike,
        agreement=rep.agreement,
        loss_trace=rep.loss_trace,
        levels=[lv.tolist() for lv in rep.levels],
    )
    print(f"alpha={rep.alpha:.3f} steps={args.steps} batch={args.batch}")
    print(f"loss {rep.initial_loss:.4f} -> {rep.final_loss:.4f} "
          f"({rep.final_loss / rep.initial_loss:.2%} of initial)")
    print(f"teacher agreement: {rep.agreement:.1%}  max loss spike: {rep.max_loss_spike:+.4f}")
    _emit(report, args.json)
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="rcpq", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rcpq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="group-wise kurtosis (and error-vs-kurtosis) report")
    p.add_argument("--weights", required=True)
    p.add_argument("--group", type=int, default=128)
    p.add_argument("--rotate", type=int, default=None, metavar="SEED")
    p.add_argument("--acts", default=None)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("lemma1", help="Monte Carlo check of the kurtosis flattening law")
    p.add_argument("--dist", default="uniform", choices=["uniform", "rademacher", "gaussian", "arcsine"])
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_lemma1)

    p = sub.add_parser("quantize", help="rotate, clip-search, partition, pack to RCPQ")
    p.add_argument("--weights", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--group", type=int, default=128)
    p.add_argument("--rotate", type=int, default=None, metavar="SEED")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--out", required=True)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("verify", help="re-derive codes/LUT and cross-check GEMV paths")
    p.add_argument("container")
    p.add_argument("--against", required=True)
    p.add_argument("--acts", required=True)
    p.add_argument("--rotate", type=int, default=None, metavar="SEED")
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gemv-bench", help="latency of the reference vs fast GEMV")
    p.add_argument("container")
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_gemv_bench)

    p = sub.add_parser("train-toy", help="toy distillation loop with learnable partitions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--freeze-partitions", action="store_true")
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_train_toy)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "stats" and args.acts is not None and args.rotate is None:
        # qerr_vs_kurt compares the rotated weight with the plain one;
        # without a rotation every delta is 0 and the rank correlation NaN.
        parser.error("stats: --acts requires --rotate")
    try:
        return args.func(args)
    except RcpqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE_EXIT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
