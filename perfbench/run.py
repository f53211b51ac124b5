"""Benchmark runner for the rcpq pipeline.

    python3 perfbench/run.py --workload quantize --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each

Run it from a checkout of the repository: it imports the library from
``src/`` next to this directory and nothing else. With ``--trace 0`` it
times the workload with tracing off and reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced operations on the same
inputs, checks that the traced replay reproduces the untraced output, and
reports the per-layer metrics and the tracing overhead. Human-readable
lines come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full report,
with the environment and, when traced, every span, goes to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from harness import NullTracer, Tally, Tracer, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("quantize", "verify", "decode", "train")

# Set-up runs at least this often and for at least this long; its median
# is reported, so a set-up of a few milliseconds is still measured steadily.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SUBPROCESS_TIMEOUT_S = 900


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_library():
    """Import rcpq from this checkout's ``src/``, capping BLAS threads first."""
    os.environ["RCP_THREADS"] = str(len(os.sched_getaffinity(0)))
    if not (SRC / "rcpq" / "__init__.py").is_file():
        raise SystemExit(f"error: no rcpq package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import rcpq  # before numpy, so RCP_THREADS reaches the BLAS

    if Path(rcpq.__file__).resolve().parent != (SRC / "rcpq").resolve():
        raise SystemExit(f"error: imported rcpq from {rcpq.__file__}, not from {SRC}")


def measure_setup(wl, tracer) -> list[float]:
    """Set the workload up; untraced runs repeat it and keep every duration."""
    if tracer is not None:
        wl.setup(tracer)
        return []
    times: list[float] = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        wl.setup(NullTracer())
        times.append(time.perf_counter() - t0)
    return times


def measure_ops(wl, seconds: float, tracer) -> dict:
    """Closed loop for ``seconds``; with a tracer, each operation runs
    untraced and traced on the same inputs, alternating which goes first."""
    tally = Tally()
    plain_s: list[float] = []
    traced_s: list[float] = []
    root = f"{wl.name}.op"

    def plain(inp):
        t0 = time.perf_counter()
        res = wl.op(inp, NullTracer())
        plain_s.append(time.perf_counter() - t0)
        return res

    def traced(inp):
        t0 = time.perf_counter()
        with tracer.span(root):
            res = wl.op(inp, tracer)
        traced_s.append(time.perf_counter() - t0)
        return res

    end = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < end:
        try:
            inp = wl.inputs(i)
            if tracer is None:
                ok, why = wl.check(i, inp, plain(inp), NullTracer())
            else:
                tracer.op = i
                if i % 2 == 0:
                    a = plain(inp)
                    b = traced(inp)
                else:
                    b = traced(inp)
                    a = plain(inp)
                ok, why = wl.fidelity(a, b)
                if ok:
                    ok, why = wl.check(i, inp, b, tracer)
        except Exception:  # a failed operation is counted, and the loop goes on
            ok, why = False, traceback.format_exc()
        if not ok:
            print(f"FAILED operation {i}: {why}", file=sys.stderr)
        tally.record(ok, why)
        i += 1
    return {"tally": tally, "plain_s": plain_s, "traced_s": traced_s, "root": root}


def end_to_end(setup_s: list[float], plain_s: list[float]) -> dict:
    # The fastest operation, not the median, is the gated latency: the host's
    # speed drifts by up to ~60% over tens of seconds, which moves a run's
    # median with it, while nearly every run still sees the code's own cost.
    return {
        "op_s_min": (min(plain_s), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer: Tracer, loop: dict) -> dict:
    from workloads import layer_metrics

    out = layer_metrics(tracer)
    plain_p50, traced_p50 = statistics.median(loop["plain_s"]), statistics.median(loop["traced_s"])
    ops = [s for s in tracer.spans if s.op >= 0]
    out.update({
        "op.untraced_s": (plain_p50, "s"),
        "op.traced_s": (traced_p50, "s"),
        "op.trace_overhead_s": (traced_p50 - plain_p50, "s"),
        "op.self_s": (statistics.median(tracer.self_times(loop["root"])), "s"),
        "op.spans": (len(ops) / max(1, len(loop["traced_s"])), "count"),
    })
    return out


def print_table(title: str, rows: dict) -> None:
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:28s} {value:>16.6g} {unit}")


def run_one(args) -> int:
    import_library()
    import envinfo
    from workloads import WORKLOADS

    env = envinfo.environment(ROOT)
    wl_cls = WORKLOADS[args.workload]
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        wl = wl_cls(args.seed, str(workdir))
        setup_s = measure_setup(wl, tracer)
        loop = measure_ops(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = loop["tally"]
    plain_s = loop["plain_s"]
    if not plain_s:
        print("error: no operation completed", file=sys.stderr)
        return 2
    p50 = statistics.median(plain_s)
    named = {
        **wl.named(p50, len(plain_s) / sum(plain_s)),
        "fail_frac": (tally.fail_frac, "ratio"),
        "op_s_p50": (p50, "s"),
        "samples": (len(plain_s), "count"),
    }
    tail = tail_percentile(plain_s)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env))
    if tail is None:
        print(f"tail: n/a ({len(plain_s)} samples; a tail needs 10 beyond it)")
    else:
        named[f"op_s_p{tail[0]:g}"] = (tail[1], "s")
    caches = {f"L{c['level']}": c["bytes"] for c in env["caches"]}
    ws = wl_cls.working_set()
    print("working set, computed from array sizes (bytes): "
          + ", ".join(f"{k} {v}" for k, v in ws.items())
          + "  | caches: " + ", ".join(f"{k} {v}" for k, v in caches.items()))

    if args.trace:
        metrics = per_layer(tracer, loop)
        print_table(f"{args.workload} (workload names, traced run)", named)
        print_table("per-layer metrics", metrics)
    else:
        metrics = end_to_end(setup_s, plain_s)
        named.update({k: metrics[k] for k in ("setup_s", "peak_rss_mb")})
        print_table(f"{args.workload} (workload names)", named)
        print_table("end-to-end metrics", metrics)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "working_set_computed_bytes": ws,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_s": setup_s, "op_s": plain_s, "traced_op_s": loop["traced_s"],
        "failures": tally.reasons,
    }
    if tracer is not None:
        report["spans"] = [vars(s) for s in tracer.spans]
        report["counts"] = tracer.counts
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        *lines, last = res.stdout.rstrip("\n").split("\n")
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            print(res.stdout, end="")
            print(f"error: workload {name} exited {res.returncode} without a result", file=sys.stderr)
            return 2
        print("\n".join(lines))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_frac={result['failed'] / result['attempted']:g}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
