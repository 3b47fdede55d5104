"""One benchmark process: set a workload up, then run it in a closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

``run.py`` starts this process and times its set-up from the moment it
starts it until the ``ready`` line.  The last line on standard output is a
JSON object with the counts and the raw metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402  (needs the package path above)
from spans import Tracer, layer_metrics, untraced  # noqa: E402

OUT = ROOT / ".perfbench"
WORKDIR = OUT / f"cli-{os.getpid()}"  # the CLI workload's input files
CLI_PROBE_REPEATS = 3


class Tally:
    """Latencies, counts and per-pass counters of a run's passes."""

    def __init__(self):
        self.latencies: list[float] = []
        self.pass_times: list[float] = []
        self.ops_per_pass = 0
        self.attempted = 0
        self.failed = Counter()
        self.wrong: list[str] = []
        self.first_pass: Counter | None = None


def run_passes(wl, call, seconds: float, min_ops: int, tally: Tally, tracer: Tracer | None = None) -> Tally:
    """Whole passes over the workload's operations until ``seconds`` have
    passed and at least ``min_ops`` operations have run; at least one pass."""
    deadline = time.perf_counter() + seconds
    tally.ops_per_pass = len(wl.ops)
    while True:
        counters = Counter()
        pass_time = 0.0
        for op in wl.ops:
            if tracer is not None:
                tracer.begin_op()
            start = time.perf_counter_ns()
            try:
                outcome, error = op.run(call), None
            except Exception as exc:  # the operation crashed: a failed operation
                outcome, error = None, exc
            end = time.perf_counter_ns()
            if tracer is not None:
                tracer.end_op(op.label, start, end)
                if op.probe is not None and error is None:
                    op.probe(tracer)
            dt = (end - start) / 1e9
            tally.latencies.append(dt)
            pass_time += dt
            tally.attempted += 1
            if error is None:
                try:
                    counters.update(op.check(outcome))
                except W.CrashError as exc:
                    error = exc
                except Exception as exc:  # a wrong answer, or output the oracle cannot read
                    tally.wrong.append(f"{op.label}: {type(exc).__name__}: {exc}")
                    counters.update(getattr(exc, "counters", {}))
            if error is not None:
                tally.failed[f"{op.label}: {type(error).__name__}"] += 1
        tally.pass_times.append(pass_time)
        if tally.first_pass is None:
            tally.first_pass = counters
        if time.perf_counter() >= deadline and tally.attempted >= min_ops:
            return tally


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(wl, tally: Tally) -> dict:
    first = tally.first_pass
    return {
        "ops_per_s": len(tally.latencies) / sum(tally.latencies),
        "latency_p50_ms": statistics.median(tally.latencies) * 1e3,
        "latency_tail_ms": percentile(tally.latencies, wl.tail_pct) * 1e3,
        "peak_rss_mb": wl.peak_rss_mb(),
        "proof_nodes": first["proof_nodes"],
        "decided": first["decided"],
    }


def traced_run(wl, args, tracer: Tracer, declared: list[dict]) -> tuple[dict, Tally]:
    """Untraced and traced passes in turn, then one traced pass of every
    other workload (for the CLI, one operation of each subcommand and the
    interpreter probes), so that every layer's metrics are measured.

    The tracing overhead is the median ratio of each traced pass to the
    untraced pass before it; pairing neighbours keeps drift in the host's
    speed out of it."""
    plain, traced = Tally(), Tally()
    deadline = time.perf_counter() + args.seconds
    while True:
        run_passes(wl, untraced, 0, 0, plain)
        run_passes(wl, tracer, 0, 0, traced, tracer)
        if time.perf_counter() >= deadline:
            break
    counters = dict(traced.first_pass)
    tally = Tally()
    tally.latencies = plain.latencies + traced.latencies
    tally.pass_times = plain.pass_times + traced.pass_times
    tally.ops_per_pass = len(wl.ops)
    tally.attempted = plain.attempted + traced.attempted
    tally.failed = plain.failed + traced.failed
    tally.wrong = plain.wrong + traced.wrong
    for other in W.WORKLOADS:
        if other == wl.name:
            continue
        ow = W.Workload(other, args.seed, ROOT, tracer, WORKDIR)
        if other == "cli":  # one operation of each subcommand
            ow.ops = ow.one_per_label
        extra = run_passes(ow, tracer, 0, 0, Tally(), tracer)
        tally.wrong += extra.wrong
        for key, value in extra.first_pass.items():
            counters.setdefault(key, value)
    cli = wl.cli or W.Cli(ROOT, WORKDIR)
    W.cli_probes(cli, tracer, CLI_PROBE_REPEATS)
    ratios = [t / u for u, t in zip(plain.pass_times, traced.pass_times)]
    counters["trace.overhead_pct"] = 100 * (statistics.median(ratios) - 1)
    counters["transforms.cuts_removed"] = 1 - counters["transforms.cuts_left"] / counters["transforms.cuts_present"]
    metrics = layer_metrics(tracer, counters, declared)
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "overhead_pct": counters["trace.overhead_pct"],
        "untraced_pass_s": statistics.median(plain.pass_times),
        "traced_pass_s": statistics.median(traced.pass_times),
        "table": tracer.table(),
        "spans": tracer.spans,
        "derived": tracer.derived,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
    path.write_text(json.dumps(report))
    _print_table(report["table"], path)
    return {k: v["value"] for k, v in metrics.items()}, tally


def _print_table(table: dict, path: Path) -> None:
    err = sys.stderr
    print(f"spans and table written to {path.relative_to(ROOT)}", file=err)
    print(f"{'name':40} {'kind':>9} {'bucket':>10} {'count':>7} {'self ms':>10} {'median us':>11}", file=err)
    for row in table["calls"]:
        print(
            f"{row['name']:40} {row['kind']:>9} {str(row['bucket'] or ''):>10} {row['count']:7d} "
            f"{row['self_ms']:10.1f} {row['median_us']:11.1f}",
            file=err,
        )
    print("self time by layer (ms): " + ", ".join(f"{k} {v:.1f}" for k, v in table["layer_self_ms"].items()), file=err)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=W.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    tracer = Tracer() if args.trace else None
    try:
        wl = W.Workload(args.workload, args.seed, ROOT, tracer or untraced, WORKDIR)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
            metrics, tally = traced_run(wl, args, tracer, declared)
        else:
            tally = run_passes(wl, untraced, args.seconds, wl.min_ops, Tally())
            metrics = end_to_end(wl, tally)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    for line in tally.wrong[:10]:
        print("WRONG " + line, file=sys.stderr)
    for label, count in sorted(tally.failed.items()):
        print(f"failed {count}x {label}", file=sys.stderr)
    result = {
        "attempted": tally.attempted,
        "failed": sum(tally.failed.values()),
        "wrong": len(tally.wrong),
        "samples": len(tally.latencies),
        "passes": len(tally.pass_times),
        "ops_per_pass": tally.ops_per_pass,
        "tail_pct": wl.tail_pct,
        "failures": dict(tally.failed),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
