"""Benchmark entry point: run one workload of tensorlogic and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run it from the root of a checkout.  The work happens in a child process
(``worker.py``); this process times the child's set-up, from starting it
until it reports ``ready``, and sets up twice more in separate processes so
that ``setup_s`` is a median of three.  With ``--trace 0`` the last line of
standard output is the end-to-end result; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  ``--out`` appends the result, with the
workload and seed, to a JSON-lines file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
WORKER_TIMEOUT_S = 600


def start_worker(args, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and its set-up time in seconds."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not set up (said {line.strip()!r}, exit {proc.returncode})")
    return proc, ready


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the result to this JSON-lines file")
    args = p.parse_args(argv)

    missing = [x for x in ("src/tensorlogic/__init__.py", "theories/locc.thy", "BENCHMARK.json") if not (ROOT / x).is_file()]
    if missing:
        print(f"error: run from a tensorlogic checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(names)}", file=sys.stderr)
        return 2

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                proc, ready = start_worker(args, setup_only=True)
                finish(proc)
                setups.append(ready)
        proc, ready = start_worker(args, setup_only=False)
        setups.append(ready)
        raw = json.loads(finish(proc).strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = dict(raw["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    result = {
        "correct": raw["wrong"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(
        f"{args.workload} seed {args.seed}: {raw['samples']} operations in {raw['passes']} passes of "
        f"{raw['ops_per_pass']}, tail = p{raw['tail_pct']:g}, failures {raw['failures']}",
        file=sys.stderr,
    )
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  "samples": raw["samples"], "passes": raw["passes"], "tail_pct": raw["tail_pct"], **result}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
