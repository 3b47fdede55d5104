"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds one result per line, as ``run.py --out`` appends them.  For
every workload and end-to-end metric the verdict is:

* ``unresolved`` when either side's spread (quartile distance over median)
  exceeds the bound, unless every new run is better than every base run;
* ``worse`` when the new median is worse than the base median by more than
  the bound;
* ``better`` when the new median is better by more than both sides' spreads;
* ``within bound`` otherwise.

The attempted and failed operation counts of each side are shown beside
them, with a warning when the two sides ran different seeds (inputs differ
with the seed, so only figures from the same seeds compare like with like).
The exit code is 1 when any pair is worse, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """workload -> list of untraced results."""
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec.get("trace"):
                runs[rec["workload"]].append(rec)
    return runs


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def summary(runs: list[dict], metric: str) -> dict:
    values = [r["metrics"][metric]["value"] for r in runs]
    return {"values": values, "median": statistics.median(values), "spread": spread(values)}


def verdict(base: dict, new: dict, bound: float, better: str) -> tuple[str, float]:
    sign = 1 if better == "higher" else -1
    change = sign * (new["median"] - base["median"]) / base["median"] if base["median"] else 0.0
    if max(base["spread"], new["spread"]) > bound:
        if better == "higher":
            improved = min(new["values"]) > max(base["values"])
        else:
            improved = max(new["values"]) < min(base["values"])
        return ("better" if improved else "unresolved"), change
    if change < -bound:
        return "worse", change
    if change > max(base["spread"], new["spread"]) and change > 0:
        return "better", change
    return "within bound", change


def counts(runs: list[dict]) -> str:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return f"{failed}/{attempted} failed"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(argv[0]), load(argv[1])
    worse = False
    print(f"{'workload':10} {'metric':16} {'base median':>13} {'new median':>13} {'change':>8} "
          f"{'spreads':>13} {'bound':>6}  verdict")
    for wl in sorted(set(base) | set(new)):
        if not base.get(wl) or not new.get(wl):
            print(f"{wl:10} runs missing on one side")
            continue
        for m in bench["end_to_end"]:
            b, n = summary(base[wl], m["name"]), summary(new[wl], m["name"])
            v, change = verdict(b, n, m["bound"], m["better"])
            worse |= v == "worse"
            print(f"{wl:10} {m['name']:16} {b['median']:13.6g} {n['median']:13.6g} {change:+8.1%} "
                  f"{b['spread']:6.1%}/{n['spread']:6.1%} {m['bound']:6.0%}  {v}")
        print(f"{wl:10} operations: base {counts(base[wl])}, new {counts(new[wl])}")
        seeds = [sorted(r["seed"] for r in side[wl]) for side in (base, new)]
        if seeds[0] != seeds[1]:
            print(f"{wl:10} warning: the two sets ran different seeds: {seeds[0]} and {seeds[1]}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
