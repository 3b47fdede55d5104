"""Spans for the traced run, kept in memory and written out at the end.

The benchmark records one span around each public call it makes, and one
around each operation.  A span is ``(id, name, bucket, start_ns, end_ns,
parent, op)``: ``parent`` is the id of the operation span it belongs to
and ``op`` is the operation's id; an operation's span has no parent, and a
call made outside any operation has neither.  Nothing inside tensorlogic is
instrumented.
"""

from __future__ import annotations

import re
import statistics
import time
from collections import defaultdict


def untraced(name, bucket, fn, *args):
    return fn(*args)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.derived: list[tuple] = []  # (name, bucket, duration_ns): computed, not measured
        self.op: int | None = None

    def __call__(self, name, bucket, fn, *args):
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append((len(self.spans), name, bucket, start, time.perf_counter_ns(), self.op, self.op))

    def begin_op(self) -> None:
        self.op = len(self.spans)
        self.spans.append(None)  # filled in by end_op

    def end_op(self, label: str, start_ns: int, end_ns: int) -> None:
        self.spans[self.op] = (self.op, label, None, start_ns, end_ns, None, self.op)
        self.op = None

    def difference(self, name: str, bucket, minuend: str, subtrahend: str) -> None:
        """A derived duration: the last ``minuend`` span's less the last
        ``subtrahend`` span's (used to take the LP out of a theory decision)."""
        last = {}
        for span in reversed(self.spans):
            if span is not None and span[1] in (minuend, subtrahend) and span[1] not in last:
                last[span[1]] = span[4] - span[3]
            if len(last) == 2:
                break
        self.derived.append((name, bucket, last[minuend] - last[subtrahend]))

    def self_times(self) -> dict[int, int]:
        """Each span's duration less the part its child spans cover."""
        child = defaultdict(int)
        for span in self.spans:
            if span[5] is not None:
                child[span[5]] += span[4] - span[3]
        return {span[0]: span[4] - span[3] - child[span[0]] for span in self.spans}

    def table(self) -> dict:
        """Per kind (operation, call or derived), name and bucket: count,
        total and self time, median.  Self
        time per layer (the module a call is named after) counts only the
        calls made inside operations; the time of an operation outside its
        calls goes to ``between calls``.  Calls outside operations (set-up,
        the probes a traced run adds) and derived durations are listed per
        call but left out of the layers."""
        own = self.self_times()
        rows = defaultdict(list)
        layers = defaultdict(int)
        for span in self.spans:
            kind = "operation" if span[0] == span[6] else "call"
            rows[(kind, span[1], span[2])].append((span[4] - span[3], own[span[0]]))
            if span[5] is not None:
                layers[span[1].split(".")[0]] += own[span[0]]
            elif span[0] == span[6]:
                layers["between calls"] += own[span[0]]
        for name, bucket, dur in self.derived:
            rows[("derived", name, bucket)].append((dur, dur))
        out = []
        for (kind, name, bucket), vals in sorted(rows.items(), key=lambda kv: (kv[0][1], kv[0][0], str(kv[0][2]))):
            out.append(
                {
                    "kind": kind,
                    "name": name,
                    "bucket": bucket,
                    "count": len(vals),
                    "total_ms": sum(v[0] for v in vals) / 1e6,
                    "self_ms": sum(v[1] for v in vals) / 1e6,
                    "median_us": statistics.median(v[0] for v in vals) / 1e3,
                }
            )
        return {"calls": out, "layer_self_ms": {k: v / 1e6 for k, v in sorted(layers.items())}}

    def median(self, name: str, bucket) -> float | None:
        """Median duration in ns of the calls (not operations) named
        ``name``, in ``bucket`` (all buckets when ``bucket`` is None)."""
        vals = [s[4] - s[3] for s in self.spans if s[1] == name and s[0] != s[6] and (bucket is None or s[2] == bucket)]
        vals += [d for n, b, d in self.derived if n == name and (bucket is None or b == bucket)]
        return statistics.median(vals) if vals else None


_TIMED = re.compile(r"^(?P<span>.+)_(?P<unit>us|ms)(?:\.(?P<bucket>[A-Za-z0-9-]+))?$")
_SCALE = {"us": 1e3, "ms": 1e6}


def layer_metrics(tracer: Tracer, counters: dict, declared: list[dict]) -> dict:
    """Every declared per-layer metric: a counter, or the median of the
    spans its name designates (``<module>.<call>_<us|ms>[.<bucket>]``)."""
    out = {}
    for metric in declared:
        name = metric["name"]
        if name in counters:
            value = counters[name]
        else:
            m = _TIMED.match(name)
            ns = tracer.median(m["span"], m["bucket"]) if m else None
            if ns is None:
                raise RuntimeError(f"the traced run produced nothing for {name}")
            value = ns / _SCALE[m["unit"]]
        out[name] = {"value": value, "unit": metric["unit"]}
    return out
