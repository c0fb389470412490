"""In-memory spans and counts recorded around the benchmark's calls into contactk.

A span is (name, op, parent, start, end); every span opened while an op
runs carries that op's number.  Self time is a span's duration minus the
durations of its direct children, which run inside it one after another.
Spans are written out only when the run ends, so recording costs one
`perf_counter` pair and a list append per call.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NULL = nullcontext()


class NullTracer:
    """Stands in for `Tracer` on untraced runs: records nothing."""

    enabled = False
    op = None

    def span(self, name):
        return _NULL

    def count(self, name, value):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.op = None
        self.spans: list = []
        self.counts: list = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, self.op, parent, start, end)

    def count(self, name, value):
        self.counts.append((name, self.op, value))

    def self_times(self) -> list[tuple[str, object, float]]:
        """(name, op, self seconds) for every span."""
        child_time = [0.0] * len(self.spans)
        for _name, _op, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [(name, op, end - start - child_time[sid])
                for sid, (name, op, _parent, start, end) in enumerate(self.spans)]

    def layer_metrics(self, names) -> dict[str, dict]:
        """Median over ops of each layer metric; the unit is read from the name.

        In `<layer>.<what>[.<cfg>]`, a `<what>` ending in `_ms` is span self
        time per op; one ending in `_us` is span self time per pair, the
        pairs being the count recorded under the same name; any other
        `<what>` is a count per op.
        """
        spans = _per_op(self.self_times())
        counts = _per_op(self.counts)
        out = {}
        for name in names:
            what = name.split(".")[1]
            if what.endswith("_ms"):
                values, unit = [s * 1e3 for s in spans[name].values()], "ms"
            elif what.endswith("_us"):
                values = [s * 1e6 / counts[name][op] for op, s in spans[name].items()]
                unit = "us"
            else:
                values, unit = list(counts[name].values()), "count"
            out[name] = {"value": statistics.median(values), "unit": unit}
        return out

    def write(self, path):
        records = [{"name": name, "op": op, "parent": parent,
                    "start": start, "end": end}
                   for name, op, parent, start, end in self.spans]
        counts = [{"name": name, "op": op, "value": value}
                  for name, op, value in self.counts]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": records, "counts": counts}, fh)


def _per_op(records) -> dict[str, dict[object, float]]:
    """Values summed per name and op, from (name, op, value) records."""
    totals: dict[str, dict[object, float]] = {}
    for name, op, value in records:
        by_op = totals.setdefault(name, {})
        by_op[op] = by_op.get(op, 0) + value
    return totals
