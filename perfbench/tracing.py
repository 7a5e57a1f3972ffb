"""In-memory spans around the benchmark's calls into relkit, and the
statistics derived from them.

A span is (id, parent id, name, operation id, start ns, end ns, work).
Names of calls into the program are "<module>.<function>[.<tag>...]";
the benchmark's own structure spans are "workload:", "stage:", "chunk" and
"op". With tracing disabled, `call` runs the function directly and `span`
records nothing, so one code path serves the traced and untraced runs.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager

RELKIT_MODULES = ("netcore", "explain", "evalkit", "prototype", "heatmaptools", "modelio")


class Tracer:
    def __init__(self, enabled=False):
        self.enabled = enabled
        self.spans = []  # [id, parent, name, op, t0, t1, work]
        self._stack = []
        self._op = None

    @contextmanager
    def span(self, name, op=None):
        """Record a span around the block; yields the record (None when disabled)."""
        if not self.enabled:
            yield None
            return
        if op is not None:
            previous, self._op = self._op, op
        record = [len(self.spans), self._stack[-1] if self._stack else None,
                  name, self._op, time.perf_counter_ns(), 0, 1]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[5] = time.perf_counter_ns()
            self._stack.pop()
            if op is not None:
                self._op = previous

    def call(self, name, fn, *args, work=1, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`.

        `work` is the span's unit count, or a function of the result that
        gives it (for calls whose size is known only afterwards).
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name) as record:
            result = fn(*args, **kwargs)
        record[6] = work(result) if callable(work) else work
        return result


def module_of(name):
    head = name.split(".", 1)[0]
    return head if head in RELKIT_MODULES else "bench"


def _children(spans):
    kids = {}
    for record in spans:
        if record[1] is not None:
            kids.setdefault(record[1], []).append(record)
    return kids


def self_time_by_module(spans, prefix):
    """Seconds of self time per module inside the spans whose name starts with
    `prefix` ("setup", "chunk:" for the traced chunks of the workload, "probe").

    Self time is a span's duration minus the time its child spans cover.
    Benchmark structure spans (chunks, operations) count as "bench".
    """
    kids = _children(spans)
    roots = [r for r in spans if r[2].startswith(prefix)]
    totals = {}
    pending = list(roots)
    while pending:
        record = pending.pop()
        children = kids.get(record[0], [])
        own = (record[5] - record[4]) - sum(c[5] - c[4] for c in children)
        module = module_of(record[2])
        totals[module] = totals.get(module, 0.0) + own / 1e9
        pending.extend(children)
    return dict(sorted(totals.items()))


def call_stats(spans):
    """Per call name: calls, busy seconds, total work, p50 and p99 per call (us)."""
    durations, work = {}, {}
    for record in spans:
        if module_of(record[2]) == "bench":
            continue
        durations.setdefault(record[2], []).append((record[5] - record[4]) / 1e3)
        work[record[2]] = work.get(record[2], 0) + record[6]
    stats = {}
    for name, values in sorted(durations.items()):
        values.sort()
        stats[name] = {"calls": len(values),
                       "busy_s": sum(values) / 1e6,
                       "work": work[name],
                       "p50_us": statistics.median(values),
                       "p99_us": values[math.ceil(0.99 * len(values)) - 1]}
    return stats


def export(spans):
    """Spans as plain lists for the trace file, times relative to the first span."""
    if not spans:
        return []
    origin = spans[0][4]
    return [[r[0], r[1], r[2], r[3], (r[4] - origin) / 1e3, (r[5] - origin) / 1e3, r[6]]
            for r in spans]
