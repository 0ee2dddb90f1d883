"""Spans around the calls the harness makes into the package's layers.

A span records its name, start, end, the span that caused it and the
request (top-level case or suite) it belongs to. Spans stay in memory and
are aggregated when the run ends. The program itself carries no spans: the
boundaries are the harness's own calls, so time spent inside a layer on
behalf of another (for example `lgv` calling `exactnum`) is charged to the
layer the harness called.
"""

from __future__ import annotations

from reference import clock
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def span(self, name):
        return nullcontext()

    def add(self, metric, value):
        pass


class Tracer:
    """Tracing on. `hooks` maps a span name to a function
    `hook(tracer, seconds, args, result)` that records that layer's
    counters; hooks run after the span closes, so their cost is outside it."""

    enabled = True

    def __init__(self, hooks: dict):
        self.hooks = hooks
        # [request, parent, name, start, end]; request and parent are indices
        self.spans: list[list] = []
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.peaks: defaultdict[str, int] = defaultdict(int)
        self.deferred: list = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        request = index if parent is None else self.spans[parent][0]
        record = [request, parent, name, clock(), None]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record[4] = clock()
            self._open.pop()

    def call(self, name: str, fn, *args):
        with self.span(name) as record:
            result = fn(*args)
        hook = self.hooks.get(name)
        if hook is not None:
            hook(self, record[4] - record[3], args, result)
        return result

    def add(self, metric: str, value) -> None:
        self.totals[metric] += value

    def peak(self, metric: str, value: int) -> None:
        self.peaks[metric] = max(self.peaks[metric], value)

    def defer(self, metric: str, compute) -> None:
        """Add `compute()` to `metric` when the run is summarised, for counts
        too costly to take while the clock runs."""
        self.deferred.append((metric, compute))

    def durations(self) -> tuple[dict, dict]:
        """Total and self seconds by span name; self time is the span's
        duration minus the time its child spans cover."""
        total: defaultdict[str, float] = defaultdict(float)
        child: defaultdict[int, float] = defaultdict(float)
        for request, parent, name, start, end in self.spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        own: defaultdict[str, float] = defaultdict(float)
        for index, (_, _, name, start, end) in enumerate(self.spans):
            own[name] += end - start - child[index]
        return dict(total), dict(own)

    def settle(self) -> None:
        """Evaluate the deferred counts."""
        for metric, compute in self.deferred:
            self.totals[metric] += compute()
        self.deferred.clear()
