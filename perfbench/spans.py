"""In-memory spans recorded from outside the program.

The tracer wraps module-level bindings of ``perml1`` (and one method) so
that every call through them opens a span: name, start, end, parent span and
the cycle it belongs to, plus counts taken from the call's arguments and
result.  Each module calls its collaborators through its own globals, so the
same function is wrapped once per module that binds it.  Nothing under
``src/`` changes; untraced runs never call :func:`install`.

A span's self time is its busy time minus the busy time of its child spans.
Calls are properly nested on one thread, so children never overlap and the
subtraction is exact.  Generator bindings (``all_permutations``) get one span
per call whose busy time is the time spent inside ``next``; that time is
taken out of the caller's self time even though it interleaves with it.
"""

from __future__ import annotations

import functools
import inspect
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("id", "parent", "name", "cycle", "start", "end", "busy", "counts")

    def __init__(self, sid, parent, name, cycle, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.cycle = cycle
        self.start = start
        self.end = None
        self.busy = 0.0
        self.counts = {}

    def to_json(self) -> list:
        return [self.id, self.parent, self.name, self.cycle, self.start, self.end, self.busy, self.counts]


# Counts that describe a peak rather than an amount of work: aggregated by max.
PEAK_COUNTS = {"temp_bytes"}


def merge_counts(total: dict, counts: dict) -> None:
    for key, value in counts.items():
        if key in PEAK_COUNTS:
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


class Tracer:
    """Spans kept in memory; written out once, when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cycle = 0
        self._stack: list[int] = []

    def _new(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, self.cycle, perf_counter())
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        span = self._new(name)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = perf_counter()
            span.busy = span.end - span.start

    def wrap(self, fn, name: str, count=None):
        """A stand-in for ``fn`` that records one span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if count is not None:
                    merge_counts(span.counts, count(args, kwargs, result))
            return result

        return traced

    def wrap_iter(self, fn, name: str):
        """A stand-in for a generator function: one span per call, busy only
        while the consumer is inside ``next``; counts the items yielded."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._new(name)
            span.counts["items"] = 0
            inner = fn(*args, **kwargs)

            def gen():
                try:
                    while True:
                        self._stack.append(span.id)
                        t0 = perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            span.busy += perf_counter() - t0
                            self._stack.pop()
                        span.counts["items"] += 1
                        yield item
                finally:
                    span.end = perf_counter()

            return gen()

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child_busy = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_busy[span.parent] += span.busy
        totals = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.busy - child_busy[span.id]
        return dict(totals)

    def counts(self) -> dict[str, dict[str, float]]:
        """Counts per span name, summed (or maxed, for peaks) over spans."""
        totals: dict[str, dict] = defaultdict(dict)
        for span in self.spans:
            merge_counts(totals[span.name], span.counts)
        return dict(totals)


# Per-layer metrics: (span name, suffix, unit).  Suffix "s" or "self_s" is the
# span's self time; any other suffix is one of the span's counts.
METRICS = [
    ("perms.all_permutations", "s", "s"),
    ("perms.all_permutations", "items", "count"),
    ("metric.bfs_distances", "s", "s"),
    ("metric.bfs_distances", "entries", "count"),
    ("metric.rank_rows", "s", "s"),
    ("metric.rank_rows", "rows", "count"),
    ("metric.formula_terms_batch", "s", "s"),
    ("metric.formula_terms_batch", "rows", "count"),
    ("metric.formula_terms_batch", "sum_ops", "ops-computed"),
    ("metric.formula_terms_batch", "diam_ops", "ops-computed"),
    ("metric.formula_terms_batch", "temp_bytes", "B-computed"),
    ("metric.formula_length", "s", "s"),
    ("metric.formula_length", "calls", "count"),
    ("synth.synthesize", "self_s", "s"),
    ("synth.synthesize", "calls", "count"),
    ("embed.interval_profile", "s", "s"),
    ("embed.interval_profile", "calls", "count"),
    ("embed.interval_profile", "keys", "count"),
    ("embed.SparseVector.distance", "s", "s"),
    ("audits.distortion_audit", "self_s", "s"),
    ("audits.distortion_audit", "pairs", "count"),
    ("audits.cube_audit", "self_s", "s"),
    ("audits.cube_audit", "pairs", "count"),
    ("audits.drift_walk", "self_s", "s"),
    ("audits.drift_walk", "states", "count"),
    ("cli.main", "self_s", "s"),
    ("cli.main", "bytes_out", "B"),
]


def _formula_counts(fn):
    default_chunk = inspect.signature(fn).parameters["chunk"].default

    def count(args, kwargs, result):
        m, n = result[0].shape
        chunk = kwargs.get("chunk", args[1] if len(args) > 1 else default_chunk)
        tensor = n * (n // 2) * n  # one row of the (chunk, n, n//2, n) bool pair tensor
        return {
            "rows": m,
            "sum_ops": m * n * n,
            "diam_ops": m * tensor,
            "temp_bytes": min(chunk, m) * tensor,
        }

    return count


def _bytes_out(args, kwargs, result):
    argv = args[0]
    out = argv[argv.index("--out") + 1]
    return {"bytes_out": os.path.getsize(out) if os.path.exists(out) else 0}


def _calls(args, kwargs, result):
    return {"calls": 1}


def bindings():
    """(owner, attribute, span name, counter or "iter") for every wrapped name."""
    from perml1 import audits, cli, embed, metric, synth

    rows = lambda a, k, r: {"rows": len(a[0])}  # noqa: E731
    entries = lambda a, k, r: {"entries": len(r.dist)}  # noqa: E731
    pairs = lambda a, k, r: {"pairs": r.pairs_checked}  # noqa: E731
    formula = _formula_counts(metric.formula_terms_batch)
    return [
        (metric, "rank_rows", "metric.rank_rows", rows),
        (audits, "rank_rows", "metric.rank_rows", rows),
        (metric, "bfs_distances", "metric.bfs_distances", entries),
        (audits, "bfs_distances", "metric.bfs_distances", entries),
        (cli, "bfs_distances", "metric.bfs_distances", entries),
        (audits, "formula_terms_batch", "metric.formula_terms_batch", formula),
        (synth, "formula_length", "metric.formula_length", _calls),
        (audits, "interval_profile", "embed.interval_profile",
         lambda a, k, r: {"calls": 1, "keys": len(r.coords)}),
        (embed.SparseVector, "distance", "embed.SparseVector.distance", _calls),
        (audits, "all_permutations", "perms.all_permutations", "iter"),
        (cli, "all_permutations", "perms.all_permutations", "iter"),
        (audits, "distortion_audit", "audits.distortion_audit", pairs),
        (audits, "cube_audit", "audits.cube_audit", pairs),
        (audits, "drift_walk", "audits.drift_walk",
         lambda a, k, r: {"states": r.trials * r.horizon}),
        (synth, "synthesize", "synth.synthesize", _calls),
        (cli, "main", "cli.main", _bytes_out),
    ]


def install(tracer: Tracer):
    """Replace every binding by its traced stand-in; returns the undo list."""
    undo = []
    for owner, attr, name, count in bindings():
        original = getattr(owner, attr)
        if count == "iter":
            stand_in = tracer.wrap_iter(original, name)
        else:
            stand_in = tracer.wrap(original, name, count)
        setattr(owner, attr, stand_in)
        undo.append((owner, attr, original))
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
