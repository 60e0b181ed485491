"""Span tracer for the benchmark's traced runs.

Wrappers are installed from outside the traced package: a function is
replaced under every name that refers to it in the given modules (a module
that imports a function by name holds its own reference), and methods are
replaced on their class.  Each call records a span (name, start, end,
parent span); spans stay in memory until the run writes them out.
``remove`` puts every original back, so a process can measure unwrapped
code after tracing.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root


class Tracer:
    """Records nested spans and named counters for wrapped callables."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, on_return=None):
        """Return fn wrapped in a span; on_return(counts, args, result) may add counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, self.clock(), float("nan"), parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if on_return is not None:
                on_return(self.counts, args, result)
            return result

        traced.span_name = name
        return traced

    def patch_function(self, name, fn, modules, on_return=None):
        """Replace fn under every attribute of `modules` that refers to it."""
        wrapper = self.wrap(name, fn, on_return)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def patch_method(self, name, cls, attr, on_return=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, on_return))

    def remove(self):
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self):
        self.spans.clear()
        self.counts.clear()


def _union_length(intervals):
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans):
    """Per span: its duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [s.end - s.start - _union_length(children[i]) for i, s in enumerate(spans)]


def summarize(spans):
    """name -> {calls, busy_s, self_s, ms_p50} over a list of spans.

    busy_s counts only spans with no enclosing span of the same name, so a
    recursive call is not counted twice.
    """
    selfs = self_times(spans)
    out = {}
    for i, span in enumerate(spans):
        entry = out.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "_d": []})
        duration = span.end - span.start
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        entry["_d"].append(duration)
        p = span.parent
        while p >= 0 and spans[p].name != span.name:
            p = spans[p].parent
        if p < 0:
            entry["busy_s"] += duration
    for entry in out.values():
        entry["ms_p50"] = 1e3 * statistics.median(entry.pop("_d"))
    return out


def covered_fraction(spans, start, end):
    """Share of [start, end] that lies inside at least one root span."""
    roots = [(max(s.start, start), min(s.end, end)) for s in spans if s.parent < 0]
    return _union_length([r for r in roots if r[1] > r[0]]) / (end - start)
