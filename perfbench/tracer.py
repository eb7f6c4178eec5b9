"""In-memory span tracer that wraps the public functions of each bwbroker layer.

Spans are recorded around the calls into each layer from outside the
program: the tracer replaces module attributes and class methods, it
does not edit the package.  It is meant for a single-process run
(``--jobs 1``): spans recorded in pool workers would be lost.

Two kinds of boundary are traced:

* coarse spans (the command, run_experiment/run_policies, run_paired,
  build_trace, run_trace, aggregate) are kept one by one with a name,
  start, end, parent and the replication id shared by every span of one
  ``run_paired`` call;
* per-step calls (allocation, broker, CellState mutators) run millions
  of times on a sweep, so each is folded into its parent span as a call
  count and busy time instead of being kept as its own record.  Calls of
  this kind never nest in one another, so the parent's self time is its
  duration minus the sum of their busy times.
"""

from __future__ import annotations

from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "rep", "child_s", "folded")

    def __init__(self, name: str, parent: int, rep: int):
        self.name = name
        self.parent = parent
        self.rep = rep
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        # per-step calls folded into this span: name -> [calls, busy_s]
        self.folded: dict[str, list] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "rep": self.rep,
            "self_s": self.self_s,
            "folded": {k: {"calls": c, "busy_s": b} for k, (c, b) in self.folded.items()},
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_rep = 0
        self.rep = -1
        self.counts: dict[str, int] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def coarse(self, name, fn, on_result=None, new_rep=False):
        """Wrap fn so each call is kept as its own span.

        name is a string or a function of the call's arguments.  on_result
        runs after the span has closed, so its cost is not charged to it.
        """
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if new_rep:
                self.rep = self._next_rep
                self._next_rep += 1
            parent = stack[-1] if stack else -1
            span = Span(name(*args, **kwargs) if callable(name) else name, parent, self.rep)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_s += span.duration
                if new_rep:
                    self.rep = -1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def fine(self, name: str, fn, on_result=None):
        """Wrap a per-step call; it is folded into the enclosing span."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            t = perf_counter()
            result = fn(*args, **kwargs)
            d = perf_counter() - t
            parent = spans[stack[-1]]
            parent.child_s += d
            acc = parent.folded.get(name)
            if acc is None:
                acc = parent.folded[name] = [0, 0.0]
            acc[0] += 1
            acc[1] += d
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def busy(self, name: str) -> tuple[int, float]:
        """(calls, busy seconds) of every span or folded call named name."""
        calls, busy = 0, 0.0
        for s in self.spans:
            if s.name == name:
                calls += 1
                busy += s.duration
            acc = s.folded.get(name)
            if acc is not None:
                calls += acc[0]
                busy += acc[1]
        return calls, busy

    def self_time(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]
