"""In-memory spans around the benchmark's own calls into the package.

A span is (name, start, end, parent, op, phase): `parent` is the index of
the enclosing span or -1, `op` the operation id (-1 during set-up) and
`phase` either "setup" or "op". Nothing is written until `dump`.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int, int, str]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.phase = "setup"
        self.op = -1
        self._stack: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        with self.span(name):
            return fn(*args)

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[f"{self.phase}:{name}"] += value

    def sample(self, name: str, size: float) -> None:
        """Pair the duration of the span just closed with an input size."""
        if self.enabled:
            _, start, end, *_ = self.spans[-1]
            self.samples[name].append((size, end - start))

    def rollup(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per phase and span name: total seconds, self seconds and calls.
        Self time is the span minus the time its child spans cover."""
        child_s = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, dict[str, float]]] = {"setup": {}, "op": {}}
        for i, (name, start, end, _, _, phase) in enumerate(self.spans):
            row = out[phase].setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["s"] += end - start
            row["self_s"] += end - start - child_s[i]
            row["calls"] += 1
        return out

    def dump(self, path, header: dict) -> None:
        payload = {
            **header,
            "rollup": self.rollup(),
            "counts": dict(self.counts),
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


class _Span:
    __slots__ = ("tracer", "name", "start", "parent")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        if t.enabled:
            self.parent = t._stack[-1] if t._stack else -1
            t._stack.append(len(t.spans))
            t.spans.append(None)  # reserved so children see the right index
            self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        if t.enabled:
            end = time.perf_counter()
            i = t._stack.pop()
            t.spans[i] = (self.name, self.start, end, self.parent, t.op, t.phase)
        return False


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(seconds) against log(size); 0.0 when the
    sizes do not vary."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
