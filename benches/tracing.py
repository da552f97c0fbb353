"""Spans around the benchmark's calls into trigzeta's public functions.

A traced run wraps every call with a span (name, start, end, parent,
attributes) kept in memory and written out when the run ends.  The
untraced run uses :data:`OFF`, whose spans cost one no-op context
manager each, so both runs perform the same operations.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        record = {"id": index, "name": name, "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter_ns(), "end": None, **attrs}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter_ns()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def write(self, path: Path, summary: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"summary": summary, "spans": self.spans}) + "\n")


class _Off:
    def span(self, name: str, **attrs):
        return contextlib.nullcontext({})


OFF = _Off()


def duration_ns(span: dict) -> int:
    return span["end"] - span["start"]


def span_cost_ns(n: int = 10_000) -> float:
    """Mean cost of one empty span, measured on a scratch tracer."""
    scratch = Tracer()
    t0 = time.perf_counter_ns()
    for _ in range(n):
        with scratch.span("calibration"):
            pass
    return (time.perf_counter_ns() - t0) / n
