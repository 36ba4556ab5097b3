"""In-memory spans for the traced benchmark run.

A span records one call into a sqzband layer: its name, start, end, the
span that caused it and the item (trial, repeat, round trip or oracle case)
it belongs to.  Spans stay in memory and are written out once, at the end.
A span's self time is its duration minus the durations of its children;
children never overlap, because every call here is serial.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ITEM = "item"  # root span of one item; its self time is benchmark glue


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    item: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans plus per-call samples (counts recorded at the same boundaries)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.samples: dict[str, list[float]] = {}
        self._open: list[Span] = []
        self._item: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, parent, self._item, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def item(self, index: int):
        self._item = index
        try:
            with self.span(ITEM):
                yield
        finally:
            self._item = None

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def note(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def self_times(self) -> dict[str, float]:
        """Total self time (s) per span name."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        totals: dict[str, float] = {}
        for span, child in zip(self.spans, covered):
            totals[span.name] = totals.get(span.name, 0.0) + span.duration - child
        return totals

    def durations(self, name: str) -> list[float]:
        return [span.duration for span in self.spans if span.name == name]

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **header,
            "spans": [asdict(span) for span in self.spans],
            "samples": self.samples,
        }
        path.write_text(json.dumps(payload) + "\n")


class NullTracer(Tracer):
    """Same calls, no spans: the untraced path runs the identical code."""

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


@contextlib.contextmanager
def patched(tracer: Tracer, module, attr: str, name: str, after=None):
    """Route `module.attr` through a span while the block runs.

    This times a public function where another sqzband function calls it,
    without touching the program; `after(result)` records counts.
    """
    original = getattr(module, attr)

    def traced(*args, **kwargs):
        with tracer.span(name):
            result = original(*args, **kwargs)
        if after is not None:
            after(result)
        return result

    setattr(module, attr, traced)
    try:
        yield
    finally:
        setattr(module, attr, original)
