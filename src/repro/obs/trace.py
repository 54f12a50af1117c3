"""Span-based tracing with an injectable clock.

A :class:`Span` is one timed region with a name, a parent, and
arbitrary JSON-serializable attributes; a :class:`Tracer` hands out
spans as context managers and keeps every finished span in completion
order.  The clock is injectable:

* ``time.perf_counter`` (the default) gives wall-clock profiling
  traces;
* the crawl loop injects the **simulated clock**, whose trajectory is
  a pure function of the crawl inputs — so crawl traces are
  byte-identical at any worker count and across kill+resume;
* tests inject :class:`TickClock`, a monotone integer counter, so
  trace exports are byte-stable regardless of machine speed.

Span ids are sequential integers assigned at span *open* (open order
is deterministic whenever the control flow is), and the id counter is
part of :meth:`Tracer.state_dict`, so a checkpoint-resumed trace
continues with the same ids the uninterrupted run would have used.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from repro.persist import write_lines


class TickClock:
    """A deterministic clock: every read returns the next integer."""

    def __init__(self, start: int = 0) -> None:
        self._tick = start

    def __call__(self) -> float:
        tick = self._tick
        self._tick += 1
        return float(tick)


@dataclass
class Span:
    """One timed region.  ``end`` is None while the span is open."""

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on an open span."""
        self.attrs.update(attrs)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {"span_id": self.span_id, "parent_id": self.parent_id,
                "name": self.name, "start": self.start, "end": self.end,
                "attrs": dict(self.attrs)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Span":
        return cls(span_id=payload["span_id"],
                   parent_id=payload["parent_id"],
                   name=payload["name"], start=payload["start"],
                   end=payload["end"],
                   attrs=dict(payload.get("attrs", {})))


class _NullSpan:
    """The do-nothing span a disabled tracer hands out."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


@contextmanager
def maybe_span(tracer: "Tracer | None", name: str,
               **attrs: Any) -> Iterator[Span | _NullSpan]:
    """``tracer.span(...)`` when tracing is on, a no-op span otherwise.

    Lets instrumented code keep one code path with near-zero cost when
    tracing is disabled.
    """
    if tracer is None:
        yield NULL_SPAN
    else:
        with tracer.span(name, **attrs) as span:
            yield span


class Tracer:
    """Hands out nested spans and records them in completion order."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 ) -> None:
        self.clock = clock
        self.finished: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        span = Span(span_id=self._next_id,
                    parent_id=(self._stack[-1].span_id
                               if self._stack else None),
                    name=name, start=self.clock(), attrs=dict(attrs))
        self._next_id += 1
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self.clock()
            self.finished.append(span)

    # -- export ---------------------------------------------------------------

    def export_lines(self) -> list[str]:
        """Canonical JSON-lines export of the finished spans."""
        return [json.dumps(span.to_dict(), sort_keys=True)
                for span in self.finished]

    def write_jsonl(self, path: str | Path) -> Path:
        return write_lines(path, self.export_lines())

    # -- checkpoint support ---------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Finished spans + id counter (open spans are never part of a
        consistent state — checkpoints happen at span-free boundaries)."""
        return {"next_id": self._next_id,
                "spans": [span.to_dict() for span in self.finished]}

    def load_state(self, payload: Mapping[str, Any]) -> None:
        self.finished = [Span.from_dict(entry)
                         for entry in payload.get("spans", ())]
        self._next_id = int(payload.get("next_id", len(self.finished)))
        self._stack = []
