"""In-memory span recorder for the traced benchmark run.

Spans are recorded from *outside* the program: the benchmark wraps the
public calls it makes into each layer (and the collaborators a layer
takes by injection) and, where a layer already reports its own stage
breakdown (``CrawlResult.stage_seconds``,
``ExecutionReport.operator_stats``), adds those as *parts* of the span
that made the call.  Nothing under ``src/`` is edited.

A span is ``{id, parent, run, name, start, end}``.  A span's **self
time** is its duration minus the part of that interval its child spans
cover, so for any root span::

    sum(self time of every span below and including the root)
        == duration of the root

The root's own self time is the *unattributed* time: wall spent in the
timed region that no layer span covers.

The recorder keeps one span stack, so it must only be used from the
thread that runs the workload (every traced call in this benchmark is
made from the main thread).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

#: Name of the root span of one traced repeat.
ROOT = "bench.repeat"


class SpanRecorder:
    """Records spans in memory; :func:`write_jsonl` dumps them."""

    def __init__(self, run_id: str, clock=time.perf_counter) -> None:
        self.run_id = run_id
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._wrapped: list[tuple[object, str]] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "run": self.run_id,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "name": name, "start": self.clock(), "end": None}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = self.clock()
            self._stack.pop()

    def add_parts(self, parent: dict, parts: dict[str, float]) -> None:
        """Attach a program-reported breakdown to ``parent`` as
        synthetic child spans laid end to end from the parent's start.
        Only the durations are meaningful; ``synthetic`` marks them."""
        cursor = parent["start"]
        for name, seconds in parts.items():
            if seconds <= 0:
                continue
            self.spans.append({
                "id": len(self.spans), "run": self.run_id,
                "parent": parent["id"], "name": name, "start": cursor,
                "end": cursor + seconds, "synthetic": True})
            cursor += seconds

    def wrap(self, obj: object, attr: str, name: str,
             observe=None) -> None:
        """Shadow ``obj.attr`` with an instance attribute that runs the
        original bound method inside a span (``observe(result)`` runs
        after the span closes, for counts).  :meth:`unwrap_all` removes
        the shadow, restoring the class's method."""
        inner = getattr(obj, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                result = inner(*args, **kwargs)
            if observe is not None:
                observe(result)
            return result

        setattr(obj, attr, traced)
        self._wrapped.append((obj, attr))

    def unwrap_all(self) -> None:
        for obj, attr in reversed(self._wrapped):
            delattr(obj, attr)
        self._wrapped.clear()


def write_jsonl(spans: list[dict], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for record in spans:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def _covered(intervals: list[tuple[float, float]],
             low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to [low, high]."""
    total = 0.0
    edge = low
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, high)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name.

    Recorded children subtract the part of the parent's interval they
    cover; synthetic parts have durations but no real position, so
    they subtract their full duration.  Span ids are unique per run.
    """
    children: dict[tuple, list[tuple[float, float]]] = {}
    parts: dict[tuple, float] = {}
    for span in spans:
        if span["parent"] is None:
            continue
        key = (span["run"], span["parent"])
        if span.get("synthetic"):
            parts[key] = parts.get(key, 0.0) + span["end"] - span["start"]
        else:
            children.setdefault(key, []).append(
                (span["start"], span["end"]))
    totals: dict[str, float] = {}
    for span in spans:
        key = (span["run"], span["id"])
        duration = span["end"] - span["start"]
        covered = parts.get(key, 0.0) + _covered(
            children.get(key, []), span["start"], span["end"])
        totals[span["name"]] = (totals.get(span["name"], 0.0)
                                + duration - covered)
    return totals


def reconcile(spans: list[dict]) -> dict:
    """The reconciliation row: per-name self times, the traced wall
    (sum of root durations), and the share of it no layer covers."""
    times = self_times(spans)
    wall = sum(span["end"] - span["start"] for span in spans
               if span["name"] == ROOT)
    unattributed = times.pop(ROOT, 0.0)
    return {"wall": wall, "self": times, "unattributed": unattributed,
            "unattributed_share": unattributed / wall if wall else 0.0}


def format_table(row: dict) -> list[str]:
    """The per-layer table, largest share first, with the
    reconciliation line (layers + unattributed = traced wall)."""
    wall = row["wall"] or 1.0
    lines = [f"{'span':<28} {'self s':>9} {'share':>7}"]
    for name, seconds in sorted(row["self"].items(),
                                key=lambda item: -item[1]):
        lines.append(f"{name:<28} {seconds:>9.4f} {seconds / wall:>7.1%}")
    lines.append(f"{'(unattributed)':<28} {row['unattributed']:>9.4f} "
                 f"{row['unattributed_share']:>7.1%}")
    total = sum(row["self"].values()) + row["unattributed"]
    lines.append(f"{'sum == traced wall':<28} {total:>9.4f} "
                 f"{total / wall:>7.1%}  (wall {row['wall']:.4f} s)")
    return lines
