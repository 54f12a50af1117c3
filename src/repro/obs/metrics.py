"""Unified metrics model: counters, gauges, histograms, one registry.

The repo grew four generations of ad-hoc counters (``ExecutionReport``
throughput, ``CrawlResult.stage_seconds``/``failure_reasons``, cache
hit/miss snapshots) with no common model and no export format.  This
module is the common model.  Three metric kinds:

* :class:`Counter` — a monotone sum (int or float increments);
* :class:`Gauge` — a last-write-wins sample;
* :class:`Histogram` — a fixed-bucket-layout distribution.  Bucket
  bounds are fixed at registration, so histograms with the same name
  always merge exactly (count arrays add element-wise) — merging is
  associative and commutative on the counts, which is what makes
  multi-worker aggregation order-insensitive.

Every metric is registered as either **deterministic** (the default) or
**volatile**.  Deterministic metrics must be pure functions of the
logical computation — page counts, simulated-clock seconds, failure
reasons — and are the only ones included in checkpoints and in the
default export, which is why a crawl's exported metrics are
byte-identical at any worker count and across kill+resume.  Volatile
metrics (wall-clock timings, pool/chunk attribution, anything that
depends on the physical execution) live in the same registry but are
excluded from the deterministic export unless explicitly requested.

Aggregation across fork workers follows the crawl loop's
``DocumentOutcome`` rule: workers accumulate deltas, the coordinator
merges them in batch order (:meth:`MetricsRegistry.merge`), so enabling
metrics never perturbs results and the output is identical at any
worker count.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro import persist

#: Default histogram bucket upper bounds (seconds-oriented, log-ish
#: spacing).  An implicit +inf overflow bucket always follows the last
#: bound.  Fixed layouts are the merge-exactness guarantee: two
#: histograms of the same metric always have identical bucket arrays.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> _LabelKey:
    """Canonical, hashable, sorted form of a label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotone sum.  ``inc`` accepts ints or floats."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


class Gauge:
    """A last-write-wins sample."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A fixed-bucket-layout distribution.

    ``counts`` has ``len(bounds) + 1`` slots; the last is the +inf
    overflow bucket.  An observation lands in the first bucket whose
    upper bound is >= the value.

    ``sum`` is accumulated in integer nanosecond-scale units rather
    than as a running float: float addition is not associative, so a
    float total would depend on the order observations arrive and on
    how partial histograms are grouped before :meth:`merge` — exactly
    what varies between a 1-shard and an N-shard crawl.  Integer
    addition is associative and commutative, so the exported ``sum``
    is invariant under any regrouping of the same observations.
    """

    _SCALE = 1_000_000_000

    __slots__ = ("bounds", "counts", "_sum_units")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram bounds must be a non-empty, "
                             "strictly increasing sequence")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self._sum_units: int = 0

    @property
    def count(self) -> int:
        """Total observations — always the sum of the buckets."""
        return sum(self.counts)

    @property
    def sum(self) -> float:
        return self._sum_units / self._SCALE

    @sum.setter
    def sum(self, value: float) -> None:
        self._sum_units = round(value * self._SCALE)

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self._sum_units += round(value * self._SCALE)

    def merge(self, other: "Histogram") -> None:
        """Add another histogram of the same layout into this one."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bucket layouts: "
                f"{self.bounds} vs {other.bounds}")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self._sum_units += other._sum_units


class _Family:
    """Registration metadata shared by all label sets of one name."""

    __slots__ = ("kind", "volatile", "bounds")

    def __init__(self, kind: str, volatile: bool,
                 bounds: tuple[float, ...] | None = None) -> None:
        self.kind = kind
        self.volatile = volatile
        self.bounds = bounds


class MetricsRegistry:
    """One process-wide (or component-wide) home for every metric.

    Metrics are addressed by ``(name, labels)``; the first access with
    a given name fixes its kind (counter / gauge / histogram), its
    volatility, and — for histograms — its bucket layout.  Later
    accesses must agree.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._metrics: dict[tuple[str, _LabelKey],
                            Counter | Gauge | Histogram] = {}

    # -- registration / access ------------------------------------------------

    def counter(self, name: str, *, volatile: bool = False,
                **labels: Any) -> Counter:
        return self._get(name, "counter", volatile, labels)

    def gauge(self, name: str, *, volatile: bool = False,
              **labels: Any) -> Gauge:
        return self._get(name, "gauge", volatile, labels)

    def histogram(self, name: str, *,
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  volatile: bool = False, **labels: Any) -> Histogram:
        return self._get(name, "histogram", volatile, labels,
                         bounds=tuple(float(b) for b in buckets))

    def _get(self, name: str, kind: str, volatile: bool,
             labels: Mapping[str, Any],
             bounds: tuple[float, ...] | None = None):
        family = self._families.get(name)
        if family is None:
            family = _Family(kind, volatile, bounds)
            self._families[name] = family
        else:
            if family.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {family.kind}, not a {kind}")
            if family.volatile != volatile:
                raise ValueError(
                    f"metric {name!r} was registered with "
                    f"volatile={family.volatile}")
            if kind == "histogram" and bounds != family.bounds:
                raise ValueError(
                    f"metric {name!r} has a fixed bucket layout "
                    f"{family.bounds}; got {bounds}")
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            if kind == "counter":
                metric = Counter()
            elif kind == "gauge":
                metric = Gauge()
            else:
                metric = Histogram(bounds or DEFAULT_BUCKETS)
            self._metrics[key] = metric
        return metric

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def value_of(self, name: str, **labels: Any) -> float | None:
        """Current value of a counter/gauge (None if never touched)."""
        metric = self._metrics.get((name, _label_key(labels)))
        if metric is None or isinstance(metric, Histogram):
            return None
        return metric.value

    def labels_of(self, name: str) -> list[dict[str, str]]:
        """Every label set recorded under ``name``, sorted."""
        return [dict(label_key) for metric_name, label_key
                in sorted(self._metrics) if metric_name == name]

    def histogram_of(self, name: str, **labels: Any) -> Histogram | None:
        """The histogram at ``(name, labels)``, or None if absent (or
        the name is a counter/gauge).  Read-only access for renderers
        that need bucket counts, e.g. percentile estimation."""
        metric = self._metrics.get((name, _label_key(labels)))
        return metric if isinstance(metric, Histogram) else None

    # -- snapshot / merge -----------------------------------------------------

    def to_dict(self, include_volatile: bool = False) -> dict[str, Any]:
        """Canonical nested snapshot, sorted by (name, labels).

        The deterministic subset (the default) is what checkpoints
        persist and what the byte-identity guarantees cover.
        """
        entries = []
        for (name, label_key), metric in sorted(self._metrics.items()):
            family = self._families[name]
            if family.volatile and not include_volatile:
                continue
            entry: dict[str, Any] = {
                "name": name, "type": family.kind,
                "labels": dict(label_key)}
            if family.volatile:
                entry["volatile"] = True
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.bounds)
                entry["counts"] = list(metric.counts)
                entry["sum"] = metric.sum
                entry["count"] = metric.count
            else:
                entry["value"] = metric.value
            entries.append(entry)
        return {"metrics": entries}

    def load_dict(self, payload: Mapping[str, Any]) -> None:
        """Restore a snapshot (checkpoint resume).  Existing metrics
        with the same address are overwritten, others kept."""
        for entry in payload.get("metrics", ()):
            name = entry["name"]
            kind = entry["type"]
            volatile = bool(entry.get("volatile", False))
            labels = dict(entry.get("labels", {}))
            if kind == "histogram":
                metric = self.histogram(
                    name, buckets=entry["buckets"], volatile=volatile,
                    **labels)
                metric.counts = [int(c) for c in entry["counts"]]
                metric.sum = float(entry["sum"])
            elif kind == "counter":
                self.counter(name, volatile=volatile, **labels).value = \
                    entry["value"]
            else:
                self.gauge(name, volatile=volatile, **labels).value = \
                    entry["value"]

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's metrics into this one.

        Counters and histograms add (associative and commutative on
        counts); gauges take the other side's value (last write wins —
        callers merge worker deltas in batch order, so "last" is
        well-defined).  Used for the accumulate-in-worker /
        merge-in-batch-order aggregation rule.
        """
        for (name, label_key), metric in sorted(other._metrics.items()):
            family = other._families[name]
            labels = dict(label_key)
            if isinstance(metric, Histogram):
                self.histogram(name, buckets=metric.bounds,
                               volatile=family.volatile,
                               **labels).merge(metric)
            elif family.kind == "counter":
                self.counter(name, volatile=family.volatile,
                             **labels).value += metric.value
            else:
                self.gauge(name, volatile=family.volatile,
                           **labels).value = metric.value

    # -- export ---------------------------------------------------------------

    def export_lines(self, include_volatile: bool = False) -> list[str]:
        """JSON-lines export, one canonical line per metric.

        Lines are sorted by (name, labels) and serialized with sorted
        keys, so two registries with equal contents export
        byte-identical files.
        """
        return [json.dumps(entry, sort_keys=True)
                for entry in self.to_dict(include_volatile)["metrics"]]

    def write_jsonl(self, path: str | Path,
                    include_volatile: bool = False) -> Path:
        return persist.write_lines(path,
                                   self.export_lines(include_volatile))

    @classmethod
    def read_jsonl(cls, path: str | Path) -> "MetricsRegistry":
        registry = cls()
        registry.load_dict({"metrics": list(persist.read_jsonl(path))})
        return registry
