"""Human-readable rendering of exported metrics and traces.

``repro report`` turns a metrics JSON-lines file (and optionally a
trace file) back into the operator-facing summary the crawl CLI
prints live: pages fetched, harvest rate, per-stage breakdown,
failures by reason.  The formatting helpers are shared with
``repro.cli`` so the live printout and the offline report can never
drift apart.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.obs.metrics import MetricsRegistry
from repro.persist import read_jsonl

#: Pipeline stages in execution order (used for stable stage tables).
CRAWL_STAGES = ("fetch", "filters", "repair", "parse", "boilerplate",
                "classify")


def format_stage_breakdown(stage_pages: Mapping[str, int],
                           stage_seconds: Mapping[str, float],
                           mode: str = "") -> list[str]:
    """The per-stage table the crawl CLI prints.

    ``stage_seconds`` may be empty (deterministic metric exports carry
    no wall-clock); the seconds/rate columns are omitted then.
    """
    if not stage_pages:
        return []
    timed = bool(stage_seconds)
    suffix = f" ({mode})" if mode else ""
    lines = [f"stage breakdown{suffix}"
             + ("; seconds are worker-attributed wall time:" if timed
                else ":")]
    known = [s for s in CRAWL_STAGES if s in stage_pages]
    known += sorted(set(stage_pages) - set(CRAWL_STAGES))
    for stage in known:
        pages = stage_pages[stage]
        if timed:
            seconds = stage_seconds.get(stage, 0.0)
            rate = pages / seconds if seconds > 0 else 0.0
            lines.append(f"  {stage:<12} {pages:>6} pages  "
                         f"{seconds:>8.3f} s  {rate:>9.0f} pages/s")
        else:
            lines.append(f"  {stage:<12} {pages:>6} pages")
    return lines


def format_failures(failure_reasons: Mapping[str, int],
                    fetch_failures: int, retries: int,
                    hosts_quarantined: int) -> list[str]:
    """The failure summary the crawl CLI prints."""
    if not failure_reasons:
        return []
    reasons = ", ".join(f"{reason} {count}" for reason, count
                        in sorted(failure_reasons.items()))
    return [f"failures by reason: {reasons}",
            f"fetch failures {fetch_failures} | retries {retries} | "
            f"hosts quarantined {hosts_quarantined}"]


def format_recrawl(replay_hits: int, fetches_skipped: int,
                   pages_changed: int,
                   pages_near_unchanged: int) -> list[str]:
    """The incremental-recrawl summary line (empty on cold crawls)."""
    if not (replay_hits or fetches_skipped or pages_changed):
        return []
    return [f"recrawl: {replay_hits} outcomes replayed "
            f"({fetches_skipped} fetches skipped) | "
            f"{pages_changed} pages changed "
            f"({pages_near_unchanged} near-unchanged)"]


def _counter_values(registry: MetricsRegistry, name: str,
                    label: str) -> dict[str, float]:
    """{label_value: counter value} for every label set of ``name``."""
    values: dict[str, float] = {}
    for labels in registry.labels_of(name):
        if label in labels:
            values[labels[label]] = registry.value_of(name, **labels) or 0
    return values


def render_crawl_summary(registry: MetricsRegistry) -> list[str]:
    """Rebuild the ``repro crawl`` summary from exported metrics.

    Returns [] when the registry carries no crawl metrics.
    """
    pages = registry.value_of("crawl.pages_fetched")
    if pages is None:
        return []
    clock = registry.value_of("crawl.clock_seconds") or 0.0
    rate = pages / clock if clock > 0 else 0.0
    relevant = int(registry.value_of("crawl.relevant_pages") or 0)
    irrelevant = int(registry.value_of("crawl.irrelevant_pages") or 0)
    classified = relevant + irrelevant
    harvest = relevant / classified if classified else 0.0
    lines = [
        f"fetched {int(pages)} pages in {clock:.0f} simulated seconds "
        f"({rate:.1f} docs/s)",
        f"relevant {relevant} | irrelevant {irrelevant} | "
        f"harvest {harvest:.0%}",
    ]
    lines += format_recrawl(
        replay_hits=int(registry.value_of("crawl.replay_hits") or 0),
        fetches_skipped=int(
            registry.value_of("crawl.fetches_skipped") or 0),
        pages_changed=int(
            registry.value_of("crawl.pages_changed") or 0),
        pages_near_unchanged=int(
            registry.value_of("crawl.pages_near_unchanged") or 0))
    stage_pages = {stage: int(value) for stage, value in
                   _counter_values(registry, "crawl.stage_pages",
                                   "stage").items()}
    stage_seconds = _counter_values(registry, "crawl.stage_wall_seconds",
                                    "stage")
    lines += format_stage_breakdown(stage_pages, stage_seconds)
    failures = {reason: int(value) for reason, value in
                _counter_values(registry, "crawl.failures",
                                "reason").items()}
    lines += format_failures(
        failures,
        fetch_failures=int(registry.value_of("crawl.fetch_failures") or 0),
        retries=int(registry.value_of("crawl.retries") or 0),
        hosts_quarantined=int(
            registry.value_of("crawl.hosts_quarantined") or 0))
    return lines


def _histogram_percentile(histogram: Any, q: float) -> float:
    """Percentile estimate from cumulative bucket counts (upper bound
    of the bucket the q-th observation falls in; +Inf bucket reports
    the largest finite bound)."""
    total = histogram.count
    if not total:
        return 0.0
    target = max(1, -(-int(q * total) // 100))  # ceil(q% of total)
    seen = 0
    for bound, count in zip(histogram.bounds, histogram.counts):
        seen += count
        if seen >= target:
            return bound
    return histogram.bounds[-1] if histogram.bounds else 0.0


def _histogram_bars(histogram: Any, unit_scale: float = 1.0,
                    unit: str = "", width: int = 30) -> list[str]:
    """ASCII bucket histogram, one line per non-empty bucket."""
    if not histogram.count:
        return []
    peak = max(histogram.counts)
    lines = []
    for bound, count in zip(list(histogram.bounds) + [float("inf")],
                            histogram.counts):
        if not count:
            continue
        bar = "#" * max(1, round(count / peak * width))
        bound_text = ("+Inf" if bound == float("inf")
                      else f"{bound * unit_scale:g}")
        lines.append(f"  <= {bound_text:>8}{unit}  {count:>8}  {bar}")
    return lines


def render_serve_summary(registry: MetricsRegistry) -> list[str]:
    """The ``repro serve`` section: request counts per op, latency
    histogram with p50/p99, batch-size histogram, shed/quota/worker
    counters.  Returns [] when the registry carries no serve metrics.
    """
    requests = _counter_values(registry, "serve.requests", "op")
    if not requests:
        return []
    total = int(sum(requests.values()))
    per_op = " | ".join(f"{op} {int(count)}" for op, count
                        in sorted(requests.items()))
    lines = [f"serve: {total} requests ({per_op})"]
    batches = int(registry.value_of("serve.batches") or 0)
    multi = int(registry.value_of("serve.multi_request_batches") or 0)
    if batches:
        lines.append(f"batches {batches} ({multi} multi-request, "
                     f"{total / batches:.1f} requests/batch mean)")
    shed = int(registry.value_of("serve.shed") or 0)
    quota = int(registry.value_of("serve.quota_rejected") or 0)
    failures = int(registry.value_of("serve.worker_failures") or 0)
    if shed or quota or failures:
        lines.append(f"shed {shed} | quota-rejected {quota} | "
                     f"worker failures {failures}")
    latency = registry.histogram_of("serve.latency_seconds")
    if latency is not None and latency.count:
        p50 = _histogram_percentile(latency, 50) * 1e3
        p99 = _histogram_percentile(latency, 99) * 1e3
        lines.append(f"latency: p50 <= {p50:g} ms, p99 <= {p99:g} ms "
                     f"({latency.count} observations)")
        lines += _histogram_bars(latency, unit_scale=1e3, unit=" ms")
    batch_size = registry.histogram_of("serve.batch_size")
    if batch_size is not None and batch_size.count:
        lines.append("batch size:")
        lines += _histogram_bars(batch_size)
    return lines


def render_metrics(registry: MetricsRegistry,
                   include_volatile: bool = True) -> list[str]:
    """Generic dump: one line per counter/gauge, a summary line per
    histogram — the fallback for non-crawl metric files."""
    lines: list[str] = []
    for entry in registry.to_dict(include_volatile)["metrics"]:
        labels = entry["labels"]
        label_text = ("{" + ", ".join(f"{k}={v}" for k, v
                                      in sorted(labels.items())) + "}"
                      if labels else "")
        name = f"{entry['name']}{label_text}"
        if entry["type"] == "histogram":
            count = entry["count"]
            mean = entry["sum"] / count if count else 0.0
            lines.append(f"{name:<52} histogram  count {count:>8}  "
                         f"sum {entry['sum']:>12.3f}  mean {mean:.4f}")
        else:
            value = entry["value"]
            rendered = (f"{value:>12.3f}" if isinstance(value, float)
                        and value != int(value) else f"{int(value):>12}")
            lines.append(f"{name:<52} {entry['type']:<9} {rendered}")
    return lines


def render_trace_summary(spans: Iterable[Mapping]) -> list[str]:
    """Aggregate the spans of a trace export: span counts and total
    duration per span name, in first-seen order."""
    totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
    order: list[str] = []
    for span in spans:
        name = span["name"]
        if name not in totals:
            order.append(name)
        bucket = totals[name]
        bucket[0] += 1
        if span.get("end") is not None:
            bucket[1] += span["end"] - span["start"]
    out = [f"{'span':<24} {'count':>7} {'total':>12}"]
    for name in order:
        count, total = totals[name]
        out.append(f"{name:<24} {int(count):>7} {total:>12.3f}")
    return out


def render_report(metrics_path: str | Path,
                  trace_path: str | Path | None = None) -> list[str]:
    """The full ``repro report`` output for a metrics (+trace) file."""
    registry = MetricsRegistry.read_jsonl(metrics_path)
    lines = render_crawl_summary(registry)
    serve_lines = render_serve_summary(registry)
    if lines and serve_lines:
        lines.append("")
    lines += serve_lines
    if lines:
        lines.append("")
    lines += render_metrics(registry)
    if trace_path is not None:
        lines.append("")
        lines += render_trace_summary(read_jsonl(trace_path))
    return lines


def publish_report_metrics(report: Any,
                           registry: MetricsRegistry) -> None:
    """Mirror an :class:`~repro.dataflow.executor.ExecutionReport`'s
    per-stage stats onto a registry (see
    ``ExecutionReport.publish_to``, which delegates here to keep the
    dataflow layer's import surface one-directional)."""
    registry.counter("dataflow.executions").inc()
    registry.counter("dataflow.total_seconds", volatile=True).inc(
        report.total_seconds)
    for stats in report.operator_stats:
        stage = stats.name
        registry.counter("dataflow.stage_records_in", stage=stage).inc(
            stats.records_in)
        registry.counter("dataflow.stage_records_out", stage=stage).inc(
            stats.records_out)
        registry.counter("dataflow.stage_seconds", stage=stage,
                         volatile=True).inc(stats.seconds)
