"""The plan executor, with per-operator accounting.

One :class:`Executor` runs a :class:`~repro.dataflow.plan.LogicalPlan`
over in-memory records in every physical mode (:data:`EXECUTION_MODES`).
The plan is first grouped into stages by
:func:`~repro.dataflow.fusion.fuse_plan`: with fusion off every node is
its own stage, so every edge materializes as a list (the
HDFS-intermediate behaviour the paper's war story, Section 4.2, turns
on); with fusion on, maximal linear chains stream through the
operators' generators and only stage boundaries produce lists — the
*potential* side of that story.

``fused-processes`` fans contiguous record batches of a parallelizable
stage out over one **fork** process pool per ``execute()`` call and
merges them back in order, so every mode produces byte-identical sink
outputs, not merely set-equal ones.  Forked workers inherit the
already-built operator chains (taggers, automata, CRF weights) by
copy-on-write instead of re-building or pickling them — the
in-process analogue of fixing the paper's 20-minute per-worker
dictionary load.  Only record batches cross the process boundary, and
the fork pool sidesteps the GIL for CPU-heavy stages (POS HMM, CRF,
dictionary tagging).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Sequence

from repro.dataflow.fusion import FusedStage, fuse_plan
from repro.dataflow.operators import Operator
from repro.dataflow.plan import LogicalPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, maybe_span
from repro.workers import can_fork, fork_pool

#: Physical execution modes (docs/dataflow.md, "Physical execution").
EXECUTION_MODES = ("sequential", "fused", "fused-processes")

#: Records per work batch under ``fused-processes`` (a stage is cut
#: into at least ``dop`` batches, and more when it holds more than this
#: many records per worker).
BATCH_RECORDS = 32

#: Operator chains of the plan currently executing, one per stage,
#: inherited by forked pool workers (set immediately before the pool
#: is created so the fork snapshot contains it; cleared when the pool
#: is torn down).
_WORKER_STAGES: list[list[Operator]] | None = None


def contiguous_partitions(records: Sequence[Any],
                          n: int) -> list[list[Any]]:
    """Split ``records`` into at most ``n`` contiguous, near-equal
    slices.

    Contiguity is the order-preservation trick: element-wise operators
    (the only parallelizable kind) emit their outputs in input order
    within each slice, so concatenating the processed slices in slice
    order reproduces the sequential output exactly.  Round-robin
    partitioning (``records[i::n]``) does not have this property.
    """
    if not records:
        return []
    n = max(1, min(n, len(records)))
    base, extra = divmod(len(records), n)
    parts = []
    start = 0
    for index in range(n):
        size = base + (1 if index < extra else 0)
        parts.append(list(records[start:start + size]))
        start += size
    return parts


@dataclass
class OperatorStats:
    """Throughput accounting for one operator (or fused stage)."""

    name: str
    records_in: int
    records_out: int
    seconds: float
    #: Names of the operators executed under this entry — a single
    #: name for plain node execution, the full chain for fused stages.
    operators: tuple[str, ...] = ()

    @property
    def records_per_second(self) -> float:
        """Input throughput; 0.0 (never a ZeroDivisionError) when the
        stage ran below timer resolution."""
        if self.seconds <= 0:
            return 0.0
        return self.records_in / self.seconds

    @property
    def fused(self) -> bool:
        return len(self.operators) > 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "operators": list(self.operators) or [self.name],
            "records_in": self.records_in,
            "records_out": self.records_out,
            "seconds": self.seconds,
            "records_per_second": self.records_per_second,
        }


@dataclass
class ExecutionReport:
    """Per-operator and total execution metrics."""

    operator_stats: list[OperatorStats] = field(default_factory=list)
    total_seconds: float = 0.0
    dop: int = 1
    #: The :data:`EXECUTION_MODES` entry that produced this report.
    mode: str = "sequential"

    def seconds_of(self, operator_name: str) -> float:
        return sum(s.seconds for s in self.operator_stats
                   if s.name == operator_name)

    def share_of(self, operator_name: str) -> float:
        """Fraction of total runtime spent in one operator; 0.0 when
        nothing was timed (empty report or sub-resolution run)."""
        busy = sum(s.seconds for s in self.operator_stats)
        if busy <= 0:
            return 0.0
        return self.seconds_of(operator_name) / busy

    def dominant_operators(self, k: int = 5) -> list[tuple[str, float]]:
        totals: dict[str, float] = {}
        for stats in self.operator_stats:
            totals[stats.name] = totals.get(stats.name, 0.0) + stats.seconds
        return sorted(totals.items(), key=lambda item: -item[1])[:k]

    @property
    def n_fused_stages(self) -> int:
        return sum(1 for stats in self.operator_stats if stats.fused)

    @property
    def total_records_per_second(self) -> float:
        """End-to-end throughput; 0.0 (never a ZeroDivisionError) for
        empty reports or sub-resolution total timings."""
        if self.total_seconds <= 0 or not self.operator_stats:
            return 0.0
        return self.operator_stats[0].records_in / self.total_seconds

    def to_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "dop": self.dop,
            "total_seconds": self.total_seconds,
            "total_records_per_second": self.total_records_per_second,
            "n_stages": len(self.operator_stats),
            "n_fused_stages": self.n_fused_stages,
            "stages": [stats.to_dict() for stats in self.operator_stats],
        }

    def to_json(self, indent: int = 2) -> str:
        """JSON dump for benchmark artifacts (BENCH_executor.json)."""
        return json.dumps(self.to_dict(), indent=indent)

    def publish_to(self, registry) -> None:
        """Mirror this report's per-stage stats onto a
        :class:`~repro.obs.metrics.MetricsRegistry` — the unified
        observability model.  Record counts are deterministic metrics;
        seconds are volatile (they depend on the physical mode).  The
        report itself stays the public API."""
        from repro.obs.report import publish_report_metrics

        publish_report_metrics(self, registry)


def _run_operator_chain(operators: Sequence[Operator],
                        records: Sequence[Any]) -> list[Any]:
    """Stream records through a stage's chain of operator generators."""
    stream = iter(records)
    for operator in operators:
        operator.open()
        stream = operator.process(stream)
    return list(stream)


def _process_worker(task: tuple[int, list[Any]]) -> list[Any]:
    stage_index, batch = task
    assert _WORKER_STAGES is not None, "worker forked without stage table"
    return _run_operator_chain(_WORKER_STAGES[stage_index], batch)


class Executor:
    """Runs plans on the local machine in one of :data:`EXECUTION_MODES`
    (all produce byte-identical sink outputs):

    * ``sequential`` — every node its own stage, every edge a list;
    * ``fused`` — linear chains stream through generators,
      materializing only at stage boundaries;
    * ``fused-processes`` — ``fused``, with contiguous record batches
      of parallelizable stages fanned out over one fork-based process
      pool of ``dop`` workers, escaping the GIL.  Falls back to
      ``fused`` in-process where ``fork`` is unavailable.

    ``dop`` only matters to ``fused-processes``; at ``dop=1`` it runs
    without a pool.  ``metrics`` and ``tracer`` attach the
    observability subsystem (docs/observability.md); execution results
    are unchanged either way.
    """

    def __init__(self, mode: str = "sequential", dop: int = 1,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None) -> None:
        if mode not in EXECUTION_MODES:
            raise ValueError(f"unknown execution mode {mode!r}; "
                             f"expected one of {EXECUTION_MODES}")
        if dop < 1:
            raise ValueError("dop must be >= 1")
        if mode == "fused-processes" and dop > 1 \
                and not can_fork("fused-processes", "fused"):
            mode = "fused"
        self.mode = mode
        self.dop = dop if mode == "fused-processes" else 1
        self.metrics = metrics
        self.tracer = tracer

    def execute(self, plan: LogicalPlan, source_records: Sequence[Any],
                ) -> tuple[dict[str, list[Any]], ExecutionReport]:
        """Run the plan; returns ({sink_name: records}, report).

        If the plan has no marked sinks, the outputs of all leaf nodes
        are returned under their operator names.
        """
        global _WORKER_STAGES
        staged = fuse_plan(plan, fuse=self.mode.startswith("fused"))
        report = ExecutionReport(dop=self.dop, mode=self.mode)
        started = time.perf_counter()
        outputs: dict[int, list[Any]] = {}
        pool = None
        try:
            if self.dop > 1:
                _WORKER_STAGES = [stage.operators for stage in staged.stages]
                pool = fork_pool(self.dop)
            with maybe_span(self.tracer, "dataflow.execute",
                            mode=self.mode, dop=self.dop,
                            records=len(source_records)) as span:
                for stage in staged.stages:
                    records = (list(source_records) if not stage.inputs
                               else list(chain.from_iterable(
                                   outputs[parent.stage_id]
                                   for parent in stage.inputs)))
                    with maybe_span(self.tracer, "dataflow.stage",
                                    stage=stage.name,
                                    records_in=len(records)) as stage_span:
                        stage_started = time.perf_counter()
                        result = self._run_stage(stage, records, pool)
                        elapsed = time.perf_counter() - stage_started
                        stage_span.set(records_out=len(result))
                    outputs[stage.stage_id] = result
                    report.operator_stats.append(OperatorStats(
                        name=stage.name, records_in=len(records),
                        records_out=len(result), seconds=elapsed,
                        operators=stage.operator_names))
                span.set(stages=len(report.operator_stats))
        finally:
            if pool is not None:
                pool.close()
                pool.join()
                _WORKER_STAGES = None
        report.total_seconds = time.perf_counter() - started
        if self.metrics is not None:
            report.publish_to(self.metrics)
        return ({name: outputs[stage.stage_id]
                 for name, stage in staged.sinks.items()}, report)

    def _run_stage(self, stage: FusedStage, records: list[Any],
                   pool) -> list[Any]:
        if not (pool is not None and stage.parallel and len(records) > 1):
            return _run_operator_chain(stage.operators, records)
        batches = contiguous_partitions(
            records, max(self.dop, -(-len(records) // BATCH_RECORDS)))
        parts = pool.map(_process_worker,
                         [(stage.stage_id, batch) for batch in batches])
        # Batches are contiguous and map() preserves task order, so
        # this concatenation restores the sequential order.
        return list(chain.from_iterable(parts))
