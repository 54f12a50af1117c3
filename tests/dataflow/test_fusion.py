"""Tests for chain fusion and the executor's three physical modes.

The load-bearing property is *mode equivalence*: every physical
execution mode (sequential, fused, fused-processes) must produce
byte-identical sink outputs, including record order — order-sensitive
operators (prefix sums, sorts) make any partition/merge mistake
visible immediately.
"""

import json
import random

import pytest

from repro.core.flows import EXECUTION_MODES, run_flow
from repro.dataflow.executor import (
    BATCH_RECORDS, Executor, contiguous_partitions,
)
from repro.dataflow.fusion import FusedPlan, fuse_plan
from repro.dataflow.operators import (
    FilterOperator, FlatMapOperator, MapOperator, UdfOperator,
)
from repro.dataflow.plan import LogicalPlan


def _inc(name="inc"):
    return MapOperator(name, lambda r: r + 1)


def _dup(name="dup"):
    return FlatMapOperator(name, lambda r: [r, r * 10])


def _drop3(name="drop3"):
    return FilterOperator(name, lambda r: r % 3 != 0)


def _prefix_sum(name="prefix_sum"):
    def fn(stream):
        total = 0
        for record in stream:
            total += record
            yield total
    return UdfOperator(name, fn)


def _linear_plan():
    plan = LogicalPlan()
    tail = plan.chain([_inc(), _dup(), _drop3()])
    plan.mark_sink("out", tail)
    return plan


class TestContiguousPartitions:
    def test_concatenation_restores_order(self):
        records = list(range(23))
        parts = contiguous_partitions(records, 4)
        assert [r for part in parts for r in part] == records

    def test_sizes_near_equal(self):
        parts = contiguous_partitions(list(range(10)), 3)
        assert sorted(len(p) for p in parts) == [3, 3, 4]

    def test_more_parts_than_records(self):
        parts = contiguous_partitions([1, 2], 5)
        assert [r for part in parts for r in part] == [1, 2]
        assert all(len(p) <= 1 for p in parts)


class TestFusePlan:
    def test_linear_chain_fuses_into_one_stage(self):
        fused = fuse_plan(_linear_plan())
        assert isinstance(fused, FusedPlan)
        assert len(fused.stages) == 1
        assert fused.n_fused == 1
        assert fused.stages[0].name == "fused[inc > dup > drop3]"
        assert list(fused.sinks) == ["out"]

    def test_parallelizability_change_breaks_stage(self):
        plan = LogicalPlan()
        tail = plan.chain([_inc(), _prefix_sum(), _dup()])
        plan.mark_sink("out", tail)
        fused = fuse_plan(plan)
        assert [stage.name for stage in fused.stages] == \
            ["inc", "prefix_sum", "dup"]
        assert [stage.parallel for stage in fused.stages] == \
            [True, False, True]

    def test_fan_out_breaks_stage(self):
        plan = LogicalPlan()
        head = plan.chain([_inc(), _dup()])
        left = plan.add(_drop3("left"), head)
        right = plan.add(MapOperator("right", lambda r: -r), head)
        plan.mark_sink("left", left)
        plan.mark_sink("right", right)
        fused = fuse_plan(plan)
        assert [stage.name for stage in fused.stages] == \
            ["fused[inc > dup]", "left", "right"]

    def test_sink_with_consumer_still_materializes(self):
        """A sink's output is a deliverable even when another stage
        consumes it downstream (Fig. 2: entities -> frequencies)."""
        plan = LogicalPlan()
        head = plan.chain([_inc(), _drop3()])
        tail = plan.add(_dup("downstream"), head)
        plan.mark_sink("mid", head)
        plan.mark_sink("final", tail)
        fused = fuse_plan(plan)
        assert [stage.name for stage in fused.stages] == \
            ["fused[inc > drop3]", "downstream"]
        outputs, _ = Executor("fused").execute(plan, list(range(10)))
        assert set(outputs) == {"mid", "final"}

    def test_fuse_off_is_one_stage_per_node(self):
        plan = _linear_plan()
        staged = fuse_plan(plan, fuse=False)
        assert [stage.name for stage in staged.stages] == \
            ["inc", "dup", "drop3"]
        assert staged.n_fused == 0
        assert list(staged.sinks) == ["out"]

    def test_fig2_flow_fuses(self, context):
        from repro.core.flows import build_fig2_flow

        fused = fuse_plan(build_fig2_flow(context.pipeline))
        assert fused.n_fused >= 3
        assert len(fused.stages) < sum(len(s.nodes) for s in fused.stages)
        assert set(fused.sinks) == {"sentences", "linguistics", "entities",
                                    "entity_frequencies", "edges",
                                    "relations"}


def _random_plan(rng):
    """A randomized mix of maps/filters/flatmaps/UDFs with branches."""
    plan = LogicalPlan()
    makers = [
        lambda i: MapOperator(f"add{i}", lambda r, k=i: r + k),
        lambda i: FilterOperator(f"mod{i}", lambda r, k=i: r % (k + 2) != 0),
        lambda i: FlatMapOperator(f"fan{i}",
                                  lambda r, k=i: [r] * (r % (k + 2))),
        lambda i: _prefix_sum(f"psum{i}"),
    ]
    head = plan.chain([makers[rng.randrange(4)](i)
                       for i in range(rng.randrange(2, 6))])
    plan.mark_sink("a", head)
    for branch in range(rng.randrange(1, 3)):
        tail = plan.chain([makers[rng.randrange(4)](10 * (branch + 1) + i)
                           for i in range(rng.randrange(1, 4))], after=head)
        plan.mark_sink(f"b{branch}", tail)
    return plan


def _pair_up(name="pair_up"):
    """Consumes its input in a single pass, two records per step — only
    correct when handed one iterator it alone advances."""
    def fn(stream):
        for first in stream:
            yield (first, next(stream, None))
    return UdfOperator(name, fn)


def _diamond_plan():
    """Fan-out into two branches, fan-in again, no marked sinks."""
    plan = LogicalPlan()
    head = plan.chain([_inc(), _dup()])
    left = plan.add(_drop3("left"), head)
    right = plan.chain([MapOperator("neg", lambda r: -r),
                        _pair_up(), MapOperator("first", lambda r: r[0])],
                       after=head)
    union = plan.add(_prefix_sum("union"), [left, right])
    plan.add(_inc("leaf_a"), union)
    plan.add(_drop3("leaf_b"), union)
    return plan


class TestModeEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_all_modes_identical_on_random_plans(self, seed):
        rng = random.Random(seed)
        records = [rng.randrange(100) for _ in range(rng.randrange(5, 60))]
        reference = None
        for mode in EXECUTION_MODES:
            outputs, report = run_flow(_random_plan(random.Random(seed)),
                                       list(records), mode=mode, dop=3)
            if reference is None:
                reference = outputs
            else:
                assert outputs == reference, mode
            assert report.mode in (mode, "fused")

    def test_all_modes_identical_on_fan_in_fan_out(self):
        """Unmarked leaves are the sinks, named by their operators;
        the union and the single-pass operator see their inputs in
        plan order in every mode."""
        records = list(range(70))
        reference = None
        for mode in EXECUTION_MODES:
            outputs, _ = Executor(mode, dop=3).execute(_diamond_plan(),
                                                       records)
            assert list(outputs) == ["leaf_a", "leaf_b"], mode
            if reference is None:
                reference = outputs
            else:
                assert outputs == reference, mode
        assert reference["leaf_a"][:3] == [2, 12, 14]

    @pytest.mark.parametrize("mode", ["sequential"])
    def test_unfused_modes_report_one_entry_per_node(self, mode):
        plan = _diamond_plan()
        _, report = Executor(mode, dop=3).execute(plan, list(range(70)))
        order = [node.name for node in plan.topological_order()]
        assert [stats.name for stats in report.operator_stats] == order
        assert [stats.operators for stats in report.operator_stats] == \
            [(name,) for name in order]
        assert report.n_fused_stages == 0
        assert report.mode == mode
        assert report.dop == 1

    def test_threaded_local_executor_preserves_order(self):
        """The process pool merges its batches back in record order."""
        plan = _linear_plan()
        sequential, _ = Executor().execute(plan, list(range(40)))
        pooled, _ = Executor("fused-processes", dop=2).execute(
            _linear_plan(), list(range(40)))
        assert pooled["out"] == sequential["out"]

    def test_fused_processes_equivalence_with_closures(self):
        """Closure-carrying operators survive the fork boundary; past
        BATCH_RECORDS per worker the stage is cut into more than
        ``dop`` batches and the merge still restores record order."""
        records = list(range(BATCH_RECORDS * 5))
        executor = Executor("fused-processes", dop=2)
        outputs, report = executor.execute(_linear_plan(), records)
        reference, _ = Executor().execute(_linear_plan(), records)
        assert outputs["out"] == reference["out"]
        assert report.mode in ("fused-processes", "fused")


def _count_fork_pools(monkeypatch) -> list:
    import repro.dataflow.executor as executor_module

    created = []
    real = executor_module.fork_pool

    def counting(*args, **kwargs):
        created.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(executor_module, "fork_pool", counting)
    return created


class TestExecutorPools:
    def test_one_thread_pool_per_execute(self, monkeypatch):
        """One fork pool per ``execute()``, however many stages the
        plan has."""
        from repro.workers import fork_start_available

        if not fork_start_available():  # pragma: no cover
            pytest.skip("no fork on this platform")
        created = _count_fork_pools(monkeypatch)
        Executor("fused-processes", dop=2).execute(_diamond_plan(),
                                                   list(range(30)))
        assert len(created) == 1

    def test_sequential_local_executor_creates_no_pool(self, monkeypatch):
        """Only ``fused-processes`` past ``dop=1`` forks a pool."""
        created = _count_fork_pools(monkeypatch)
        for mode, dop in (("sequential", 4), ("fused", 4),
                          ("fused-processes", 1)):
            Executor(mode, dop=dop).execute(_linear_plan(), list(range(10)))
        assert created == []


class TestSpawnFallback:
    def test_spawn_only_platform_degrades_to_threads(self, monkeypatch):
        """Windows-style platforms (no fork) must get ``fused``
        in-process plus a warning, not a pickling crash."""
        import repro.workers as workers_module

        monkeypatch.setattr(workers_module.multiprocessing,
                            "get_all_start_methods", lambda: ["spawn"])
        with pytest.warns(RuntimeWarning, match="fork"):
            executor = Executor("fused-processes", dop=2)
        assert (executor.mode, executor.dop) == ("fused", 1)
        outputs, report = executor.execute(_linear_plan(), list(range(30)))
        reference, _ = Executor().execute(_linear_plan(), list(range(30)))
        assert outputs["out"] == reference["out"]
        assert report.mode == "fused"

    def test_pinned_spawn_method_degrades_to_threads(self, monkeypatch):
        """fork available on the platform, but the interpreter pinned
        spawn globally — still fall back."""
        import repro.workers as workers_module

        monkeypatch.setattr(workers_module.multiprocessing,
                            "get_start_method",
                            lambda allow_none=False: "spawn")
        with pytest.warns(RuntimeWarning, match="falling back"):
            executor = Executor("fused-processes", dop=2)
        assert executor.mode == "fused"

    def test_fork_platform_keeps_processes(self):
        from repro.workers import fork_start_available

        if not fork_start_available():  # pragma: no cover
            pytest.skip("no fork on this platform")
        executor = Executor("fused-processes", dop=2)
        assert executor.mode == "fused-processes"

    def test_probe_does_not_pin_start_method(self):
        """fork_start_available must not fix the global start method as
        a side effect of asking."""
        import multiprocessing

        from repro.workers import fork_start_available

        before = multiprocessing.get_start_method(allow_none=True)
        fork_start_available()
        assert multiprocessing.get_start_method(allow_none=True) == before


class TestThroughputGuards:
    """Regression: sub-resolution timings and empty reports must yield
    0.0 throughput, never a ZeroDivisionError."""

    def test_operator_stats_zero_seconds(self):
        from repro.dataflow.executor import OperatorStats

        stats = OperatorStats(name="x", records_in=10, records_out=10,
                              seconds=0.0)
        assert stats.records_per_second == 0.0
        assert stats.to_dict()["records_per_second"] == 0.0

    def test_empty_report_share_and_total(self):
        from repro.dataflow.executor import ExecutionReport

        report = ExecutionReport()
        assert report.share_of("anything") == 0.0
        assert report.total_records_per_second == 0.0
        assert report.to_dict()["total_records_per_second"] == 0.0

    def test_zero_second_report_total(self):
        from repro.dataflow.executor import ExecutionReport, OperatorStats

        report = ExecutionReport(
            operator_stats=[OperatorStats("x", 5, 5, 0.0)],
            total_seconds=0.0)
        assert report.total_records_per_second == 0.0
        assert report.share_of("x") == 0.0


class TestReport:
    def test_report_throughput_and_json(self):
        outputs, report = Executor("fused").execute(_linear_plan(),
                                                    list(range(20)))
        assert report.mode == "fused"
        assert report.n_fused_stages == 1
        stats = report.operator_stats[0]
        assert stats.fused
        assert stats.operators == ("inc", "dup", "drop3")
        assert stats.records_in == 20
        assert stats.records_out == len(outputs["out"])
        assert stats.records_per_second >= 0
        payload = json.loads(report.to_json())
        assert payload["mode"] == "fused"
        assert payload["stages"][0]["operators"] == ["inc", "dup", "drop3"]
        assert payload["total_records_per_second"] >= 0

    def test_executor_rejects_unknown_mode(self):
        for mode in ("mapreduce", "threads", "fused-threads"):
            with pytest.raises(ValueError) as raised:
                Executor(mode, dop=2)
            assert str(raised.value) == (
                f"unknown execution mode {mode!r}; expected one of "
                "('sequential', 'fused', 'fused-processes')")
