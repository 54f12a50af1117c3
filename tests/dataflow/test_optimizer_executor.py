"""Tests for the SOFA-style optimizer and the local executor."""

import pytest

from repro.dataflow.executor import Executor
from repro.dataflow.operators import FilterOperator, MapOperator, Operator
from repro.dataflow.optimizer import SofaOptimizer, estimate_chain_cost
from repro.dataflow.plan import LogicalPlan


def _expensive_map():
    return MapOperator("expensive", lambda x: x, cost_per_record=100.0,
                       reads=frozenset({"a"}), writes=frozenset({"b"}))


def _cheap_filter():
    return FilterOperator("cheap_filter", lambda x: True, selectivity=0.1,
                          cost_per_record=1.0, reads=frozenset({"c"}))


class TestOptimizer:
    def test_filter_pushed_before_expensive_map(self):
        plan = LogicalPlan()
        tail = plan.chain([_expensive_map(), _cheap_filter()])
        plan.mark_sink("out", tail)
        report = SofaOptimizer().optimize(plan)
        assert report.n_swaps == 1
        assert [n.name for n in plan.topological_order()] == \
            ["cheap_filter", "expensive"]
        assert report.estimated_speedup > 1.0

    def test_conflicting_operators_not_swapped(self):
        writer = MapOperator("writer", lambda x: x, cost_per_record=100.0,
                             writes=frozenset({"text"}))
        reader = FilterOperator("reader", lambda x: True, selectivity=0.1,
                                reads=frozenset({"text"}))
        plan = LogicalPlan()
        plan.mark_sink("out", plan.chain([writer, reader]))
        report = SofaOptimizer().optimize(plan)
        assert report.n_swaps == 0
        assert [n.name for n in plan.topological_order()] == \
            ["writer", "reader"]

    def test_optimized_plan_same_results(self):
        """Truthful read/write sets guarantee reorder-equivalence."""
        def records():
            return [{"v": i, "u": i % 3} for i in range(8)]

        plan = LogicalPlan()
        tail = plan.chain([
            MapOperator("inc_v",
                        lambda r: {**r, "v": r["v"] + 1},
                        reads=frozenset({"v"}), writes=frozenset({"v"}),
                        cost_per_record=10),
            FilterOperator("u_zero", lambda r: r["u"] == 0,
                           selectivity=0.3, reads=frozenset({"u"})),
        ])
        plan.mark_sink("out", tail)
        before, _ = Executor().execute(plan, records())
        report = SofaOptimizer().optimize(plan)
        assert report.n_swaps == 1
        after, _ = Executor().execute(plan, records())
        key = lambda r: (r["v"], r["u"])  # noqa: E731
        assert sorted(before["out"], key=key) == sorted(after["out"],
                                                        key=key)

    def test_estimate_chain_cost(self):
        cost = estimate_chain_cost(
            [Operator("f", selectivity=0.5, cost_per_record=1.0),
             Operator("m", selectivity=1.0, cost_per_record=2.0)],
            input_records=100)
        assert cost == pytest.approx(100 * 1 + 50 * 2)

    def test_multiple_swaps_converge(self):
        plan = LogicalPlan()
        operators = [_expensive_map(), _expensive_map(), _cheap_filter()]
        operators[0].name, operators[1].name = "exp1", "exp2"
        plan.mark_sink("out", plan.chain(operators))
        SofaOptimizer().optimize(plan)
        assert [n.name for n in plan.topological_order()][0] == \
            "cheap_filter"


class TestExecutor:
    def _plan(self):
        plan = LogicalPlan()
        tail = plan.chain([
            MapOperator("inc", lambda x: x + 1),
            FilterOperator("even", lambda x: x % 2 == 0, selectivity=0.5),
        ])
        plan.mark_sink("out", tail)
        return plan

    def test_executes_chain(self):
        outputs, report = Executor().execute(self._plan(), range(10))
        assert outputs["out"] == [2, 4, 6, 8, 10]
        assert report.total_seconds >= 0

    def test_report_per_operator(self):
        _outputs, report = Executor().execute(self._plan(), range(10))
        names = [s.name for s in report.operator_stats]
        assert names == ["inc", "even"]
        assert report.operator_stats[0].records_in == 10
        assert report.operator_stats[1].records_out == 5

    def test_threaded_execution_same_result(self):
        """The process pool returns the sequential records in the
        sequential order."""
        sequential, _ = Executor().execute(self._plan(), range(50))
        pooled, report = Executor("fused-processes", dop=2).execute(
            self._plan(), range(50))
        assert pooled["out"] == sequential["out"]
        assert report.dop == (2 if report.mode == "fused-processes" else 1)

    def test_branching_plan(self):
        plan = LogicalPlan()
        root = plan.add(MapOperator("id", lambda x: x))
        plan.mark_sink("evens", plan.add(
            FilterOperator("evens", lambda x: x % 2 == 0), root))
        plan.mark_sink("odds", plan.add(
            FilterOperator("odds", lambda x: x % 2 == 1), root))
        outputs, _ = Executor().execute(plan, range(6))
        assert outputs["evens"] == [0, 2, 4]
        assert outputs["odds"] == [1, 3, 5]

    def test_leaf_sinks_inferred(self):
        plan = LogicalPlan()
        plan.chain([MapOperator("only", lambda x: x)])
        outputs, _ = Executor().execute(plan, [1, 2])
        assert outputs["only"] == [1, 2]

    def test_invalid_dop(self):
        with pytest.raises(ValueError):
            Executor(dop=0)

    def test_dominant_operators(self):
        _outputs, report = Executor().execute(self._plan(), range(100))
        dominant = report.dominant_operators(1)
        assert dominant[0][0] in ("inc", "even")
