"""SOFA-style logical optimization.

Reorders operators inside linear plan segments so that cheap, highly
selective operators run before expensive ones, subject to the
read/write-set commutation test (paper ref. [23]).  Classic predicate
ordering: an operator's rank is ``cost_per_record / (1 - selectivity)``
and lower ranks should execute earlier.

The reorder is a constrained bubble sort: only adjacent, commuting
pairs are swapped, so every intermediate plan is semantically
equivalent to the original by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.dataflow.operators import FlatMapOperator, Operator
from repro.dataflow.plan import LogicalPlan, PlanNode


@dataclass
class OptimizationReport:
    """What the optimizer did."""

    swaps: list[tuple[str, str]] = field(default_factory=list)
    segments_considered: int = 0
    estimated_cost_before: float = 0.0
    estimated_cost_after: float = 0.0

    @property
    def n_swaps(self) -> int:
        return len(self.swaps)

    @property
    def estimated_speedup(self) -> float:
        if self.estimated_cost_after <= 0:
            return 1.0
        return self.estimated_cost_before / self.estimated_cost_after


def estimate_chain_cost(operators: list[Operator],
                        input_records: float = 1000.0) -> float:
    """Expected processing cost of a chain given cardinality flow."""
    records = input_records
    cost = 0.0
    for operator in operators:
        cost += records * operator.cost_per_record + operator.startup_seconds
        records *= operator.selectivity
    return cost


class SofaOptimizer:
    """Reorders each linear segment of a plan in place."""

    def __init__(self, input_records: float = 1000.0) -> None:
        self.input_records = input_records

    def optimize(self, plan: LogicalPlan) -> OptimizationReport:
        report = OptimizationReport()
        for segment in plan.linear_segments():
            if len(segment) < 2:
                continue
            report.segments_considered += 1
            operators = [node.operator for node in segment]
            report.estimated_cost_before += estimate_chain_cost(
                operators, self.input_records)
            reordered = self._reorder(operators, report)
            report.estimated_cost_after += estimate_chain_cost(
                reordered, self.input_records)
            for node, operator in zip(segment, reordered):
                node.operator = operator
        return report

    def _reorder(self, operators: list[Operator],
                 report: OptimizationReport) -> list[Operator]:
        ops = list(operators)
        changed = True
        while changed:
            changed = False
            for i in range(len(ops) - 1):
                left, right = ops[i], ops[i + 1]
                if right.rank() < left.rank() and left.commutes_with(right):
                    ops[i], ops[i + 1] = right, left
                    report.swaps.append((left.name, right.name))
                    changed = True
        return ops


def _run_annotations(operators: list[Operator]) -> dict:
    """Optimizer annotations of a fused operator replacing ``operators``:
    cost and startup are the run's sums, memory its maximum, and the
    read/write sets the unions, so downstream cost modeling and SOFA
    see an equivalent stage."""
    return {
        "cost": sum(op.cost_per_record for op in operators),
        "memory_mb": max(op.memory_mb for op in operators),
        "startup": sum(op.startup_seconds for op in operators),
        "reads": frozenset().union(*(op.reads for op in operators)),
        "writes": frozenset().union(*(op.writes for op in operators)),
    }


# -- annotation-stage fusion ------------------------------------------------

#: Structural stage of each fusable elementary operator.  A run is
#: fusable when its stage indices are non-decreasing (split before
#: tokenize before POS before taggers) — the only order the flow
#: builders produce.
_FUSABLE_STAGES = {"annotate_sentences": 0, "annotate_tokens": 1,
                   "annotate_pos": 2}
_ENTITY_STAGE = 3


def _fusable_stage(node: PlanNode) -> int | None:
    stage = _FUSABLE_STAGES.get(node.operator.name)
    if stage is not None:
        return stage
    name = node.operator.name
    if (name.startswith("annotate_")
            and (name.endswith("_dict") or name.endswith("_ml"))
            and getattr(node.operator, "tagger", None) is not None):
        return _ENTITY_STAGE
    return None


def fuse_annotation_stage(plan: LogicalPlan) -> list[PlanNode]:
    """Substitute one-pass annotation operators into ``plan`` in place.

    Finds every maximal run ``[annotate_sentences]? [annotate_tokens]?
    [annotate_pos]? (annotate_<type>s_{dict,ml})*`` inside the plan's
    linear segments and replaces it with a single
    ``annotate_entities_fused`` operator wrapping a
    :class:`~repro.ner.onepass.OnePassAnnotator` built from the run's
    harvested tools (splitter, POS tagger, taggers in order).  Runs
    shorter than two operators, runs without a POS or entity stage,
    and runs crossing interior sinks are left alone.  The substituted
    operator's outputs are byte-identical to the replaced chain's (the
    engine's contract); its annotations aggregate the run's
    (:func:`_run_annotations`).

    Returns the list of substituted nodes (empty when nothing fused).
    """
    from repro.dataflow.packages import make_operator
    from repro.ner.onepass import OnePassAnnotator

    fused_nodes: list[PlanNode] = []
    changed = True
    while changed:
        changed = False
        for segment in plan.linear_segments():
            run: list[PlanNode] = []
            last_stage = -1
            best: list[PlanNode] = []
            sink_ids = {id(sink) for sink in plan.sinks.values()}

            def flush() -> None:
                nonlocal best
                if len(run) > len(best):
                    best = list(run)
            for node in segment:
                stage = _fusable_stage(node)
                # Interior sinks would be orphaned by substitution;
                # only a run-final sink can be remapped, so a sink
                # node closes the run after itself.
                if stage is None or stage < last_stage:
                    flush()
                    run = []
                    last_stage = -1
                if stage is not None and stage >= last_stage:
                    run.append(node)
                    last_stage = stage
                    if id(node) in sink_ids:
                        flush()
                        run = []
                        last_stage = -1
            flush()
            if len(best) < 2 or all(
                    _fusable_stage(node) < 2 for node in best):
                continue
            stages = [_fusable_stage(node) for node in best]
            if 0 in stages and 1 not in stages and max(stages) >= 2:
                continue  # would tokenize where the chain would crash
            annotator = OnePassAnnotator(
                steps=[node.operator.tagger for node in best
                       if _fusable_stage(node) == _ENTITY_STAGE],
                splitter=next(
                    (node.operator.splitter for node in best
                     if node.operator.name == "annotate_sentences"), None),
                split="always" if 0 in stages else "never",
                retokenize=1 in stages,
                pos_tagger=next(
                    (node.operator.tagger for node in best
                     if node.operator.name == "annotate_pos"), None),
                skip_pos_crashes=next(
                    (node.operator.skip_crashes for node in best
                     if node.operator.name == "annotate_pos"), True))
            fused = make_operator(
                "annotate_entities_fused", annotator=annotator,
                **_run_annotations([node.operator for node in best]))
            fused_nodes.append(plan.replace_run(best, fused))
            changed = True
            break  # segments are stale after surgery; recompute
    return fused_nodes


# -- web-treatment fusion ---------------------------------------------------

#: Operators a fusable web run may hold between ``repair_markup`` and
#: ``remove_boilerplate``: each reads the repaired page (or only the url).
_WEB_MIDDLE = frozenset({"extract_title", "extract_links", "annotate_host"})


def _web_runs(segment: list[PlanNode]) -> Iterator[list[PlanNode]]:
    """Every ``[detect_markup_errors]? repair_markup (extract_title |
    extract_links | annotate_host)* remove_boilerplate`` run of a
    linear segment."""
    names = [node.operator.name for node in segment]
    for start, name in enumerate(names):
        if name != "repair_markup":
            continue
        end = start + 1
        while end < len(names) and names[end] in _WEB_MIDDLE:
            end += 1
        if (end < len(names) and names[end] == "remove_boilerplate"
                and getattr(segment[end].operator, "detector", None)
                is not None):
            if start and names[start - 1] == "detect_markup_errors":
                start -= 1
            yield segment[start:end + 1]


def _raw_observable(plan: LogicalPlan, run: list[PlanNode]) -> bool:
    """Whether anything downstream of ``run`` could see that the fused
    operator leaves ``raw`` unrepaired: an operator reading ``raw``, or
    a sink reached before a :class:`FlatMapOperator` has turned the
    documents into records.  Without marked sinks every leaf is one."""
    consumers = plan.consumers()
    sink_ids = ({node.node_id for node in plan.sinks.values()}
                or {node.node_id for node in plan.nodes
                    if node.node_id not in consumers})
    if any(node.node_id in sink_ids for node in run):
        return True
    documents = [run[-1]]  # nodes whose output is still documents
    seen: set[int] = set()
    while documents:
        for child in consumers.get(documents.pop().node_id, ()):
            if child.node_id in seen:
                continue
            seen.add(child.node_id)
            if "raw" in child.operator.reads:
                return True
            if isinstance(child.operator, FlatMapOperator):
                continue
            if child.node_id in sink_ids:
                return True
            documents.append(child)
    return False


def fuse_web_stage(plan: LogicalPlan) -> list[PlanNode]:
    """Substitute one-scan web operators into ``plan`` in place.

    Finds every run ``[detect_markup_errors]? repair_markup
    (extract_title | extract_links | annotate_host)* remove_boilerplate``
    inside the plan's linear segments and replaces it with a single
    ``treat_web_documents_fused`` operator, which computes every meta
    key and the ``text`` the run wrote from one
    :func:`~repro.html.boilerplate.scan_page` call per page instead of
    a repair plus three parses.  The fused operator leaves ``raw``
    unrepaired, so a run is left alone when anything downstream could
    observe ``raw`` (:func:`_raw_observable`).  Its annotations
    aggregate the run's (:func:`_run_annotations`).

    Returns the list of substituted nodes (empty when nothing fused).
    """
    from repro.dataflow.packages import make_operator

    fused_nodes: list[PlanNode] = []
    changed = True
    while changed:
        changed = False
        for segment in plan.linear_segments():
            run = next((run for run in _web_runs(segment)
                        if not _raw_observable(plan, run)), None)
            if run is None:
                continue
            operators = [node.operator for node in run]
            fused = make_operator(
                "treat_web_documents_fused",
                detector=run[-1].operator.detector,
                steps=tuple(op.name for op in operators),
                **_run_annotations(operators))
            fused_nodes.append(plan.replace_run(run, fused))
            changed = True
            break  # segments are stale after surgery; recompute
    return fused_nodes


def fuse_physical_stages(plan: LogicalPlan) -> list[PlanNode]:
    """Every physical fusion pass, in place: the web-treatment run
    (:func:`fuse_web_stage`), then the annotation run
    (:func:`fuse_annotation_stage`).  Returns the substituted nodes."""
    return fuse_web_stage(plan) + fuse_annotation_stage(plan)
