"""Chain fusion: group a logical plan's nodes into execution stages.

The paper's war story (Section 4.2) is a list of physical-execution
pitfalls, the first of them every intermediate materialized through
HDFS.  :func:`fuse_plan` decides what the local engine materializes:
it groups maximal linear chains of same-kind operators into
:class:`FusedStage` units.  Inside a stage, records flow through the
operators' generators without materializing any edge — only stage
boundaries (fan-in, fan-out, parallelizability changes, and marked
sinks) produce lists.  With ``fuse=False`` every node is its own
stage, so every edge materializes.

:class:`~repro.dataflow.executor.Executor` runs the stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dataflow.operators import Operator
from repro.dataflow.plan import LogicalPlan, PlanNode


@dataclass
class FusedStage:
    """A maximal fusable chain of plan nodes executed as one unit."""

    stage_id: int
    nodes: list[PlanNode]
    inputs: list["FusedStage"] = field(default_factory=list)
    #: All operators in the stage are parallelizable (the stage may be
    #: partitioned) or none is (the stage runs at dop 1).
    parallel: bool = True

    @property
    def operators(self) -> list[Operator]:
        return [node.operator for node in self.nodes]

    @property
    def tail(self) -> PlanNode:
        return self.nodes[-1]

    @property
    def fused(self) -> bool:
        return len(self.nodes) > 1

    @property
    def operator_names(self) -> tuple[str, ...]:
        return tuple(node.name for node in self.nodes)

    @property
    def name(self) -> str:
        if not self.fused:
            return self.nodes[0].name
        return "fused[" + " > ".join(self.operator_names) + "]"


@dataclass
class FusedPlan:
    """A DAG of fused stages with named sink stages."""

    stages: list[FusedStage] = field(default_factory=list)
    sinks: dict[str, FusedStage] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.stages)

    @property
    def n_fused(self) -> int:
        return sum(1 for stage in self.stages if stage.fused)

    def describe(self) -> str:
        lines = []
        for stage in self.stages:
            parents = ", ".join(str(s.stage_id) for s in stage.inputs) \
                or "<source>"
            flag = "par" if stage.parallel else "seq"
            lines.append(f"{stage.stage_id:3d}  {stage.name}  "
                         f"<- {parents}  [{flag}]")
        return "\n".join(lines)


def fuse_plan(plan: LogicalPlan, fuse: bool = True) -> FusedPlan:
    """Group a logical plan's nodes into maximal fused stages, or
    (``fuse=False``) into one stage per node.

    A node extends its parent's stage iff the edge is linear (single
    input, single consumer), the parent is not a marked sink (sink
    outputs must materialize — they are deliverables), and both sides
    agree on parallelizability (so a whole stage can be partitioned or
    not, never half of it).  Everything else starts a new stage.
    """
    consumers = plan.consumers()
    sink_ids = {node.node_id for node in plan.sinks.values()}
    stage_of: dict[int, FusedStage] = {}
    stages: list[FusedStage] = []
    for node in plan.topological_order():
        target = None
        if fuse and len(node.inputs) == 1:
            parent = node.inputs[0]
            candidate = stage_of[parent.node_id]
            if (candidate.tail.node_id == parent.node_id
                    and len(consumers.get(parent.node_id, ())) == 1
                    and parent.node_id not in sink_ids
                    and candidate.parallel == node.operator.parallelizable):
                target = candidate
        if target is None:
            target = FusedStage(
                stage_id=len(stages), nodes=[],
                inputs=[stage_of[p.node_id] for p in node.inputs],
                parallel=node.operator.parallelizable)
            stages.append(target)
        target.nodes.append(node)
        stage_of[node.node_id] = target
    sinks = {name: stage_of[node.node_id]
             for name, node in plan.sinks.items()}
    if not sinks:
        consumed = {parent.stage_id for stage in stages
                    for parent in stage.inputs}
        sinks = {stage.tail.name: stage for stage in stages
                 if stage.stage_id not in consumed}
    return FusedPlan(stages=stages, sinks=sinks)
