"""Logical plans: DAGs of operators.

A plan node wraps one operator and points at its input nodes.  Most of
the paper's flows are chains with a shared preprocessing prefix fanning
out into linguistic and entity branches (Fig. 2); the plan model
supports arbitrary DAGs with single-output nodes and multiple sinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dataflow.operators import Operator


@dataclass
class PlanNode:
    """One operator instance in a plan."""

    operator: Operator
    inputs: list["PlanNode"] = field(default_factory=list)
    node_id: int = -1

    @property
    def name(self) -> str:
        return self.operator.name


class LogicalPlan:
    """An operator DAG with named sinks."""

    def __init__(self) -> None:
        self._nodes: list[PlanNode] = []
        self.sinks: dict[str, PlanNode] = {}
        self.source: PlanNode | None = None

    # -- construction -------------------------------------------------------

    def add(self, operator: Operator,
            inputs: list[PlanNode] | PlanNode | None = None) -> PlanNode:
        if isinstance(inputs, PlanNode):
            inputs = [inputs]
        node = PlanNode(operator=operator, inputs=list(inputs or []),
                        node_id=len(self._nodes))
        self._nodes.append(node)
        if not node.inputs and self.source is None:
            self.source = node
        return node

    def chain(self, operators: list[Operator],
              after: PlanNode | None = None) -> PlanNode:
        """Append a linear chain; returns its last node."""
        current = after
        for operator in operators:
            current = self.add(operator, current)
        if current is None:
            raise ValueError("empty chain")
        return current

    def mark_sink(self, name: str, node: PlanNode) -> None:
        self.sinks[name] = node

    # -- surgery ------------------------------------------------------------

    def replace_run(self, run: list[PlanNode],
                    operator: Operator) -> PlanNode:
        """Substitute one node for a contiguous single-consumer run.

        The new node inherits the run head's inputs; consumers of the
        run tail are rewired onto it.  Interior nodes must have no
        consumers or sinks outside the run (the shape
        :meth:`linear_segments` guarantees); node ids are renumbered
        to stay dense.  Returns the new node.
        """
        if not run:
            raise ValueError("empty run")
        run_ids = {id(node) for node in run}
        tail = run[-1]
        for outside in self._nodes:
            if id(outside) in run_ids:
                continue
            for parent in outside.inputs:
                if id(parent) in run_ids and parent is not tail:
                    raise ValueError(
                        f"node {outside.name!r} consumes interior run "
                        f"node {parent.name!r}")
        for name, sink in self.sinks.items():
            if id(sink) in run_ids and sink is not tail:
                raise ValueError(
                    f"sink {name!r} is an interior node of the run")
        new_node = PlanNode(operator=operator, inputs=list(run[0].inputs))
        for outside in self._nodes:
            if id(outside) in run_ids:
                continue
            outside.inputs = [new_node if parent is tail else parent
                              for parent in outside.inputs]
        for name, sink in list(self.sinks.items()):
            if sink is tail:
                self.sinks[name] = new_node
        position = next(index for index, node in enumerate(self._nodes)
                        if node is run[0])
        self._nodes = [node for node in self._nodes
                       if id(node) not in run_ids]
        self._nodes.insert(position, new_node)
        for index, node in enumerate(self._nodes):
            node.node_id = index
        if self.source is not None and id(self.source) in run_ids:
            self.source = new_node
        return new_node

    def copy_structure(self) -> "LogicalPlan":
        """A structural copy: fresh nodes, shared operator objects.

        Plan surgery (optimization, fusion substitution) on the copy
        leaves the original intact; operators are shared because they
        carry tool state (automata, models, caches) that must not be
        duplicated.
        """
        copy = LogicalPlan()
        mapping: dict[int, PlanNode] = {}
        for node in self._nodes:
            fresh = PlanNode(
                operator=node.operator,
                inputs=[mapping[id(parent)] for parent in node.inputs],
                node_id=node.node_id)
            mapping[id(node)] = fresh
            copy._nodes.append(fresh)
        copy.sinks = {name: mapping[id(sink)]
                      for name, sink in self.sinks.items()}
        copy.source = (mapping[id(self.source)]
                       if self.source is not None else None)
        return copy

    # -- introspection ------------------------------------------------------------

    @property
    def nodes(self) -> list[PlanNode]:
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def operators(self) -> list[Operator]:
        return [node.operator for node in self._nodes]

    def topological_order(self) -> list[PlanNode]:
        """Nodes in dependency order; raises on cycles."""
        visited: dict[int, int] = {}  # 0 = visiting, 1 = done
        order: list[PlanNode] = []

        def visit(node: PlanNode) -> None:
            state = visited.get(node.node_id)
            if state == 1:
                return
            if state == 0:
                raise ValueError("plan contains a cycle")
            visited[node.node_id] = 0
            for parent in node.inputs:
                visit(parent)
            visited[node.node_id] = 1
            order.append(node)

        for node in self._nodes:
            visit(node)
        return order

    def consumers(self) -> dict[int, list[PlanNode]]:
        """Map node_id -> nodes that consume its output (fan-out
        detection for segmentation, fusion, and sink inference)."""
        mapping: dict[int, list[PlanNode]] = {}
        for node in self._nodes:
            for parent in node.inputs:
                mapping.setdefault(parent.node_id, []).append(node)
        return mapping

    def linear_segments(self) -> list[list[PlanNode]]:
        """Maximal chains of single-input/single-consumer nodes —
        the units the optimizer may reorder within."""
        consumers = self.consumers()
        segments: list[list[PlanNode]] = []
        in_segment: set[int] = set()
        for node in self.topological_order():
            if node.node_id in in_segment:
                continue
            segment = [node]
            current = node
            while True:
                children = consumers.get(current.node_id, [])
                if len(children) != 1:
                    break
                child = children[0]
                if len(child.inputs) != 1:
                    break
                segment.append(child)
                current = child
            for member in segment:
                in_segment.add(member.node_id)
            segments.append(segment)
        return segments

    def describe(self) -> str:
        """Multi-line plan listing (topological)."""
        lines = []
        for node in self.topological_order():
            parents = ", ".join(p.name for p in node.inputs) or "<source>"
            lines.append(f"{node.node_id:3d}  {node.name}  <- {parents}")
        return "\n".join(lines)
