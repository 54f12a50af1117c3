"""UDF-heavy parallel dataflow engine (Stratosphere analog).

The paper specifies its whole web-text analysis as declarative data
flows in the Stratosphere system: Meteor scripts over Sopremo operator
packages, logically optimized (SOFA) and executed in parallel.  This
package re-creates that stack:

* :mod:`repro.dataflow.operators` — the operator model with the cost /
  selectivity / read-write-set annotations SOFA-style optimization
  needs;
* :mod:`repro.dataflow.packages` — the four operator packages (BASE,
  IE, WA, DC) with 60+ registered operators;
* :mod:`repro.dataflow.plan` — logical plans (operator DAGs);
* :mod:`repro.dataflow.optimizer` — selectivity/cost-based reordering;
* :mod:`repro.dataflow.fusion` — plan → execution stages (chain
  fusion);
* :mod:`repro.dataflow.executor` — the one local executor (three
  physical modes) with per-operator accounting;
* :mod:`repro.dataflow.cluster` — the simulated cluster used for the
  scale-up/scale-out and war-story experiments (Figs. 4-5);
* :mod:`repro.dataflow.meteor` — a Meteor-like script front-end.
"""

from repro.dataflow.operators import (
    Operator, MapOperator, FilterOperator, FlatMapOperator, UdfOperator,
)
from repro.dataflow.record import Record, parse_path
from repro.dataflow.plan import LogicalPlan, PlanNode
from repro.dataflow.optimizer import SofaOptimizer
from repro.dataflow.fusion import FusedPlan, FusedStage, fuse_plan
from repro.dataflow.executor import (
    EXECUTION_MODES, ExecutionReport, Executor,
)
from repro.dataflow.cluster import (
    ClusterSpec, NodeSpec, SimulatedCluster, OperatorCostModel, FlowRunReport,
)
from repro.dataflow.meteor import parse_meteor, MeteorError
from repro.dataflow.packages import OPERATOR_REGISTRY, make_operator

__all__ = [
    "Record",
    "parse_path",
    "Operator",
    "MapOperator",
    "FilterOperator",
    "FlatMapOperator",
    "UdfOperator",
    "LogicalPlan",
    "PlanNode",
    "SofaOptimizer",
    "EXECUTION_MODES",
    "Executor",
    "ExecutionReport",
    "FusedPlan",
    "FusedStage",
    "fuse_plan",
    "ClusterSpec",
    "NodeSpec",
    "SimulatedCluster",
    "OperatorCostModel",
    "FlowRunReport",
    "parse_meteor",
    "MeteorError",
    "OPERATOR_REGISTRY",
    "make_operator",
]
