"""Fig. 5: scale-out — fixed 20 GB sample, varying DoP.

Entity flow: infeasible below DoP 4 (excessive runtimes), capped at
DoP 28 by dictionary-tagger memory, plateaus past DoP 16 because the
20-minute gene-dictionary load is a hard lower bound.  Linguistic
flow: scales across the whole DoP range, plateau past DoP ~12.
"""

from reporting import format_table, write_report

from repro.dataflow.cluster import (
    DEFAULT_COSTS, ENTITY_OPS, LINGUISTIC_OPS, PREPROCESSING_OPS,
    SimulatedCluster,
)

DOPS = [1, 2, 4, 8, 12, 16, 20, 24, 28, 56, 84, 140, 156]
LING = PREPROCESSING_OPS + LINGUISTIC_OPS
ENTITY = PREPROCESSING_OPS + ENTITY_OPS


def test_fig5_scale_out(benchmark):
    cluster = SimulatedCluster()
    ling_reports = benchmark.pedantic(
        lambda: cluster.scale_out(LING, 20.0, DOPS), rounds=1,
        iterations=1)
    entity_reports = cluster.scale_out(ENTITY, 20.0, DOPS)
    rows = []
    for dop, ling, entity in zip(DOPS, ling_reports, entity_reports):
        entity_cell = (f"{entity.seconds:.0f} s" if entity.feasible
                       else entity.reason.split("(")[0][:46])
        rows.append([dop, f"{ling.seconds:.0f} s", entity_cell])
    lines = format_table(["DoP", "linguistic flow", "entity flow"], rows)
    lines.append("")
    lines.append("paper Fig 5: entity flow not executable below DoP 4 "
                 "(excessive runtimes) nor above DoP 28 (dictionary "
                 "taggers need 6-20 GB per worker on 24 GB nodes); "
                 "scale-out satisfactory until DoP 16 (entity, -72 %) "
                 "and DoP 12 (linguistic, -95 %), marginal beyond")
    write_report("fig5_scaleout", "Fig. 5 — scale-out", lines)

    by_dop = dict(zip(DOPS, entity_reports))
    # Who wins / where the cliffs are:
    assert not by_dop[1].feasible and not by_dop[2].feasible
    assert by_dop[4].feasible
    assert not by_dop[56].feasible  # memory cap at 28
    # Decrease bands.
    ling_by_dop = dict(zip(DOPS, ling_reports))
    ling_drop = 1 - ling_by_dop[12].seconds / ling_by_dop[1].seconds
    entity_drop = 1 - by_dop[16].seconds / by_dop[4].seconds
    assert ling_drop > 0.85          # paper: up to 95 %
    assert 0.4 < entity_drop < 0.9   # paper: up to 72 %
    # Startup lower bound: gene dictionary load dominates the plateau.
    assert by_dop[28].seconds > \
        DEFAULT_COSTS["dict_gene_tagger"].startup_seconds


def test_fig5_executor_parallel_speedup(ctx, benchmark):
    """Sanity on the *real* executor: partitioned execution over a
    fork pool preserves results (speedups are bounded by fork and
    pickling costs, as startup costs bound them on the paper's
    cluster)."""
    from repro.core.flows import build_linguistic_flow
    from repro.dataflow.executor import Executor

    documents = ctx.corpus_documents("relevant")[:8]
    plan = build_linguistic_flow(ctx.pipeline, web_input=False)
    sequential, _ = Executor().execute(
        plan, [d.copy_shallow() for d in documents])
    pooled, _ = benchmark.pedantic(
        lambda: Executor("fused-processes", dop=2).execute(
            plan, [d.copy_shallow() for d in documents]),
        rounds=1, iterations=1)
    assert len(pooled["linguistics"]) == len(sequential["linguistics"])
