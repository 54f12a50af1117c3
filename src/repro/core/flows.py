"""The consolidated analysis data flows (Fig. 2 of the paper).

``build_fig2_flow`` constructs the complete flow — the paper's 38
elementary operators plus a relation-records sink (39 nodes) — with a
shared web-preprocessing prefix fanning out into a linguistic branch
and an entity branch, each feeding record sinks.  The ``relations``
sink carries provenance-rich co-occurrence relation records, the
flow-side feed of the entity store (docs/entity_store.md).
``build_linguistic_flow`` / ``build_entity_flow`` are the two separate
flows the scalability experiments use (Section 4.2).

A Meteor-script rendition of the core of the flow ships as
:data:`FIG2_METEOR_SCRIPT` to exercise the declarative front-end.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.pipeline import TextAnalyticsPipeline
from repro.dataflow.executor import (
    EXECUTION_MODES, ExecutionReport, Executor,
)
from repro.dataflow.packages import make_operator
from repro.dataflow.plan import LogicalPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

FIG2_METEOR_SCRIPT = """
-- Consolidated biomedical web analysis (core of Fig. 2)
$docs      = read();
$short     = filter_long_documents($docs, max_chars=500000);
$checked   = detect_markup_errors($short);
$repaired  = repair_markup($checked);
$nettext   = remove_boilerplate($repaired);
$nonempty  = drop_empty_documents($nettext);
$sentences = annotate_sentences($nonempty);
$tokens    = annotate_tokens($sentences);
$negation  = annotate_negation($tokens);
$pronouns  = annotate_pronouns($negation);
$parens    = annotate_parentheses($pronouns);
$ling      = linguistics_to_records($parens);
write($ling, 'linguistics');
$pos       = annotate_pos($tokens, tagger=@pos_tagger);
$genes_d   = annotate_genes_dict($pos, tagger=@gene_dict);
$genes     = annotate_genes_ml($genes_d, tagger=@gene_ml);
$merged    = merge_annotations($genes);
$records   = entities_to_records($merged);
write($records, 'entities');
"""


def _web_prefix(plan: LogicalPlan, pipeline: TextAnalyticsPipeline):
    """Shared preprocessing: web treatment + sentences + tokens."""
    return plan.chain([
        make_operator("mime_filter"),
        make_operator("filter_long_documents", max_chars=500_000),
        make_operator("detect_markup_errors"),
        make_operator("repair_markup"),
        make_operator("extract_title"),
        make_operator("extract_links"),
        make_operator("annotate_host"),
        make_operator("remove_boilerplate", detector=pipeline.boilerplate),
        make_operator("strip_control_chars"),
        make_operator("normalize_whitespace"),
        make_operator("truncate_documents", max_chars=100_000),
        make_operator("drop_empty_documents"),
        make_operator("dedup_content"),
        make_operator("annotate_sentences"),
        make_operator("annotate_tokens"),
    ])


def build_fig2_flow(pipeline: TextAnalyticsPipeline) -> LogicalPlan:
    """The complete consolidated flow: the paper's 38 elementary
    operators plus the relation-records sink (39 nodes)."""
    plan = LogicalPlan()
    prefix = _web_prefix(plan, pipeline)                           # 12 ops
    # Linguistic branch (6 ops).
    linguistic = plan.chain([
        make_operator("annotate_negation"),
        make_operator("annotate_pronouns"),
        make_operator("annotate_parentheses"),
    ], after=prefix)
    sentence_records = plan.chain([
        make_operator("sentences_to_records"),
        make_operator("distinct", key=lambda r: (r["doc_id"],
                                                 r["sentence_id"])),
    ], after=linguistic)
    linguistic_records = plan.chain([
        make_operator("linguistics_to_records"),
        make_operator("distinct", key=lambda r: (r["doc_id"], r["start"],
                                                 r["end"], r["category"])),
    ], after=linguistic)
    plan.mark_sink("sentences", sentence_records)
    plan.mark_sink("linguistics", linguistic_records)
    # Entity branch (13 ops).
    pos = plan.add(make_operator("annotate_pos",
                                 tagger=pipeline.pos_tagger), prefix)
    entity = pos
    for entity_type in ("gene", "drug", "disease"):
        entity = plan.chain([
            make_operator(f"annotate_{entity_type}s_dict",
                          tagger=pipeline.dictionary_taggers[entity_type]),
            make_operator(f"annotate_{entity_type}s_ml",
                          tagger=pipeline.ml_taggers[entity_type]),
        ], after=entity)
    entity = plan.chain([
        make_operator("merge_annotations"),
        make_operator("conflict_resolution"),
        make_operator("validate_offsets"),
        make_operator("filter_tla_gene_annotations"),
    ], after=entity)
    entity_records = plan.add(make_operator("entities_to_records"),
                              entity)
    plan.mark_sink("entities", entity_records)
    frequencies = plan.chain([
        make_operator("count_entities_by_name"),
        make_operator("sort", key=lambda r: -r["frequency"]),
    ], after=entity_records)
    plan.mark_sink("entity_frequencies", frequencies)
    # Relation branch (1 op): provenance-rich co-occurrence relation
    # records off the final merged annotations — the entity store's
    # flow-side feed (docs/entity_store.md).
    relations = plan.add(make_operator("extract_relations"), entity)
    plan.mark_sink("relations", relations)
    # Link-graph branch (2 ops).
    edges = plan.chain([
        make_operator("outlinks_to_records"),
        make_operator("distinct", key=lambda r: (r["source"], r["target"])),
    ], after=prefix)
    plan.mark_sink("edges", edges)
    return plan


def build_linguistic_flow(pipeline: TextAnalyticsPipeline,
                          web_input: bool = True) -> LogicalPlan:
    """Linguistic analysis flow (Section 4.2 scalability subject)."""
    plan = LogicalPlan()
    head = (_simple_prefix(plan, pipeline, web_input))
    tail = plan.chain([
        make_operator("annotate_negation"),
        make_operator("annotate_pronouns"),
        make_operator("annotate_parentheses"),
        make_operator("linguistics_to_records"),
    ], after=head)
    plan.mark_sink("linguistics", tail)
    return plan


def build_entity_flow(pipeline: TextAnalyticsPipeline,
                      methods: tuple[str, ...] = ("dictionary", "ml"),
                      web_input: bool = True,
                      with_tla_filter: bool = True) -> LogicalPlan:
    """Entity annotation flow (POS + six taggers)."""
    plan = LogicalPlan()
    head = _simple_prefix(plan, pipeline, web_input)
    head = plan.add(make_operator("annotate_pos",
                                  tagger=pipeline.pos_tagger), head)
    for entity_type in ("gene", "drug", "disease"):
        if "dictionary" in methods:
            head = plan.add(make_operator(
                f"annotate_{entity_type}s_dict",
                tagger=pipeline.dictionary_taggers[entity_type]), head)
        if "ml" in methods:
            head = plan.add(make_operator(
                f"annotate_{entity_type}s_ml",
                tagger=pipeline.ml_taggers[entity_type]), head)
    tail_ops = [make_operator("merge_annotations")]
    if with_tla_filter:
        tail_ops.append(make_operator("filter_tla_gene_annotations"))
    tail_ops.append(make_operator("entities_to_records"))
    tail = plan.chain(tail_ops, after=head)
    plan.mark_sink("entities", tail)
    return plan


def run_flow(plan: LogicalPlan, records: Sequence[Any],
             mode: str = "fused", dop: int = 1,
             metrics: MetricsRegistry | None = None,
             tracer: Tracer | None = None,
             ) -> tuple[dict[str, list[Any]], ExecutionReport]:
    """Execute any flow plan with the chosen physical mode (one of
    :data:`EXECUTION_MODES`; all produce byte-identical sink outputs).

    Physical fusion (:func:`~repro.dataflow.optimizer.fuse_physical_stages`:
    one page scan for the web-treatment run, one pass for the annotate
    run) is applied to a structural copy, leaving the caller's plan
    untouched; outputs are byte-identical to executing the plan as
    given, which is how the equivalence tests get the unfused
    reference.  When a ``metrics`` registry is attached, per-stage
    stats are mirrored onto it.
    """
    from repro.dataflow.optimizer import fuse_physical_stages

    plan = plan.copy_structure()
    fuse_physical_stages(plan)
    return Executor(mode, dop=dop, metrics=metrics,
                    tracer=tracer).execute(plan, records)


class FlowSession:
    """Reusable flow-execution session: plan and executor built once,
    many record batches run through them.

    The serve layer's discipline applied to the dataflow path: per-run
    construction (plan building, executor setup, operator state) is
    paid once, so repeated runs measure execution, not setup — and a
    long-lived process (``repro serve``, a notebook, a driver loop)
    reuses warm operators, caches, and frozen kernels across calls.
    """

    def __init__(self, pipeline: TextAnalyticsPipeline,
                 mode: str = "fused", dop: int = 1,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 build=build_fig2_flow) -> None:
        from repro.dataflow.optimizer import fuse_physical_stages

        self.pipeline = pipeline
        self.plan = build(pipeline)
        self.fused_stages = len(fuse_physical_stages(self.plan))
        self.executor = Executor(mode, dop=dop, metrics=metrics,
                                 tracer=tracer)
        self.runs = 0
        self.last_report: ExecutionReport | None = None

    def run(self, records: Sequence[Any],
            ) -> tuple[dict[str, list[Any]], ExecutionReport]:
        outputs, report = self.executor.execute(self.plan, records)
        self.runs += 1
        self.last_report = report
        return outputs, report


def _simple_prefix(plan: LogicalPlan, pipeline: TextAnalyticsPipeline,
                   web_input: bool):
    """Preprocessing for the two separate scalability flows: filter
    long texts, repair/remove markup, sentence and token boundaries."""
    operators = [make_operator("filter_long_documents", max_chars=500_000)]
    if web_input:
        operators.extend([
            make_operator("repair_markup"),
            make_operator("remove_boilerplate",
                          detector=pipeline.boilerplate),
        ])
    operators.extend([
        make_operator("annotate_sentences"),
        make_operator("annotate_tokens"),
    ])
    return plan.chain(operators)
