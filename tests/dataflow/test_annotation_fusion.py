"""One-pass annotation-stage substitution (fuse_annotation_stage).

Two properties carry the weight: the optimizer must substitute the
fused stage only where the engine's contract holds (structural tests),
and the substituted plan must produce byte-identical sink outputs in
every physical execution mode (equivalence tests).
"""

import pytest

from repro.annotations import Document
from repro.core.flows import (
    EXECUTION_MODES, FlowSession, build_entity_flow, build_fig2_flow,
    run_flow,
)
from repro.dataflow.executor import Executor
from repro.dataflow.optimizer import fuse_annotation_stage
from repro.dataflow.packages import make_operator
from repro.dataflow.plan import LogicalPlan


@pytest.fixture(scope="module")
def texts(relevant_generator):
    return [relevant_generator.document(i).text for i in range(5)]


def _documents(texts):
    return [Document(f"doc-{i}", text) for i, text in enumerate(texts)]


def _names(plan):
    return [node.operator.name for node in plan.nodes]


class TestSubstitution:
    def test_entity_flow_fuses_to_one_stage(self, pipeline):
        plan = build_entity_flow(pipeline, web_input=False)
        n_before = len(plan.nodes)
        fused = fuse_annotation_stage(plan)
        assert len(fused) == 1
        assert len(plan.nodes) == n_before - 8  # 9 ops -> 1
        names = _names(plan)
        assert "annotate_entities_fused" in names
        for elementary in ("annotate_sentences", "annotate_tokens",
                           "annotate_pos", "annotate_genes_dict",
                           "annotate_diseases_ml"):
            assert elementary not in names
        plan.topological_order()  # surgery left a valid DAG

    def test_harvested_annotator_configuration(self, pipeline):
        plan = build_entity_flow(pipeline, web_input=False)
        (node,) = fuse_annotation_stage(plan)
        annotator = node.operator.fused_annotator
        assert annotator.split == "always"
        assert annotator.retokenize is True
        assert annotator.pos_tagger is pipeline.pos_tagger
        expected = []
        for entity_type in ("gene", "drug", "disease"):
            expected.append(pipeline.dictionary_taggers[entity_type])
            expected.append(pipeline.ml_taggers[entity_type])
        assert annotator.steps == expected
        assert annotator.merged.entity_types == ("disease", "drug",
                                                 "gene")

    def test_cost_annotations_aggregate(self, pipeline):
        plan = build_entity_flow(pipeline, web_input=False)
        replaced = [node.operator for node in plan.nodes
                    if node.operator.name in
                    ("annotate_sentences", "annotate_tokens",
                     "annotate_pos")
                    or node.operator.name.startswith("annotate_")
                    and node.operator.name.endswith(("_dict", "_ml"))]
        assert len(replaced) == 9
        (node,) = fuse_annotation_stage(plan)
        fused = node.operator
        assert fused.cost_per_record == pytest.approx(
            sum(op.cost_per_record for op in replaced))
        assert fused.memory_mb == max(op.memory_mb for op in replaced)
        assert fused.startup_seconds == pytest.approx(
            sum(op.startup_seconds for op in replaced))
        assert frozenset({"sentences", "tokens", "pos"}) <= fused.writes

    def test_fig2_substitution_keeps_sinks_and_prefix(self, pipeline):
        plan = build_fig2_flow(pipeline)
        fused = fuse_annotation_stage(plan)
        # Fig. 2's sentences/tokens feed the linguistic branch at a
        # fan-out, so only the linear pos -> taggers run fuses.
        assert len(fused) == 1
        names = _names(plan)
        assert "annotate_sentences" in names
        assert "annotate_tokens" in names
        assert "annotate_pos" not in names
        assert set(plan.sinks) == {"sentences", "linguistics", "entities",
                                   "entity_frequencies", "edges",
                                   "relations"}
        plan.topological_order()
        annotator = fused[0].operator.fused_annotator
        assert annotator.split == "never"
        assert annotator.retokenize is False

    def test_short_runs_left_alone(self):
        plan = LogicalPlan()
        tail = plan.chain([make_operator("annotate_sentences"),
                           make_operator("annotate_tokens")])
        plan.mark_sink("out", tail)
        assert fuse_annotation_stage(plan) == []
        assert "annotate_entities_fused" not in _names(plan)

    def test_split_without_tokenize_not_fused(self, pipeline):
        """sentences -> pos without annotate_tokens would crash the
        elementary chain on untokenized sentences; the fused engine
        must not paper over it."""
        plan = LogicalPlan()
        tail = plan.chain([
            make_operator("annotate_sentences"),
            make_operator("annotate_pos", tagger=pipeline.pos_tagger),
        ])
        plan.mark_sink("out", tail)
        assert fuse_annotation_stage(plan) == []

    def test_interior_sink_splits_run(self, pipeline, texts):
        """A sink in mid-run closes the run after itself: the prefix
        up to the sink and the tagger tail fuse separately, and the
        sink still receives its records."""
        plan = LogicalPlan()
        pos = plan.chain([
            make_operator("annotate_sentences"),
            make_operator("annotate_tokens"),
            make_operator("annotate_pos", tagger=pipeline.pos_tagger),
        ])
        plan.mark_sink("tagged", pos)
        tail = plan.chain([
            make_operator("annotate_genes_dict",
                          tagger=pipeline.dictionary_taggers["gene"]),
            make_operator("annotate_genes_ml",
                          tagger=pipeline.ml_taggers["gene"]),
            make_operator("entities_to_records"),
        ], after=pos)
        plan.mark_sink("entities", tail)
        fused = fuse_annotation_stage(plan)
        assert len(fused) == 2
        outputs, _ = Executor("sequential").execute(plan,
                                                    _documents(texts))
        assert set(outputs) == {"tagged", "entities"}
        assert outputs["entities"]

    def test_fused_stage_not_refused(self, pipeline):
        plan = build_entity_flow(pipeline, web_input=False)
        fuse_annotation_stage(plan)
        assert fuse_annotation_stage(plan) == []


class TestFlowEquivalence:
    def _run(self, pipeline, texts, mode, fuse, dop=1):
        """``run_flow`` fuses; executing the plan as built is the
        elementary reference chain."""
        plan = build_entity_flow(pipeline, web_input=False)
        if fuse:
            outputs, _ = run_flow(plan, _documents(texts), mode=mode,
                                  dop=dop)
        else:
            outputs, _ = Executor(mode, dop=dop).execute(
                plan, _documents(texts))
        return outputs

    def test_all_modes_match_unfused_reference(self, pipeline, texts):
        reference = self._run(pipeline, texts, "sequential", fuse=False)
        assert reference["entities"]
        for mode in EXECUTION_MODES:
            fused = self._run(pipeline, texts, mode, fuse=True, dop=2)
            assert fused == reference, mode

    def test_fig2_fused_matches_reference(self, pipeline, texts):
        documents = _documents(texts)
        for document in documents:
            document.meta["content_type"] = "text/html"
            document.raw = f"<html><body>{document.text}</body></html>"
        reference, _ = Executor("sequential").execute(
            build_fig2_flow(pipeline), [d.copy_shallow() for d in documents])
        fused, _ = run_flow(build_fig2_flow(pipeline),
                            [d.copy_shallow() for d in documents],
                            mode="sequential")
        assert fused == reference
        assert reference["entities"]

    def test_run_flow_leaves_caller_plan_untouched(self, pipeline,
                                                   texts):
        plan = build_entity_flow(pipeline, web_input=False)
        names_before = _names(plan)
        run_flow(plan, _documents(texts), mode="sequential")
        assert _names(plan) == names_before

    def test_flow_session_fuses_in_place(self, pipeline, texts):
        reference = self._run(pipeline, texts, "sequential", fuse=False)
        session = FlowSession(pipeline, mode="sequential",
                              build=lambda p: build_entity_flow(
                                  p, web_input=False))
        assert session.fused_stages == 1
        assert "annotate_entities_fused" in _names(session.plan)
        outputs, _ = session.run(_documents(texts))
        assert outputs == reference


class TestCategoryAnnotators:
    TEXT = ("He did not test it (the BRCA1 assay); she thought "
            "they would neither confirm nor deny it (twice).")

    def _apply(self, names, document):
        for name in names:
            document = make_operator(name).fn(document)
        return document

    def test_three_category_ops_match_full_analyzer(self):
        from repro.nlp.linguistics import LinguisticAnalyzer

        chained = self._apply(["annotate_negation", "annotate_pronouns",
                               "annotate_parentheses"],
                              Document("d", self.TEXT))
        reference = Document("d", self.TEXT)
        LinguisticAnalyzer().analyze(reference)
        # Equality includes mention order.
        assert chained.linguistics == reference.linguistics
        assert chained.linguistics

    def test_order_of_category_ops_is_irrelevant(self):
        orders = [
            ["annotate_negation", "annotate_pronouns",
             "annotate_parentheses"],
            ["annotate_parentheses", "annotate_negation",
             "annotate_pronouns"],
            ["annotate_pronouns", "annotate_parentheses",
             "annotate_negation"],
        ]
        results = [self._apply(order, Document("d", self.TEXT)).linguistics
                   for order in orders]
        assert results[0] == results[1] == results[2]

    def test_subset_yields_only_those_categories(self):
        document = self._apply(["annotate_negation"],
                               Document("d", self.TEXT))
        assert document.linguistics
        assert {m.category for m in document.linguistics} == {"negation"}

    def test_chain_shares_one_regex_pass(self):
        from repro.nlp.linguistics import analyze_text

        analyze_text.cache_clear()
        text = self.TEXT + " unique-to-the-sharing-test."
        self._apply(["annotate_negation", "annotate_pronouns",
                     "annotate_parentheses"], Document("d", text))
        info = analyze_text.cache_info()
        assert info.misses == 1
        assert info.hits == 2

    def test_rerun_of_same_category_replaces_not_duplicates(self):
        document = self._apply(["annotate_negation", "annotate_negation"],
                               Document("d", self.TEXT))
        once = self._apply(["annotate_negation"],
                           Document("d", self.TEXT))
        assert document.linguistics == once.linguistics
