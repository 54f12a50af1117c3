"""Tests for the core pipeline, flows, and content analysis."""

import pytest

from repro.core.analysis import (
    analyze_corpus, compare_corpora, entity_overlap, jsd_between,
    jsd_table, overlap_fraction,
)
from repro.core.flows import (
    FIG2_METEOR_SCRIPT, build_entity_flow, build_fig2_flow,
    build_linguistic_flow,
)
from repro.dataflow.executor import Executor
from repro.dataflow.meteor import parse_meteor
from repro.dataflow.optimizer import SofaOptimizer
from repro.web.htmlgen import PageRenderer
from tests.core.pipeline_oracle import analyze


@pytest.fixture(scope="module")
def web_documents(context):
    renderer = PageRenderer(seed=31)
    documents = context.corpus_documents("relevant")[:4]
    for index, document in enumerate(documents):
        url = f"http://host{index}.example.org/a.html"
        document.raw = renderer.render(url, "Title", document.text, [])
        document.meta["url"] = url
        document.meta["content_type"] = "text/html"
    return documents


@pytest.fixture(scope="module")
def stats(context):
    return context.corpus_stats()


class TestPipeline:
    def test_components_trained(self, pipeline):
        assert pipeline.classifier.trained
        assert pipeline.pos_tagger.tags
        assert set(pipeline.dictionary_taggers) == {"gene", "drug",
                                                    "disease"}
        assert set(pipeline.ml_taggers) == {"gene", "drug", "disease"}

    def test_analyze_fills_all_layers(self, pipeline, context):
        document = context.corpus_documents("medline")[0]
        analyze(pipeline, document, with_pos=True)
        assert document.sentences
        assert document.sentences[0].tokens
        assert document.sentences[0].tokens[0].pos
        assert document.linguistics is not None
        assert any(m.method == "dictionary" for m in document.entities)

    def test_analyze_method_selection(self, pipeline, context):
        document = context.corpus_documents("medline")[1]
        analyze(pipeline, document, methods=("dictionary",))
        assert all(m.method == "dictionary" for m in document.entities)

    def test_analyze_batch_matches_analyze(self, pipeline, context):
        """Cross-document batch analysis is equivalent per document:
        same entities in the same order, same POS tags, same meta."""
        originals = context.corpus_documents("relevant")[:5]
        singles = [analyze(pipeline, doc.copy_shallow(), with_pos=True)
                   for doc in originals]
        batched = pipeline.analyze_batch(
            [doc.copy_shallow() for doc in originals], with_pos=True)
        for single, batch in zip(singles, batched):
            assert batch.entities == single.entities
            assert batch.meta == single.meta
            for s_sent, b_sent in zip(single.sentences,
                                      batch.sentences):
                assert [t.pos for t in b_sent.tokens] == \
                    [t.pos for t in s_sent.tokens]

    def test_analyze_batch_counts_pos_crashes(self, pipeline):
        from repro.annotations import Document

        limit = pipeline.pos_tagger.crash_token_limit
        text = " ".join(["word"] * (limit + 1)) + "."
        batched = pipeline.analyze_batch([Document("long", text)],
                                         with_pos=True)[0]
        single = analyze(pipeline, Document("long", text),
                         with_pos=True)
        assert batched.meta.get("pos_crashes") == \
            single.meta.get("pos_crashes")
        assert batched.meta.get("pos_crashes", 0) >= 1


class TestFlows:
    def test_fig2_operator_count(self, pipeline):
        # The paper's 38 elementary operators plus the relation-records
        # sink feeding the entity store.
        assert len(build_fig2_flow(pipeline)) == 39

    def test_fig2_executes_end_to_end(self, pipeline, web_documents):
        plan = build_fig2_flow(pipeline)
        outputs, _report = Executor().execute(
            plan, [d.copy_shallow() for d in web_documents])
        assert set(outputs) == {"sentences", "linguistics", "entities",
                                "entity_frequencies", "edges",
                                "relations"}
        assert outputs["sentences"]
        assert outputs["entities"]

    def test_fig2_optimizer_runs_and_preserves_sinks(self, pipeline,
                                                     web_documents):
        # All navigation: boilerplate removal leaves no net text, so
        # drop_empty_documents must drop it after remove_boilerplate
        # (its raw text is not empty, and its outlinks would show).
        navigation = web_documents[0].copy_shallow()
        navigation.doc_id = "navigation"
        navigation.meta["url"] = "http://nav.example.org/"
        navigation.raw = ("<html><body><ul>" + "".join(
            f'<li><a href="/section{i}.html">Section {i}</a></li>'
            for i in range(8)) + "</ul></body></html>")
        documents = [*web_documents, navigation]
        plan = build_fig2_flow(pipeline)
        baseline, _ = Executor().execute(
            plan, [d.copy_shallow() for d in documents])
        SofaOptimizer().optimize(plan)
        optimized, _ = Executor().execute(
            plan, [d.copy_shallow() for d in documents])
        assert optimized == baseline
        assert baseline["entities"]

    def test_linguistic_flow(self, pipeline, web_documents):
        plan = build_linguistic_flow(pipeline)
        outputs, _ = Executor().execute(
            plan, [d.copy_shallow() for d in web_documents])
        categories = {r["category"] for r in outputs["linguistics"]}
        assert categories <= {"negation", "pronoun", "parenthesis"}
        assert categories

    def test_entity_flow_methods(self, pipeline, web_documents):
        plan = build_entity_flow(pipeline, methods=("dictionary",))
        outputs, _ = Executor().execute(
            plan, [d.copy_shallow() for d in web_documents])
        assert all(r["method"] == "dictionary"
                   for r in outputs["entities"])

    def test_fig2_meteor_script_parses_and_runs(self, pipeline,
                                                web_documents):
        plan = parse_meteor(FIG2_METEOR_SCRIPT, context={
            "pos_tagger": pipeline.pos_tagger,
            "gene_dict": pipeline.dictionary_taggers["gene"],
            "gene_ml": pipeline.ml_taggers["gene"],
        })
        outputs, _ = Executor().execute(
            plan, [d.copy_shallow() for d in web_documents])
        assert set(outputs) == {"linguistics", "entities"}


class TestContentAnalysis:
    def test_four_corpora_analyzed(self, stats):
        assert set(stats) == {"relevant", "irrelevant", "medline", "pmc"}
        for corpus in stats.values():
            assert corpus.n_docs > 0
            assert corpus.n_sentences > 0

    def test_doc_length_ordering(self, stats):
        assert stats["relevant"].mean_doc_chars > \
            stats["irrelevant"].mean_doc_chars
        assert stats["irrelevant"].mean_doc_chars > \
            stats["medline"].mean_doc_chars

    def test_sentence_length_ordering(self, stats):
        assert stats["pmc"].mean_sentence_tokens > \
            stats["medline"].mean_sentence_tokens

    def test_ml_finds_more_distinct_names_than_dict(self, stats):
        """Table 4's headline contrast (aggregate at unit-test scale;
        the per-type claim is asserted at benchmark scale)."""
        relevant = stats["relevant"]
        ml_total = sum(relevant.distinct_names(et, "ml")
                       for et in ("disease", "drug", "gene"))
        dict_total = sum(relevant.distinct_names(et, "dictionary")
                         for et in ("disease", "drug", "gene"))
        assert ml_total >= 0.9 * dict_total
        assert relevant.distinct_names("gene", "ml") >= \
            relevant.distinct_names("gene", "dictionary")

    def test_relevant_densities_dwarf_irrelevant(self, stats):
        """Fig. 7 basis: dictionary incidence — relevant >> irrelevant.
        (ML incidence on irrelevant text is inflated by the TLA
        false-positive pathology, exactly as in the paper.)"""
        for entity_type in ("disease", "drug", "gene"):
            assert stats["relevant"].per_1000_sentences(
                entity_type, "dictionary") > \
                3 * stats["irrelevant"].per_1000_sentences(
                    entity_type, "dictionary")

    def test_mww_significance(self, stats):
        p_values = compare_corpora(stats["relevant"], stats["medline"])
        assert p_values["doc_length"] < 0.01

    def test_jsd_ordering(self, stats):
        """Relevant is no farther from Medline than from irrelevant
        (the Section 4.3.2 ordering; exact magnitudes need the larger
        benchmark corpora)."""
        rel, irrel = stats["relevant"], stats["irrelevant"]
        medl = stats["medline"]
        assert jsd_between(rel, irrel, "drug") >= \
            jsd_between(rel, medl, "drug") - 0.15
        table = jsd_table(list(stats.values()))
        assert all(0.0 <= v <= 1.0 + 1e-9 for v in table.values())

    def test_entity_overlap_regions_sum_to_100(self, stats):
        regions = entity_overlap(list(stats.values()), "drug")
        assert sum(regions.values()) == pytest.approx(100.0)

    def test_overlap_fraction_bounds(self, stats):
        fraction = overlap_fraction(stats["relevant"], stats["irrelevant"],
                                    "gene")
        assert 0.0 <= fraction <= 1.0

    def test_web_only_names_exist(self, stats):
        """The paper's punchline: the web holds entity names absent
        from the scientific literature."""
        relevant = set(stats["relevant"].name_frequencies[("drug", "ml")])
        literature = (set(stats["medline"].name_frequencies[("drug", "ml")])
                      | set(stats["pmc"].name_frequencies[("drug", "ml")]))
        assert relevant - literature

    def test_analyze_corpus_accumulates(self, pipeline, context):
        documents = context.corpus_documents("medline")[:3]
        corpus = analyze_corpus("mini", documents, pipeline)
        assert corpus.n_docs == 3
        assert len(corpus.doc_lengths) == 3


class TestExperimentContext:
    def test_default_context_memoized(self):
        from repro.core.experiment import default_context

        a = default_context(corpus_docs=8, n_training_docs=40,
                            crf_iterations=40, n_hosts=40,
                            crawl_pages=300)
        b = default_context(corpus_docs=8, n_training_docs=40,
                            crf_iterations=40, n_hosts=40,
                            crawl_pages=300)
        assert a is b

    def test_different_configs_different_contexts(self):
        from repro.core.experiment import default_context

        a = default_context(corpus_docs=8, n_training_docs=40,
                            crf_iterations=40, n_hosts=40,
                            crawl_pages=300)
        b = default_context(corpus_docs=9, n_training_docs=40,
                            crf_iterations=40, n_hosts=40,
                            crawl_pages=300)
        assert a is not b

    def test_corpus_documents_returns_fresh_copies(self, context):
        first = context.corpus_documents("medline")
        first[0].entities.append(None)
        second = context.corpus_documents("medline")
        assert second[0].entities == []

    def test_crawl_memoized(self, context):
        assert context.crawl() is context.crawl()
