"""End-to-end integration: crawl -> dataflow -> content analysis."""

import pytest

from repro.core.analysis import CorpusStats, accumulate_document
from repro.core.flows import build_fig2_flow
from repro.dataflow.executor import Executor
from repro.dataflow.optimizer import SofaOptimizer
from tests.core.pipeline_oracle import analyze


@pytest.fixture(scope="module")
def crawl(context):
    return context.crawl()


@pytest.fixture(scope="module")
def crawl_documents(crawl):
    """Relevant crawl documents re-wrapped with raw HTML for the flow."""
    documents = []
    for document in crawl.relevant[:12]:
        copy = document.copy_shallow()
        copy.meta.setdefault("content_type", "text/html")
        documents.append(copy)
    return documents


@pytest.fixture(scope="module")
def flow_outputs(context, crawl_documents):
    plan = build_fig2_flow(context.pipeline)
    SofaOptimizer().optimize(plan)
    outputs, report = Executor().execute(plan, crawl_documents)
    return outputs, report


class TestCrawlToFlow:
    def test_flow_processes_crawled_pages(self, flow_outputs):
        outputs, _report = flow_outputs
        assert outputs["sentences"]
        assert outputs["entities"]

    def test_entity_records_reference_crawled_docs(self, flow_outputs,
                                                   crawl_documents):
        outputs, _report = flow_outputs
        doc_ids = {d.doc_id for d in crawl_documents}
        assert {r["doc_id"] for r in outputs["entities"]} <= doc_ids

    def test_edges_extracted_from_crawled_html(self, flow_outputs):
        outputs, _report = flow_outputs
        for record in outputs["edges"][:10]:
            assert record["source"].startswith("http")
            assert record["target"].startswith("http")

    def test_entity_extraction_dominates_runtime(self, flow_outputs):
        """Section 4.2: entity extraction is the top cost (70 % on the
        paper's cluster); here the ML operators — the three CRF
        taggers and POS — keep a large share.  It fell when CRF
        emissions became a per-word-type table lookup (measured
        0.35-0.44 of the flow), and each CRF tagger is now ~5-8 %,
        level with the dictionary taggers, so the sum runs over all
        operators rather than a top-6 cut that noise would reshuffle."""
        _outputs, report = flow_outputs
        ml_cost = sum(s.seconds for s in report.operator_stats
                      if "_ml" in s.name or s.name == "annotate_pos")
        total = sum(s.seconds for s in report.operator_stats)
        assert ml_cost / total > 0.3

    def test_all_execution_modes_equivalent(self, context, crawl_documents):
        """Every physical mode must yield byte-identical sink outputs
        on the real Fig. 2 flow (operators mutate documents in place,
        so each mode gets fresh copies and a fresh plan)."""
        from repro.core.flows import EXECUTION_MODES, run_flow

        reference = None
        for mode in EXECUTION_MODES:
            plan = build_fig2_flow(context.pipeline)
            documents = [d.copy_shallow() for d in crawl_documents]
            outputs, report = run_flow(plan, documents, mode=mode, dop=2)
            if reference is None:
                reference = outputs
            else:
                assert outputs == reference, mode
            assert report.to_json()


class TestCrawlToAnalysis:
    def test_crawled_relevant_corpus_statistics(self, context, crawl):
        stats = CorpusStats(name="crawled")
        for document in crawl.relevant[:10]:
            copy = document.copy_shallow()
            analyze(context.pipeline, copy)
            accumulate_document(stats, copy)
        assert stats.n_docs == 10
        assert stats.per_1000_sentences("disease") > 0

    def test_crawled_relevant_denser_than_irrelevant(self, context, crawl):
        pipeline = context.pipeline

        def density(documents):
            mentions = sentences = 0
            for document in documents[:8]:
                copy = document.copy_shallow()
                analyze(pipeline, copy, methods=("dictionary",))
                mentions += len(copy.entities)
                sentences += len(copy.sentences)
            return mentions / max(1, sentences)
        assert density(crawl.relevant) > density(crawl.irrelevant)


class TestFailureInjection:
    def test_flow_survives_binary_garbage(self, context):
        from repro.annotations import Document

        garbage = [
            Document("bin", "", raw="%PDF-1.4" + "\x01\x02" * 500,
                     meta={"url": "http://x/b.pdf",
                           "content_type": "text/html"}),
            Document("empty", "", raw="",
                     meta={"url": "http://x/e.html",
                           "content_type": "text/html"}),
            Document("broken", "", raw="<div <p <a href=" * 50,
                     meta={"url": "http://x/broken.html",
                           "content_type": "text/html"}),
        ]
        plan = build_fig2_flow(context.pipeline)
        outputs, _ = Executor().execute(plan, garbage)
        # Nothing useful survives, but nothing crashes either.
        assert outputs["entities"] == []

    def test_flow_handles_pathological_runon(self, context):
        from repro.annotations import Document
        from repro.corpora.profiles import RELEVANT
        from repro.corpora.textgen import DocumentGenerator
        from repro.web.htmlgen import PageRenderer

        generator = DocumentGenerator(context.vocabulary, RELEVANT,
                                      seed=123, pathological_fraction=1.0)
        text = generator.document(0).text
        renderer = PageRenderer(seed=3, defect_rate=0.0)
        doc = Document("runon", "", raw=renderer.render(
            "http://x/r.html", "t", text, []),
            meta={"url": "http://x/r.html", "content_type": "text/html"})
        plan = build_fig2_flow(context.pipeline)
        outputs, _ = Executor().execute(plan, [doc])
        # The POS tagger records crashes instead of killing the flow.
        assert isinstance(outputs["sentences"], list)
