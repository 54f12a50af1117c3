"""Store equivalence across execution topologies.

The store's contract: its persisted bytes and canonical digest are a
function of *what was crawled and extracted*, never of how the work
was scheduled.  Verified here across worker counts, shard counts,
kill+resume, flow execution modes, the document-vs-record ingestion
paths, the streaming one-pass ingest against the per-document
reference loop, and the serve ``query`` op against the library engine.
"""

from __future__ import annotations

import json

import pytest

from repro.annotations import Document
from repro.crawler.checkpoint import ResumableCrawl
from repro.crawler.crawl import CrawlConfig, FocusedCrawler
from repro.crawler.shard import ShardCrawler, ShardedCrawl
from repro.ner.onepass import CHUNK_CHARS, volume_chunks
from repro.ner.relations import RelationExtractor
from repro.serve.loadgen import ServeClient
from repro.serve.server import ExtractionServer, ServeConfig
from repro.serve.session import ExtractionSession
from repro.store import (
    EntityStore, QueryEngine, ingest_crawl_result, ingest_documents,
    ingest_flow_outputs,
)
from repro.web.server import SimulatedWeb
from tests.core.pipeline_oracle import analyze

MAX_PAGES = 90
WEB_SEED = 11


class Killed(RuntimeError):
    """Stands in for SIGKILL: aborts the crawl mid-run."""


def _make_crawler(context, webgraph, workers=1):
    web = SimulatedWeb(webgraph, seed=WEB_SEED)
    return FocusedCrawler(web, context.pipeline.classifier,
                          context.build_filter_chain(),
                          CrawlConfig(max_pages=MAX_PAGES,
                                      batch_size=20,
                                      parallel_workers=workers))


def _ingest(context, result):
    store = EntityStore(vocabulary=context.vocabulary)
    ingest_crawl_result(store, result, context.pipeline)
    return store


class TestCrawlTopologyInvariance:
    def test_worker_count_is_invisible_in_the_store(self, context,
                                                    webgraph):
        seeds = context.seed_batch("second").urls
        digests = {}
        for workers in (1, 2, 4):
            result = _make_crawler(context, webgraph, workers).crawl(
                seeds)
            store = _ingest(context, result)
            assert store.snapshot().n_mentions > 0
            digests[workers] = store.digest()
        assert len(set(digests.values())) == 1

    def test_shard_count_is_invisible_in_the_store(self, context,
                                                   webgraph):
        def factory(n_shards):
            def build(shard_id: int) -> ShardCrawler:
                web = SimulatedWeb(webgraph, seed=WEB_SEED)
                return ShardCrawler(
                    shard_id, n_shards, web,
                    context.pipeline.classifier,
                    context.build_filter_chain(),
                    CrawlConfig(max_pages=MAX_PAGES, batch_size=25))
            return build

        seeds = list(context.seed_batch("second").urls)
        digests = []
        for n_shards in (1, 3):
            driver = ShardedCrawl(factory(n_shards), n_shards,
                                  MAX_PAGES, host_quota=2)
            store = _ingest(context, driver.run(list(seeds)))
            assert store.snapshot().n_mentions > 0
            digests.append(store.digest())
        assert digests[0] == digests[1]

    def test_kill_resume_store_matches_uninterrupted(
            self, context, webgraph, tmp_path):
        seeds = context.seed_batch("second").urls
        reference = _make_crawler(context, webgraph).crawl(seeds)
        assert reference.pages_fetched > 45

        path = tmp_path / "cp.json"

        def kill_switch(result):
            if result.pages_fetched >= 45:
                raise Killed

        with pytest.raises(Killed):
            ResumableCrawl(_make_crawler(context, webgraph), path).run(
                seeds, checkpoint_every=20, page_callback=kill_switch)
        resumed = ResumableCrawl(
            _make_crawler(context, webgraph), path).run(
                resume=True, checkpoint_every=20)

        assert (_ingest(context, resumed).digest()
                == _ingest(context, reference).digest())


class TestStreamingIngestEquivalence:
    """``ingest_documents(pipeline=...)`` runs the volume-cut one-pass
    engine; the store it builds must be the per-document
    ``pipeline.analyze`` loop's, byte for byte."""

    @staticmethod
    def _pages(context, webgraph):
        """Crawl-result pages plus the cut's edge cases: an empty
        page, a page whose split yields no sentences, a page larger
        than the budget, and a run landing exactly on the budget."""
        relevant = _make_crawler(context, webgraph).crawl(
            context.seed_batch("second").urls).relevant
        assert len(relevant) >= 4
        long_text = " ".join(page.text for page in relevant)
        while len(long_text) <= CHUNK_CHARS:
            long_text += " " + long_text

        def page(name: str, text: str) -> Document:
            return Document(doc_id=name, text=text, meta={
                "url": f"http://edge.example.org/{name}.html"})

        return [
            *relevant[:2],
            page("empty", ""),
            page("blank", " \n\t "),
            page("oversized", long_text),
            page("run-a", long_text[:20_000]),
            page("run-b", long_text[:CHUNK_CHARS - 20_000]),
            *relevant[2:],
        ]

    def test_store_bytes_match_per_document_reference(
            self, context, webgraph, tmp_path):
        pages = self._pages(context, webgraph)
        chunks = [[page.doc_id for page in chunk]
                  for chunk in volume_chunks(pages)]
        assert ["oversized"] in chunks        # over budget: alone
        assert ["run-a", "run-b"] in chunks   # lands exactly on it
        assert any(len(chunk) > 2 for chunk in chunks)

        pipeline, extractor = context.pipeline, RelationExtractor()
        reference = EntityStore(vocabulary=context.vocabulary)
        for page in pages:
            copy = page.copy_shallow()
            analyze(pipeline, copy)
            reference.ingest_document(
                copy, relations=extractor.extract(copy))

        streamed = EntityStore(vocabulary=context.vocabulary)
        count = ingest_documents(streamed, iter(pages), pipeline=pipeline)

        assert count == len(pages)
        assert streamed.snapshot().n_mentions > 0
        assert streamed.digest() == reference.digest()
        assert (streamed.save(tmp_path / "streamed").read_bytes()
                == reference.save(tmp_path / "reference").read_bytes())
        # Originals untouched: the engine annotated shallow copies.
        assert all(page.sentences is None and not page.entities
                   for page in pages)

    def test_pipeline_none_is_a_pure_ingest_loop(self, vocabulary,
                                                  store_documents):
        """``pipeline=None`` is a pure ingest loop over the documents
        as given (any iterable, consumed once)."""
        listed = EntityStore(vocabulary=vocabulary)
        lazy = EntityStore(vocabulary=vocabulary)
        assert ingest_documents(listed, store_documents) \
            == ingest_documents(lazy, iter(store_documents)) \
            == len(store_documents)
        assert lazy.digest() == listed.digest()


class TestIngestionPathEquivalence:
    def test_record_path_matches_document_path(self, vocabulary,
                                               store_documents):
        """Flow sink records and annotated documents reduce to the
        same observation tuples (the record schema is pinned by
        ``entities_to_records`` / ``relations_to_records``)."""
        from repro.ner.relations import relations_to_records

        document_path = EntityStore(vocabulary=vocabulary)
        ingest_documents(document_path, store_documents)

        extractor = RelationExtractor()
        record_path = EntityStore(vocabulary=vocabulary)
        for document in store_documents:
            url = document.meta.get("url", "")
            for mention in document.entities:
                record_path.ingest_entity_record({
                    "doc_id": document.doc_id, "url": url,
                    "text": mention.text, "start": mention.start,
                    "end": mention.end,
                    "entity_type": mention.entity_type,
                    "method": mention.method,
                    "term_id": mention.term_id})
            for record in relations_to_records(
                    extractor.extract(document), url=url):
                record_path.ingest_relation_record(record)

        assert record_path.digest() == document_path.digest()

    def test_flow_modes_build_identical_stores(self, context,
                                               vocabulary):
        from repro.core.flows import build_fig2_flow, run_flow
        from repro.web.htmlgen import PageRenderer

        renderer = PageRenderer(seed=31)
        documents = context.corpus_documents("relevant")[:4]
        for index, document in enumerate(documents):
            url = f"http://host{index}.example.org/a.html"
            document.raw = renderer.render(url, "Title", document.text,
                                           [])
            document.meta["url"] = url
            document.meta["content_type"] = "text/html"

        plan = build_fig2_flow(context.pipeline)
        digests = []
        for mode in ("sequential", "fused"):
            outputs, _ = run_flow(
                plan, [d.copy_shallow() for d in documents], mode=mode)
            store = EntityStore(vocabulary=vocabulary)
            n_entities, _ = ingest_flow_outputs(store, outputs)
            assert n_entities > 0
            digests.append(store.digest())
        assert digests[0] == digests[1]


def _start_server(pipeline, query_engine=None):
    config = ServeConfig(workers=0, max_batch=8, queue_limit=64)
    session = ExtractionSession(pipeline)
    return ExtractionServer(session, config,
                            query_engine=query_engine).start()


class TestServeQueryOp:
    def test_query_op_answers_like_the_library(self, pipeline,
                                               reference_store,
                                               store_entries):
        drug, _, _ = store_entries
        engine = QueryEngine(reference_store)
        server = _start_server(pipeline, query_engine=engine)
        try:
            with ServeClient(*server.address) as client:
                for params in ({}, {"limit": 2},
                               {"alias": drug.synonyms[0]},
                               {"predicate": "inhibits"}):
                    response = client.call("query", params=params)
                    assert response["ok"], response
                    expected = json.loads(
                        json.dumps(engine.facts(**params)))
                    assert response["result"]["facts"] == expected
                    assert response["result"]["count"] == len(expected)
        finally:
            server.shutdown()

    def test_query_op_rejects_bad_params(self, pipeline,
                                         reference_store):
        engine = QueryEngine(reference_store)
        server = _start_server(pipeline, query_engine=engine)
        try:
            with ServeClient(*server.address) as client:
                unknown = client.call("query", params={"frobnicate": 1})
                assert not unknown["ok"]
                assert unknown["error"]["code"] == "bad_request"
                assert "frobnicate" in unknown["error"]["message"]
                bad_limit = client.call("query", params={"limit": -1})
                assert not bad_limit["ok"]
                assert bad_limit["error"]["code"] == "bad_request"
        finally:
            server.shutdown()

    def test_query_op_without_store_is_a_typed_error(self, pipeline):
        server = _start_server(pipeline)
        try:
            with ServeClient(*server.address) as client:
                response = client.call("query", params={})
                assert not response["ok"]
                assert response["error"]["code"] == "no_store"
                assert "--store" in response["error"]["message"]
        finally:
            server.shutdown()
