"""Ingestion helpers: crawl results and flow sink records into a store.

Two equivalent paths feed an :class:`~repro.store.store.EntityStore`:

* **document path** — annotated :class:`~repro.annotations.Document`
  objects (the crawl sink streams the relevant pages through the
  one-pass engine, then ingests mentions + extracted relations);
* **record path** — ``entities`` / ``relations`` sink records from a
  flow run (:func:`repro.core.flows.build_fig2_flow`).

Both reduce to the same observation tuples, so a store built either
way from the same annotated documents exports byte-identically —
asserted in ``tests/store/test_store_equivalence.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from repro.annotations import Document
from repro.store.store import EntityStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import TextAnalyticsPipeline
    from repro.crawler.crawl import CrawlResult


def analyzed_documents(documents: Iterable[Document],
                       pipeline: "TextAnalyticsPipeline | None" = None,
                       extractor=None) -> Iterator[tuple[Document, list]]:
    """Yield ``(annotated document, extracted relations)`` pairs in
    input order, lazily.

    With ``pipeline``, shallow copies stream through the one-pass
    engine (:meth:`TextAnalyticsPipeline.analyze_stream`: volume-cut
    batches, byte-identical to per-document ``analyze``) and the
    originals stay untouched; without it, ``documents`` are taken as
    already annotated.  The one copy → analyze → extract loop behind
    store ingest.
    """
    if extractor is None:
        from repro.ner.relations import RelationExtractor

        extractor = RelationExtractor()
    if pipeline is not None:
        documents = pipeline.analyze_stream(
            document.copy_shallow() for document in documents)
    for document in documents:
        yield document, extractor.extract(document)


def ingest_documents(store: EntityStore,
                     documents: Iterable[Document],
                     pipeline: "TextAnalyticsPipeline | None" = None,
                     extractor=None, round_: int = 0) -> int:
    """Ingest annotated documents; with ``pipeline``, analyze a
    shallow copy of each first (originals untouched).  Returns the
    number of documents ingested."""
    count = 0
    for document, relations in analyzed_documents(documents, pipeline,
                                                  extractor):
        store.ingest_document(document, relations=relations,
                              round_=round_)
        count += 1
    return count


def ingest_crawl_result(store: EntityStore, result: "CrawlResult",
                        pipeline: "TextAnalyticsPipeline",
                        round_: int = 0) -> int:
    """Analyze and ingest a crawl's relevant documents.

    ``result.relevant`` is byte-identical at any worker/shard count
    and across kill+resume, and analysis + ingestion are
    deterministic, so the resulting store inherits those guarantees.
    """
    return ingest_documents(store, result.relevant, pipeline=pipeline,
                            round_=round_)


def ingest_flow_outputs(store: EntityStore,
                        outputs: Mapping[str, list],
                        round_: int = 0) -> tuple[int, int]:
    """Ingest a flow run's ``entities`` and ``relations`` sink
    records; returns (entity_records, relation_records) counts."""
    entity_records = outputs.get("entities", [])
    relation_records = outputs.get("relations", [])
    for record in entity_records:
        store.ingest_entity_record(record, round_=round_)
    for record in relation_records:
        store.ingest_relation_record(record, round_=round_)
    return len(entity_records), len(relation_records)
