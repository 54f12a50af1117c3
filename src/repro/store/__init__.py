"""Persistent entity/fact store with provenance (docs/entity_store.md).

The durable output layer of the reproduction: extracted relations
become corroborated subject–predicate–object facts with full
provenance chains, surface variants are merged onto canonical
vocabulary identities, and the whole store persists atomically with a
versioned format and byte-identical contents at any worker/shard
count.
"""

from repro.store.ingest import (
    analyzed_documents, ingest_crawl_result, ingest_documents,
    ingest_flow_outputs,
)
from repro.store.query import QueryEngine, format_fact_table
from repro.store.store import (
    FORMAT_VERSION, Assertion, EntityStore, Mention, StoreError,
    StoreNotFoundError, StoreSnapshot, StoreVersionError, alias_key,
)

__all__ = [
    "FORMAT_VERSION",
    "Assertion",
    "EntityStore",
    "Mention",
    "QueryEngine",
    "StoreError",
    "StoreNotFoundError",
    "StoreSnapshot",
    "StoreVersionError",
    "alias_key",
    "analyzed_documents",
    "format_fact_table",
    "ingest_crawl_result",
    "ingest_documents",
    "ingest_flow_outputs",
]
