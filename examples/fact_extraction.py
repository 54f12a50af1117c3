#!/usr/bin/env python
"""From web crawl to structured fact database.

Demonstrates the Section 5 extensions end to end: a checkpointed crawl
with the consolidated (IE-informed) relevance function that is killed
and resumed, near-duplicate removal, abbreviation detection, relation
extraction into the entity/fact store, and its JSONL export —
"turning unstructured text into structured fact databases".

Run:  python examples/fact_extraction.py
(writes ``facts_demo/`` in the working directory; read it back with
``repro query facts_demo``)
"""

import tempfile
from pathlib import Path

from repro.core import default_context
from repro.crawler.checkpoint import ResumableCrawl
from repro.crawler.consolidated import EntityAwareClassifier
from repro.crawler.crawl import CrawlConfig, FocusedCrawler
from repro.html.neardup import NearDuplicateFilter
from repro.nlp.abbreviations import annotate_abbreviations
from repro.store import (
    EntityStore, QueryEngine, analyzed_documents, format_fact_table,
)

CHECKPOINT_EVERY = 40
KILL_AFTER = 120


class Killed(RuntimeError):
    """Stands in for SIGKILL: aborts the crawl mid-run."""


def main() -> None:
    ctx = default_context(corpus_docs=10, n_training_docs=30,
                          crf_iterations=25, n_hosts=50, crawl_pages=400)

    print("-- consolidated, checkpointed crawl ------------------------")
    classifier = EntityAwareClassifier(ctx.pipeline.classifier,
                                       ctx.pipeline.dictionary_taggers,
                                       entity_weight=2.0)

    def fresh_crawler() -> FocusedCrawler:
        # Checkpoints are only taken at batch boundaries, so a batch
        # is one checkpoint interval.
        return FocusedCrawler(ctx.web, classifier,
                              ctx.build_filter_chain(),
                              CrawlConfig(max_pages=360,
                                          batch_size=CHECKPOINT_EVERY))

    def kill_switch(partial) -> None:
        if partial.pages_fetched >= KILL_AFTER:
            raise Killed

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "crawl.json"
        try:
            ResumableCrawl(fresh_crawler(), path).run(
                ctx.seed_batch("second").urls,
                checkpoint_every=CHECKPOINT_EVERY,
                page_callback=kill_switch)
        except Killed:
            print(f"killed at {KILL_AFTER} pages; resuming from the "
                  "last checkpoint")
        result = ResumableCrawl(fresh_crawler(), path).run(
            resume=True, checkpoint_every=CHECKPOINT_EVERY)
    print(f"{result.pages_fetched} pages, {len(result.relevant)} "
          f"relevant, stopped: {result.stop_reason}")

    print("\n-- near-duplicate removal -----------------------------------")
    near_filter = NearDuplicateFilter(threshold=0.7)
    unique = near_filter.filter(result.relevant)
    print(f"{len(result.relevant)} documents -> {len(unique)} after "
          f"near-dup removal ({near_filter.dropped} dropped)")

    print("\n-- extraction ------------------------------------------------")
    store = EntityStore(vocabulary=ctx.vocabulary)
    n_abbreviations = 0
    for document, relations in analyzed_documents(unique[:25],
                                                  ctx.pipeline):
        n_abbreviations += len(annotate_abbreviations(document))
        store.ingest_document(document, relations=relations)
    snapshot = store.snapshot()
    print(f"{snapshot.n_mentions} entity mentions -> "
          f"{snapshot.n_entities} entities "
          f"({snapshot.n_alias_merges} alias merges)")
    print(f"{snapshot.n_facts} facts ({snapshot.n_corroborated} "
          "corroborated)")
    print(f"abbreviation definitions: {n_abbreviations}")

    print("\n-- export ------------------------------------------------------")
    print(f"wrote store: {store.save('facts_demo')}")
    for artifact, path in store.export("facts_demo").items():
        print(f"wrote {artifact}: {path}")
    print("\ntop facts by corroboration:")
    for line in format_fact_table(QueryEngine(store).facts(limit=8)):
        print(f"  {line}")


if __name__ == "__main__":
    main()
