#!/usr/bin/env python
"""Quickstart: crawl a tiny synthetic web, extract entities, compare.

Builds the whole stack at miniature scale — synthetic web, focused
crawler with a trained relevance classifier, and the NLP/NER pipeline —
then annotates the crawled corpus on the one-pass engine
(``pipeline.analyze_stream``) and prints the headline numbers.

Run:  python examples/quickstart.py
"""

from repro.core import default_context
from repro.core.analysis import CorpusStats, accumulate_document


def main() -> None:
    print("Building the reproduction context (trains the classifier, "
          "HMM tagger, and three CRF entity taggers)...")
    ctx = default_context(corpus_docs=10, n_training_docs=30,
                          crf_iterations=25, n_hosts=40, crawl_pages=400)

    print("\n-- focused crawl ------------------------------------------")
    crawl = ctx.crawl()
    print(f"pages fetched:     {crawl.pages_fetched}")
    print(f"relevant corpus:   {len(crawl.relevant)} documents")
    print(f"irrelevant corpus: {len(crawl.irrelevant)} documents")
    print(f"harvest rate:      {crawl.harvest_rate:.0%}  (paper: 38 %)")
    print(f"download rate:     {crawl.download_rate:.1f} docs/s "
          f"(paper: 3-4)")

    print("\n-- information extraction on the crawled corpus -----------")
    stats = CorpusStats(name="crawled-relevant")
    # The one-pass engine annotates shallow copies, in batches cut on
    # text volume, and yields them in input order.
    analyzed = list(ctx.pipeline.analyze_stream(
        document.copy_shallow() for document in crawl.relevant[:15]))
    for document in analyzed:
        accumulate_document(stats, document)
    for entity_type in ("disease", "drug", "gene"):
        dictionary = stats.distinct_names(entity_type, "dictionary")
        ml = stats.distinct_names(entity_type, "ml")
        per_1000 = stats.per_1000_sentences(entity_type)
        print(f"{entity_type:<8} distinct names: dictionary {dictionary:>4} "
              f"| ML {ml:>4} | mentions/1000 sentences {per_1000:6.1f}")

    print("\n-- sample annotations --------------------------------------")
    for mention in analyzed[0].entities[:8]:
        print(f"  [{mention.method:<10}] {mention.entity_type:<8} "
              f"{mention.text!r} @ {mention.start}-{mention.end}")


if __name__ == "__main__":
    main()
