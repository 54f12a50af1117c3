"""Section 5 extensions implemented and measured.

1. **Consolidated crawling + IE** — the paper's closing future-work
   item: feed dictionary-NER evidence into the crawl-time relevance
   decision and compare against the two-stage baseline.
2. **Two-phase (recall-then-precision) crawling** — the alternative
   strategy Section 5 proposes for the emptied-frontier problem.
3. **Sentence-length limit** — the Section 4.2 work-around ("finding a
   good threshold, trading runtime robustness for information yield,
   will be non-trivial"): sweep the limit and measure both sides.
"""

import functools

from reporting import format_table, write_report

from repro.crawler.consolidated import (
    EntityAwareClassifier, TwoPhaseClassifier,
)
from repro.crawler.crawl import CrawlConfig, FocusedCrawler
from repro.evaluation import score_pages


def test_consolidated_crawling(ctx, benchmark):
    """IE-informed relevance vs the plain two-stage classifier."""
    seeds = ctx.seed_batch("second").urls
    baseline_crawler = FocusedCrawler(
        ctx.web, ctx.pipeline.classifier, ctx.build_filter_chain(),
        CrawlConfig(max_pages=900))
    baseline = baseline_crawler.crawl(seeds)
    consolidated_classifier = EntityAwareClassifier(
        ctx.pipeline.classifier, ctx.pipeline.dictionary_taggers,
        entity_weight=2.0)
    consolidated_crawler = FocusedCrawler(
        ctx.web, consolidated_classifier, ctx.build_filter_chain(),
        CrawlConfig(max_pages=900))
    consolidated = benchmark.pedantic(
        functools.partial(consolidated_crawler.crawl, seeds),
        rounds=1, iterations=1)
    rows = [
        ["two-stage (paper)", len(baseline.relevant),
         f"{baseline.harvest_rate:.0%}",
         f"{score_pages(ctx.webgraph, baseline.relevant).precision:.0%}",
         baseline.stop_reason],
        ["consolidated (IE-informed)", len(consolidated.relevant),
         f"{consolidated.harvest_rate:.0%}",
         f"{score_pages(ctx.webgraph, consolidated.relevant).precision:.0%}",
         consolidated.stop_reason],
    ]
    lines = format_table(
        ["strategy", "relevant yield", "harvest", "corpus precision",
         "stop"], rows)
    lines.append("")
    lines.append("paper Sect. 5: 'the result of the IE pipeline could "
                 "actually be a valuable input for the classifier "
                 "during a crawl' — implemented here as a log-odds "
                 "boost from dictionary-NER densities")
    write_report("ext_consolidated",
                 "Extension — consolidated crawling + IE", lines)
    # Entity evidence rescues fringe pages: yield must not shrink.
    assert len(consolidated.relevant) >= len(baseline.relevant)
    assert score_pages(ctx.webgraph, consolidated.relevant).precision > 0.6


def test_two_phase_crawling(ctx, benchmark):
    """Recall-geared crawl + strict re-classification vs one-shot
    precision-geared crawl."""
    seeds = ctx.seed_batch("second").urls
    strict_crawler = FocusedCrawler(
        ctx.web, ctx.pipeline.classifier, ctx.build_filter_chain(),
        CrawlConfig(max_pages=1500))
    strict = strict_crawler.crawl(seeds)
    two_phase = TwoPhaseClassifier(ctx.pipeline.classifier,
                                   crawl_threshold=0.2,
                                   corpus_threshold=0.9)
    recall_crawler = FocusedCrawler(
        ctx.web, two_phase, ctx.build_filter_chain(),
        CrawlConfig(max_pages=1500))
    phase1 = benchmark.pedantic(
        functools.partial(recall_crawler.crawl, seeds),
        rounds=1, iterations=1)
    kept, demoted = two_phase.reclassify(phase1.relevant)
    rows = [
        ["one-shot precision (paper)", strict.pages_fetched,
         len(strict.relevant), "-",
         f"{score_pages(ctx.webgraph, strict.relevant).precision:.0%}"],
        ["phase 1 (recall-geared)", phase1.pages_fetched,
         len(phase1.relevant), "-",
         f"{score_pages(ctx.webgraph, phase1.relevant).precision:.0%}"],
        ["phase 2 (re-classified)", "-", len(kept), len(demoted),
         f"{score_pages(ctx.webgraph, kept).precision:.0%}"],
    ]
    lines = format_table(
        ["strategy", "fetched", "relevant", "demoted",
         "corpus precision"], rows)
    lines.append("")
    lines.append("paper Sect. 5: 'one could tune the classifier towards "
                 "more recall during crawling, and classify each "
                 "crawled text later a second time with a model geared "
                 "towards high precision'")
    write_report("ext_two_phase", "Extension — two-phase crawling",
                 lines)
    # The recall-geared crawl explores at least as far...
    assert phase1.pages_fetched >= strict.pages_fetched
    # ...and re-classification restores precision.
    assert score_pages(ctx.webgraph, kept).precision >= \
        score_pages(ctx.webgraph, phase1.relevant).precision


def test_sentence_length_limit_tradeoff(ctx, benchmark):
    """Hard sentence-length caps: robustness (no tagger crashes) vs
    information yield (split pseudo-sentences distort statistics)."""
    import dataclasses

    from repro.corpora.profiles import RELEVANT
    from repro.corpora.textgen import DocumentGenerator
    from repro.nlp.pos_hmm import TaggerCrash
    from repro.nlp.sentence import SentenceSplitter
    from repro.nlp.tokenize import tokenize

    pathological = dataclasses.replace(RELEVANT)
    generator = DocumentGenerator(ctx.vocabulary, pathological,
                                  seed=31, pathological_fraction=0.3)
    documents = [generator.document(i).document for i in range(12)]
    tagger = ctx.pipeline.pos_tagger
    rows = []
    outcomes = {}
    for limit in (None, 2000, 500, 120):
        splitter = SentenceSplitter(max_sentence_chars=limit)
        crashes = sentences = tagged_tokens = 0
        for document in documents:
            for sentence in splitter.split(document.text):
                sentences += 1
                tokens = tokenize(sentence.text)
                try:
                    tagger.tag([t.text for t in tokens])
                    tagged_tokens += len(tokens)
                except TaggerCrash:
                    crashes += 1
        outcomes[limit] = (crashes, tagged_tokens, sentences)
        rows.append([limit or "unlimited", sentences, crashes,
                     tagged_tokens])
    benchmark.pedantic(
        lambda: SentenceSplitter(max_sentence_chars=500).split(
            documents[0].text), rounds=3, iterations=1)
    lines = format_table(
        ["max sentence chars", "sentences", "tagger crashes",
         "tokens tagged"], rows)
    lines.append("")
    lines.append("paper Sect. 4.2: 'one work-around would be to "
                 "introduce an upper limit on sentence length, but "
                 "finding a good threshold, trading runtime robustness "
                 "for information yield, will be non-trivial'")
    write_report("ext_sentence_limit",
                 "Extension — sentence-length limit trade-off", lines)
    unlimited_crashes = outcomes[None][0]
    capped_crashes = outcomes[500][0]
    assert unlimited_crashes > 0       # run-on pages crash the tagger
    assert capped_crashes < unlimited_crashes
    assert outcomes[500][1] > outcomes[None][1]  # more tokens tagged
