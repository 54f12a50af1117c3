"""Fig. 7: incidence of entity annotations per document / per 1000
sentences across the four corpora, including the TLA-filter step for
ML gene names."""

from reporting import format_table, write_report

from repro.evaluation import score_sets
from repro.ner.postfilter import filter_tla_mentions, is_tla

ORDER = ("relevant", "irrelevant", "medline", "pmc")
PAPER_PER_1000 = {
    "disease": {"relevant": 128.49, "irrelevant": 4.57,
                "medline": 204.92, "pmc": 117.51},
    "drug": {"relevant": 97.83, "irrelevant": 6.85,
             "medline": 293.95, "pmc": 275.95},
    "gene": {"relevant": 128.23, "irrelevant": 4.39,
             "medline": 415.58, "pmc": 74.12},
}
#: Which method the paper's per-1000 means refer to per type.
PAPER_METHOD = {"disease": None, "drug": None, "gene": "dictionary"}


def test_fig7_incidence_per_1000_sentences(stats, benchmark):
    benchmark.pedantic(
        lambda: stats["relevant"].per_1000_sentences("disease"),
        rounds=1, iterations=1)
    rows = []
    for entity_type in ("disease", "drug", "gene"):
        method = PAPER_METHOD[entity_type]
        for corpus in ORDER:
            rows.append([
                entity_type, corpus,
                f"{PAPER_PER_1000[entity_type][corpus]:.1f}",
                f"{stats[corpus].per_1000_sentences(entity_type, method):.1f}",
            ])
    lines = format_table(
        ["entity type", "corpus", "paper /1000 sent", "repro /1000 sent"],
        rows)
    lines.append("")
    lines.append("(gene row uses dictionary annotations, as the paper's "
                 "per-1000-sentence gene means do)")
    write_report("fig7_incidence", "Fig. 7 — entity incidence", lines)

    for entity_type in ("disease", "drug", "gene"):
        method = PAPER_METHOD[entity_type]
        values = {corpus: stats[corpus].per_1000_sentences(entity_type,
                                                           method)
                  for corpus in ORDER}
        # Irrelevant is the floor for every type (Fig 7a-c).
        assert values["irrelevant"] < values["relevant"]
        assert values["irrelevant"] < values["medline"]
        # Medline abstracts are the densest for disease/drug/gene.
        assert values["medline"] >= values["relevant"]


def test_fig7_tla_filter_effect(ctx, stats, benchmark):
    """Paper: filtering TLAs cut distinct ML gene names in the
    relevant corpus from 5.5 M to 2.3 M (a ~58 % reduction)."""
    relevant = stats["relevant"]
    frequencies = relevant.name_frequencies[("gene", "ml")]
    before = len(frequencies)
    after = benchmark.pedantic(
        lambda: sum(1 for name in frequencies if not is_tla(name.upper())
                    or not name.isalpha() or len(name) != 3),
        rounds=1, iterations=1)
    tla_names = before - sum(
        1 for name in frequencies
        if not (len(name) == 3 and name.isalpha()))
    lines = [
        f"distinct ML gene names before TLA filter: {before}",
        f"TLA-shaped names removed: {tla_names}",
        f"distinct ML gene names after TLA filter: {before - tla_names}",
        "",
        "paper: 5,506,579 -> 2,300,000 distinct gene names after "
        "filtering three-letter acronyms; 'a very large number of "
        "false positives are three letter acronyms (TLA), almost "
        "always tagged as genes'",
    ]
    write_report("fig7_tla_filter", "Fig. 7c — TLA filter", lines)
    assert before > 0
    assert tla_names >= 0
    # ML gene names on *web* text include TLA-shaped entries.
    web_names = set(relevant.name_frequencies[("gene", "ml")])
    assert any(len(n) == 3 and n.isalpha() for n in web_names)


def test_tla_false_positive_flood_on_web_text(ctx, benchmark):
    """Count outright TLA false positives of the ML gene tagger on
    web-profile text (gold-negative acronyms tagged as genes)."""
    from repro.corpora.profiles import RELEVANT
    from repro.corpora.textgen import DocumentGenerator
    import dataclasses

    acronym_heavy = dataclasses.replace(RELEVANT, tla_per_sentence=0.5)
    generator = DocumentGenerator(ctx.vocabulary, acronym_heavy, seed=404)
    tagger = ctx.pipeline.ml_taggers["gene"]

    def run():
        false_positives = mentions = 0
        for index in range(10):
            gold = generator.document(index)
            document = gold.document.copy_shallow()
            predictions = tagger.annotate(document)
            mentions += len(predictions)
            false_positives += score_sets(
                {(m.start, m.end) for m in predictions if is_tla(m.text)},
                {(g.mention.start, g.mention.end)
                 for g in gold.entities}).fp
        return mentions, false_positives

    mentions, false_positives = benchmark.pedantic(run, rounds=1,
                                                   iterations=1)
    lines = [
        f"ML gene mentions on acronym-heavy web text: {mentions}",
        f"TLA false positives among them: {false_positives}",
        "",
        "paper: BANNER 'leads to catastrophic performance on any "
        "other documents' than Medline-style abstracts",
    ]
    write_report("fig7_tla_flood", "TLA false positives on web text",
                 lines)
    assert false_positives > 0
