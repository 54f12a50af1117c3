"""Dictionary-tagger scaling: build time and memory vs. dictionary
size.

The paper's operational pain points — the ~20-minute load of the
700K-entry gene dictionary and the 6-20 GB per-worker footprints —
are size effects.  This bench measures load time (term expansion plus
the word-unit trie build) and the trie's estimated memory over a size
sweep, measures what the gene dictionary keeps allocated at
``scale=10`` (a tenth of the paper's names), and extrapolates both
linearly to the paper's scale.
"""

import gc
import time
import tracemalloc

from reporting import format_table, write_report

from repro.corpora.vocabulary import BiomedicalVocabulary
from repro.ner.dictionary import (
    EntityDictionary, MultiTypeDictionary, surface_table,
)

PAPER_GENE_NAMES = 700_000
PAPER_LOAD_SECONDS = 1200     # "approximately 20 minutes (!)"
PAPER_MEMORY_GB = (6, 20)     # "between 6 and 20 GB per worker thread"


def _gene_dictionary(vocabulary) -> MultiTypeDictionary:
    """Expand and compile the gene dictionary alone, the way a
    pipeline compiles all three types into its one trie."""
    return MultiTypeDictionary(
        [EntityDictionary("gene", surface_table(vocabulary.genes))])


def _measured_footprint(vocabulary) -> int:
    """The bytes the gene dictionary keeps allocated once built: its
    surface table and the trie over it (tracemalloc, after a collect)."""
    gc.collect()
    tracemalloc.start()
    try:
        dictionary = _gene_dictionary(vocabulary)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del dictionary
    return retained


def test_dictionary_build_scaling(benchmark):
    sizes = [250, 500, 1000, 2000]
    rows = []
    measurements = []
    for n_entries in sizes:
        vocabulary = BiomedicalVocabulary(seed=3, n_genes=n_entries,
                                          n_diseases=40, n_drugs=40)
        started = time.perf_counter()
        dictionary = _gene_dictionary(vocabulary)
        build_seconds = time.perf_counter() - started
        n_names = len(vocabulary.gene_names())
        memory_mb = dictionary.approx_memory_bytes() / 2 ** 20
        measurements.append((n_names, build_seconds, memory_mb))
        rows.append([n_entries, n_names, dictionary.n_patterns,
                     f"{build_seconds * 1000:.0f} ms",
                     f"{dictionary.build_seconds * 1000:.0f} ms",
                     f"{memory_mb:.1f} MB"])
    benchmark.pedantic(
        lambda: _gene_dictionary(BiomedicalVocabulary(
            seed=3, n_genes=500, n_diseases=40, n_drugs=40)),
        rounds=1, iterations=1)
    # Linear extrapolation to the paper's 700K names: load time from
    # the sweep, memory from the footprint measured at scale=10.
    names, seconds, _ = measurements[-1]
    projected_seconds = seconds * PAPER_GENE_NAMES / names
    tenth = BiomedicalVocabulary(seed=3, scale=10)
    tenth_names = len(tenth.gene_names())
    footprint_mb = _measured_footprint(tenth) / 2 ** 20
    projected_gb = footprint_mb * PAPER_GENE_NAMES / tenth_names / 1024
    lines = format_table(
        ["entries", "names", "patterns", "load time", "of which trie",
         "est. memory"],
        rows)
    lines.append("")
    lines.append(f"measured at scale=10: {tenth_names:,} names keep "
                 f"{footprint_mb:.1f} MB (surface table and trie)")
    lines.append(f"linear extrapolation to {PAPER_GENE_NAMES:,} names: "
                 f"load ~{projected_seconds:.0f} s, "
                 f"memory ~{projected_gb:.1f} GB")
    lines.append(f"paper: ~20 min load and 6-20 GB per worker — the "
                 f"original Java tool converts every dictionary regex "
                 f"into an NFA; expanding the terms and building a trie "
                 f"over their word units projects to "
                 f"~{projected_seconds:.0f} s here, and memory to the "
                 f"GB-per-worker regime")
    write_report("dictionary_scaling",
                 "Dictionary scaling — dictionary load cost", lines)
    # Load cost grows with size (the projection is reported, not
    # bounded: it is a few seconds); extrapolated measured memory
    # reaches the GB-per-worker regime that capped the paper's DoP.
    assert measurements[-1][1] > measurements[0][1]
    assert 0.6 <= projected_gb <= 200     # GB-scale footprint


def test_pos_and_language_quality(ctx, benchmark):
    """Supporting tool quality: HMM tagging accuracy on held-out text
    (MedPost reports ~97 % on Medline) and language-ID accuracy."""
    import random

    from repro.corpora.foreign import FOREIGN_WORDS, generate_foreign_text
    from repro.corpora.goldstandard import build_ner_gold
    from repro.corpora.profiles import MEDLINE

    held_out = build_ner_gold(ctx.vocabulary, MEDLINE, 15, seed=909)
    sentences = [s for gold in held_out
                 for s in gold.tagged_sentences()]
    accuracy = benchmark.pedantic(
        lambda: ctx.pipeline.pos_tagger.accuracy(sentences),
        rounds=1, iterations=1)
    rng = random.Random(5)
    correct = total = 0
    for gold in held_out[:10]:
        total += 1
        correct += ctx.pipeline.identifier.detect(gold.text) == "en"
    for language in FOREIGN_WORDS:
        for _ in range(5):
            total += 1
            text = generate_foreign_text(language, 600, rng)
            correct += ctx.pipeline.identifier.detect(text) == language
    lines = [
        f"HMM POS accuracy on held-out Medline-profile text: "
        f"{accuracy:.1%} (MedPost reports ~97 % on Medline)",
        f"language-ID accuracy over en/de/fr/es samples: "
        f"{correct / total:.1%}",
    ]
    write_report("tool_quality", "Supporting tool quality", lines)
    assert accuracy > 0.9
    assert correct / total > 0.9
