"""Dictionary-tagger scaling: build time and memory vs. dictionary
size.

The paper's operational pain points — the ~20-minute load of the
700K-entry gene dictionary and the 6-20 GB per-worker footprints —
are size effects.  This bench measures load time (term expansion plus
the word-unit trie build) and the trie's estimated memory over a size
sweep, measures what the gene dictionary keeps allocated at
``scale=10`` (a tenth of the paper's names), and extrapolates both
linearly to the paper's scale.

Two arms hold the trie: the production one (flat read-only arrays,
:class:`repro.ner.automaton.WordTrie`) and the per-node one it
replaced (one child dict per node, ``tests/ner/word_trie_oracle.py``),
which stands for the object-per-node layout of the paper's tool.  The
paper-regime check reads the per-node arm.  At ``scale=10`` the bench
also compares the two arms' build seconds, retained and peak bytes,
and the private memory a forked worker gains scanning ~0.9 M
characters: reference counts are writes, so every trie object a scan
touches costs the worker a copied page.
"""

import gc
import os
import statistics
import time
import tracemalloc
from pathlib import Path
from unittest import mock

from reporting import format_table, write_report

import repro.ner.dictionary as dictionary_module
from repro.corpora.profiles import RELEVANT
from repro.corpora.textgen import DocumentGenerator
from repro.corpora.vocabulary import BiomedicalVocabulary
from repro.ner.automaton import WordTrie
from repro.ner.dictionary import (
    EntityDictionary, MultiTypeDictionary, fold_case, surface_table,
)
from repro.ner.onepass import CHUNK_CHARS
from repro.workers import frozen_heap
from tests.ner.word_trie_oracle import WordTrie as PerNodeTrie

PAPER_GENE_NAMES = 700_000
PAPER_LOAD_SECONDS = 1200     # "approximately 20 minutes (!)"
PAPER_MEMORY_GB = (6, 20)     # "between 6 and 20 GB per worker thread"
#: The generated text a forked worker scans.
SCAN_CHARS = 900_000
_SMAPS = Path("/proc/self/smaps_rollup")


def _gene_dictionary(vocabulary) -> MultiTypeDictionary:
    """Expand and compile the gene dictionary alone, the way a
    pipeline compiles all three types into its one trie."""
    return MultiTypeDictionary(
        [EntityDictionary("gene", surface_table(vocabulary.genes))])


def _measured_footprint(vocabulary, trie) -> int:
    """The bytes the gene dictionary keeps allocated once built: its
    surface table and the ``trie`` arm over it (tracemalloc, after a
    collect)."""
    gc.collect()
    with mock.patch.object(dictionary_module, "WordTrie", trie):
        tracemalloc.start()
        try:
            dictionary = _gene_dictionary(vocabulary)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    del dictionary
    return retained


def _merged_input(vocabulary) -> tuple[list[str], list[tuple]]:
    """The patterns and payloads of a pipeline's one trie over every
    type, built before any measurement (the surface tables are left
    out of both arms)."""
    merged = MultiTypeDictionary(
        [EntityDictionary(etype, surface_table(vocabulary.entries(etype)))
         for etype in ("disease", "drug", "gene")])
    patterns = [surface for dictionary in merged.dictionaries.values()
                for surface in dictionary.patterns]
    return patterns, merged._trie.payloads


def _scan_texts() -> list[str]:
    """~0.9 M characters of generated relevant text, case-folded."""
    generator = DocumentGenerator(BiomedicalVocabulary(seed=19), RELEVANT,
                                  seed=31, pathological_fraction=0.2)
    texts, total = [], 0
    for gold in generator.documents(400):
        texts.append(fold_case(gold.text))
        total += len(gold.text)
        if total >= SCAN_CHARS:
            break
    return texts


def _scan(trie, texts: list[str]) -> None:
    """Scan ``texts`` the way each arm's callers do: the production
    trie in ``CHUNK_CHARS`` batches, the per-node one per text."""
    if isinstance(trie, PerNodeTrie):
        for text in texts:
            trie.find_aligned(text)
        return
    batch, chars = [], 0
    for text in texts:
        batch.append(text)
        chars += len(text)
        if chars >= CHUNK_CHARS:
            trie.find_aligned_batch(batch)
            batch, chars = [], 0
    trie.find_aligned_batch(batch)


def _private_dirty_kib() -> int:
    for line in _SMAPS.read_text().splitlines():
        if line.startswith("Private_Dirty:"):
            return int(line.split()[1])
    raise RuntimeError(f"no Private_Dirty line in {_SMAPS}")


def _forked_scan_growth(trie, texts: list[str]) -> float | None:
    """MiB of ``Private_Dirty`` a forked child gains scanning ``texts``
    (None where ``/proc/self/smaps_rollup`` is missing).  The parent
    scans once first, and forks under ``frozen_heap`` like every worker
    pool, so the child pays neither first-use costs nor a collection."""
    if not _SMAPS.exists():
        return None
    _scan(trie, texts)
    read, write = os.pipe()
    with frozen_heap():
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read)
                before = _private_dirty_kib()
                _scan(trie, texts)
                os.write(write, str(_private_dirty_kib() - before).encode())
            finally:
                os._exit(0)
    os.close(write)
    with os.fdopen(read) as handle:
        growth = handle.read()
    os.waitpid(pid, 0)
    return int(growth) / 1024


def _arm(trie, patterns, payloads, texts) -> dict:
    """One arm over one pattern list: build seconds (median of three
    untraced, and one under tracemalloc), retained and peak bytes under
    tracemalloc, and the forked scan's private growth."""
    seconds = []
    for _ in range(3):
        started = time.perf_counter()
        built = trie.build(patterns, payloads)
        seconds.append(time.perf_counter() - started)
        del built
    gc.collect()
    tracemalloc.start()
    try:
        started = time.perf_counter()
        built = trie.build(patterns, payloads)
        traced_s = time.perf_counter() - started
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"build_s": statistics.median(seconds), "traced_s": traced_s,
            "retained": retained, "peak": peak, "nodes": built.n_nodes,
            "fork_mib": _forked_scan_growth(built, texts)}


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
    # the sweep, memory from the footprint measured at scale=10, for
    # each arm.
    names, seconds, _ = measurements[-1]
    projected_seconds = seconds * PAPER_GENE_NAMES / names
    tenth = BiomedicalVocabulary(seed=3, scale=10)
    tenth_names = len(tenth.gene_names())
    footprint_mb = {arm: _measured_footprint(tenth, trie) / 2 ** 20
                    for arm, trie in (("per-node", PerNodeTrie),
                                      ("arrays", WordTrie))}
    projected_gb = {arm: mb * PAPER_GENE_NAMES / tenth_names / 1024
                    for arm, mb in footprint_mb.items()}
    # Both arms over every type at the default scale and at scale=10.
    texts = _scan_texts()
    arms = {}
    for scale, vocabulary in (("default", BiomedicalVocabulary(seed=3)),
                              ("scale=10", tenth)):
        patterns, payloads = _merged_input(vocabulary)
        for arm, trie in (("per-node", PerNodeTrie), ("arrays", WordTrie)):
            arms[scale, arm] = _arm(trie, patterns, payloads, texts)
            arms[scale, arm]["patterns"] = len(patterns)
    lines = format_table(
        ["entries", "names", "patterns", "load time", "of which trie",
         "est. memory"],
        rows)
    lines.append("")
    for arm, mb in footprint_mb.items():
        lines.append(f"measured at scale=10, {arm} trie: {tenth_names:,} "
                     f"names keep {mb:.1f} MB (surface table and trie); "
                     f"linear extrapolation to {PAPER_GENE_NAMES:,} names: "
                     f"memory ~{projected_gb[arm]:.2f} GB")
    lines.append(f"load ~{projected_seconds:.0f} s at {PAPER_GENE_NAMES:,} "
                 f"names (linear in the sweep)")
    lines.append(f"paper: ~20 min load and 6-20 GB per worker — the "
                 f"original Java tool converts every dictionary regex "
                 f"into an NFA; expanding the terms and building a trie "
                 f"over their word units projects to "
                 f"~{projected_seconds:.0f} s here, and the per-node "
                 f"trie's memory to the GB-per-worker regime")
    lines.append("")
    lines.append(f"the merged trie of every type, surface tables left "
                 f"out; a forked child scans {sum(map(len, texts)):,} "
                 f"characters")
    lines += format_table(
        ["vocabulary", "trie", "patterns", "nodes", "build",
         "build traced", "retained", "peak", "fork Private_Dirty"],
        [[scale, arm, f"{row['patterns']:,}", f"{row['nodes']:,}",
          f"{row['build_s']:.3f} s", f"{row['traced_s']:.3f} s",
          f"{row['retained'] / 2 ** 20:.1f} MiB",
          f"{row['peak'] / 2 ** 20:.1f} MiB",
          "n/a" if row["fork_mib"] is None
          else f"+{row['fork_mib']:.1f} MiB"]
         for (scale, arm), row in arms.items()])
    write_report("dictionary_scaling",
                 "Dictionary scaling — dictionary load cost", lines)
    # Load cost grows with size (the projection is reported, not
    # bounded: it is a few seconds); the per-node trie's extrapolated
    # measured memory reaches the GB-per-worker regime that capped the
    # paper's DoP; the array trie keeps at most a third of its bytes,
    # and a forked scan writes none of them: what the child gains does
    # not grow with the dictionary.
    assert measurements[-1][1] > measurements[0][1]
    assert 0.6 <= projected_gb["per-node"] <= 200     # GB-scale footprint
    assert arms["scale=10", "arrays"]["retained"] <= \
        arms["scale=10", "per-node"]["retained"] / 3
    grown = [arms[scale, "arrays"]["fork_mib"]
             for scale in ("default", "scale=10")]
    if None not in grown:
        assert grown[1] - grown[0] <= 1.5


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
