"""Corpus content analysis (Section 4.3).

Aggregates per-document linguistic and entity statistics into
:class:`CorpusStats`, and provides the comparisons the paper reports:
Mann-Whitney-Wilcoxon significance tests on linguistic properties
(Fig. 6), per-1000-sentence entity incidence (Fig. 7 / Table 4),
distinct-name overlaps across corpora (Fig. 8), and Jensen-Shannon
divergences between entity-name distributions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

from repro.annotations import Document
from repro.core.pipeline import TextAnalyticsPipeline
from repro.corpora.textgen import COREFERENCE_CLASSES
from repro.nlp.stats import (
    jensen_shannon_divergence, mann_whitney_u, mean,
)

_KEYS = [("disease", "dictionary"), ("disease", "ml"),
         ("drug", "dictionary"), ("drug", "ml"),
         ("gene", "dictionary"), ("gene", "ml")]


@dataclass
class CorpusStats:
    """Aggregated statistics of one analyzed corpus."""

    name: str
    n_docs: int = 0
    n_sentences: int = 0
    total_chars: int = 0
    doc_lengths: list[int] = field(default_factory=list)
    mean_sentence_lengths: list[float] = field(default_factory=list)
    negations_per_doc: list[int] = field(default_factory=list)
    parentheses_per_doc: list[int] = field(default_factory=list)
    pronouns_per_doc: dict[str, list[int]] = field(default_factory=dict)
    #: (entity_type, method) -> total mention count.
    mention_counts: dict[tuple[str, str], int] = field(default_factory=dict)
    #: (entity_type, method) -> per-document mention counts.
    mentions_per_doc: dict[tuple[str, str], list[int]] = field(
        default_factory=dict)
    #: (entity_type, method) -> lower-cased distinct-name frequency.
    name_frequencies: dict[tuple[str, str], Counter] = field(
        default_factory=dict)

    def __post_init__(self) -> None:
        for key in _KEYS:
            self.mention_counts.setdefault(key, 0)
            self.mentions_per_doc.setdefault(key, [])
            self.name_frequencies.setdefault(key, Counter())

    # -- derived measures ---------------------------------------------------

    @property
    def mean_doc_chars(self) -> float:
        return mean(self.doc_lengths)

    @property
    def mean_sentence_tokens(self) -> float:
        return mean(self.mean_sentence_lengths)

    def negation_per_1000_chars(self) -> list[float]:
        return [1000.0 * n / max(1, chars) for n, chars in
                zip(self.negations_per_doc, self.doc_lengths)]

    def coreference_pronouns_per_doc(self) -> list[int]:
        lists = [self.pronouns_per_doc.get(cls, [])
                 for cls in COREFERENCE_CLASSES]
        if not any(lists):
            return []
        length = max(len(lst) for lst in lists)
        return [sum(lst[i] if i < len(lst) else 0 for lst in lists)
                for i in range(length)]

    def distinct_names(self, entity_type: str, method: str) -> int:
        return len(self.name_frequencies[(entity_type, method)])

    def per_1000_sentences(self, entity_type: str,
                           method: str | None = None) -> float:
        """Mean entity mentions per 1000 sentences (Fig. 7 measure).

        ``method=None`` combines both annotation methods, as the paper
        does for the drug means.
        """
        if self.n_sentences == 0:
            return 0.0
        methods = [method] if method else ["dictionary", "ml"]
        total = sum(self.mention_counts[(entity_type, m)] for m in methods)
        return 1000.0 * total / self.n_sentences


def analyze_corpus(name: str, documents: Iterable[Document],
                   pipeline: TextAnalyticsPipeline,
                   with_pos: bool = False) -> CorpusStats:
    """Run the full analysis on each document and aggregate."""
    stats = CorpusStats(name=name)
    for document in pipeline.analyze_stream(documents, with_pos=with_pos):
        accumulate_document(stats, document)
    return stats


def accumulate_document(stats: CorpusStats, document: Document) -> None:
    """Fold one *already annotated* document into the stats."""
    stats.n_docs += 1
    stats.total_chars += len(document.text)
    stats.doc_lengths.append(len(document.text))
    stats.n_sentences += len(document.sentences or ())
    token_counts = [len(s.tokens) for s in document.sentences or ()
                    if s.tokens]
    if token_counts:
        stats.mean_sentence_lengths.append(mean(token_counts))
    negations = parentheses = 0
    pronouns: dict[str, int] = {}
    for mention in document.linguistics:
        if mention.category == "negation":
            negations += 1
        elif mention.category == "parenthesis":
            parentheses += 1
        elif mention.category == "pronoun":
            pronouns[mention.subtype] = pronouns.get(mention.subtype, 0) + 1
    stats.negations_per_doc.append(negations)
    stats.parentheses_per_doc.append(parentheses)
    for subtype, count in pronouns.items():
        stats.pronouns_per_doc.setdefault(subtype, []).append(count)
    per_doc: dict[tuple[str, str], int] = {key: 0 for key in _KEYS}
    for mention in document.entities:
        key = (mention.entity_type,
               "dictionary" if mention.method == "dictionary" else "ml")
        if key not in stats.mention_counts:
            continue
        stats.mention_counts[key] += 1
        per_doc[key] += 1
        stats.name_frequencies[key][mention.text.lower()] += 1
    for key, count in per_doc.items():
        stats.mentions_per_doc[key].append(count)


# -- comparisons -----------------------------------------------------------------


def compare_corpora(a: CorpusStats, b: CorpusStats) -> dict[str, float]:
    """Mann-Whitney-Wilcoxon p-values for the Fig. 6 properties."""
    comparisons = {
        "doc_length": (a.doc_lengths, b.doc_lengths),
        "sentence_length": (a.mean_sentence_lengths,
                            b.mean_sentence_lengths),
        "negation": (a.negation_per_1000_chars(),
                     b.negation_per_1000_chars()),
        "parentheses": (a.parentheses_per_doc, b.parentheses_per_doc),
        "coreference_pronouns": (a.coreference_pronouns_per_doc(),
                                 b.coreference_pronouns_per_doc()),
    }
    p_values = {}
    for measure, (sample_a, sample_b) in comparisons.items():
        if not sample_a or not sample_b:
            p_values[measure] = 1.0
            continue
        _u, p = mann_whitney_u(sample_a, sample_b)
        p_values[measure] = p
    return p_values


def jsd_between(a: CorpusStats, b: CorpusStats, entity_type: str,
                method: str = "dictionary") -> float:
    """Jensen-Shannon divergence of entity-name distributions."""
    dist_a = dict(a.name_frequencies[(entity_type, method)])
    dist_b = dict(b.name_frequencies[(entity_type, method)])
    if not dist_a or not dist_b:
        return 1.0
    return jensen_shannon_divergence(dist_a, dist_b)


def jsd_table(stats: Sequence[CorpusStats], method: str = "dictionary",
              ) -> dict[tuple[str, str, str], float]:
    """JSD for every corpus pair and entity type:
    (corpus_a, corpus_b, entity_type) -> JSD."""
    table = {}
    for a, b in combinations(stats, 2):
        for entity_type in ("disease", "drug", "gene"):
            table[(a.name, b.name, entity_type)] = jsd_between(
                a, b, entity_type, method)
    return table


def entity_overlap(stats: Sequence[CorpusStats], entity_type: str,
                   method: str = "dictionary") -> dict[tuple[str, ...], float]:
    """Venn-region percentages of distinct names across corpora (Fig. 8).

    Returns ``{(corpus names sharing the region...): percent}``; the
    percents over all non-empty regions sum to 100.
    """
    name_sets = {s.name: set(s.name_frequencies[(entity_type, method)])
                 for s in stats}
    union: set[str] = set()
    for names in name_sets.values():
        union |= names
    if not union:
        return {}
    regions: dict[tuple[str, ...], int] = {}
    for name in union:
        members = tuple(sorted(corpus for corpus, names in name_sets.items()
                               if name in names))
        regions[members] = regions.get(members, 0) + 1
    return {members: 100.0 * count / len(union)
            for members, count in sorted(regions.items())}


def overlap_fraction(a: CorpusStats, b: CorpusStats, entity_type: str,
                     method: str = "dictionary") -> float:
    """|A ∩ B| / |A ∪ B| of distinct names (the paper's "overlap")."""
    names_a = set(a.name_frequencies[(entity_type, method)])
    names_b = set(b.name_frequencies[(entity_type, method)])
    union = names_a | names_b
    if not union:
        return 0.0
    return len(names_a & names_b) / len(union)
