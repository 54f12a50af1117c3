"""Direct Cavnar-Trenkle scoring — the test-only language oracle.

These are the implementations ``LanguageIdentifier`` ran before its
counting, ranking and scoring became C-level and array kernels: a
slicing loop counts the trigrams, ``Counter.most_common`` ranks them,
and each trained profile is scored by a per-gram out-of-place loop.
The kernels in :mod:`repro.nlp.language` must return the same
language for any text and any trained profiles
(``tests/nlp/test_language.py``); the crawler's document-stage oracle
(``tests/crawler/test_document_stage.py``) and the legacy arm of
``benchmarks/bench_crawl_throughput.py`` filter through it.
"""

from __future__ import annotations

from collections import Counter

from repro.nlp.language import LanguageIdentifier


def ngrams_reference(text: str, n: int = 3) -> Counter:
    """Character n-gram counts of the whitespace-normalised text."""
    padded = f" {' '.join(text.lower().split())} "
    counts: Counter = Counter()
    for i in range(len(padded) - n + 1):
        gram = padded[i:i + n]
        counts[gram] += 1
    return counts


def rank_profile_reference(counts: Counter, size: int) -> dict[str, int]:
    """Top-``size`` grams ranked by count, ties in first-seen order."""
    ranked = [g for g, _c in counts.most_common(size)]
    return {gram: rank for rank, gram in enumerate(ranked)}


def out_of_place(document: dict[str, int], profile: dict[str, int],
                 penalty: int) -> float:
    """Mean rank displacement of the document's grams in ``profile``;
    a gram the profile lacks costs ``penalty``."""
    distance = 0
    for gram, rank in document.items():
        distance += abs(profile.get(gram, penalty) - rank)
    return distance / max(1, len(document))


def detect_reference(identifier: LanguageIdentifier, text: str) -> str:
    """The closest trained language ('' when untrained or empty text);
    ties go to the language trained first."""
    if not identifier._profiles or not text.strip():
        return ""
    document_profile = rank_profile_reference(
        ngrams_reference(text), identifier.profile_size)
    best_language = ""
    best_distance = float("inf")
    for language, profile in identifier._profiles.items():
        distance = out_of_place(document_profile, profile,
                                identifier.profile_size)
        if distance < best_distance:
            best_distance = distance
            best_language = language
    return best_language
