"""Character-n-gram language identification (Cavnar-Trenkle).

The crawler's language filter: builds rank-ordered character trigram
profiles per language and classifies text by out-of-place distance to
each profile.  A default identifier pre-trained on the synthetic
English generator and the foreign word inventories ships with the
package.

Counting, ranking and scoring are C-level and array kernels;
``tests/nlp/language_oracle.py`` keeps the slicing-loop /
``most_common`` / per-profile implementations they replaced, and the
kernels must return the same language for any text.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from operator import itemgetter

import numpy as np

_PROFILE_SIZE = 300
#: Bits per code point in an integer trigram key (0x10FFFF < 2**21).
_CODE_BITS = 21


def _ngrams(text: str, n: int = 3) -> Counter:
    """Character n-gram counts of the whitespace-normalised text.

    Counts in C via ``Counter(iterable)``; the gram stream visits the
    same positions in the same order as a manual slicing loop, so the
    counter's contents *and insertion order* (which ``most_common`` tie
    -breaking depends on) match the oracle's slicing loop exactly.
    """
    padded = f" {' '.join(text.lower().split())} "
    if n == 3:
        return Counter(map("".join, zip(padded, islice(padded, 1, None),
                                        islice(padded, 2, None))))
    return Counter([padded[i:i + n] for i in range(len(padded) - n + 1)])


_BY_COUNT = itemgetter(1)


def _rank_profile(counts: Counter, size: int = _PROFILE_SIZE) -> dict[str, int]:
    """Top-``size`` grams ranked by count.

    ``sorted(..., reverse=True)[:size]`` is the documented equivalent
    of ``Counter.most_common(size)`` (``heapq.nlargest``) including tie
    order, and is measurably faster at profile sizes.
    """
    ranked = sorted(counts.items(), key=_BY_COUNT, reverse=True)[:size]
    return {gram: rank for rank, (gram, _c) in enumerate(ranked)}


class LanguageIdentifier:
    """Rank-order trigram profile classifier."""

    def __init__(self, profile_size: int = _PROFILE_SIZE) -> None:
        self.profile_size = profile_size
        self._profiles: dict[str, dict[str, int]] = {}
        #: (sorted integer trigram keys, one rank row per language with
        #: the penalty where it lacks the gram), rebuilt lazily after
        #: :meth:`train`; lets :meth:`detect` score every language with
        #: one ``searchsorted`` over the document profile.
        self._rank_table: tuple[np.ndarray, np.ndarray] | None = None

    def train(self, language: str, text: str) -> None:
        self._profiles[language] = _rank_profile(
            _ngrams(text), self.profile_size)
        self._rank_table = None

    @property
    def languages(self) -> list[str]:
        return sorted(self._profiles)

    def _ensure_rank_table(self) -> tuple[np.ndarray, np.ndarray]:
        if self._rank_table is None:
            absent = [self.profile_size] * len(self._profiles)
            columns: dict[int, list[int]] = {}
            for j, profile in enumerate(self._profiles.values()):
                for gram, rank in profile.items():
                    a, b, c = map(ord, gram)
                    key = a << 2 * _CODE_BITS | b << _CODE_BITS | c
                    columns.setdefault(key, absent.copy())[j] = rank
            keys = sorted(columns)
            # A last all-penalty column under a key above every trigram
            # is where the grams of no profile are sent.
            self._rank_table = (
                np.array(keys + [np.iinfo(np.int64).max], dtype=np.int64),
                np.array([columns[key] for key in keys] + [absent],
                         dtype=np.int64).T.copy())
        return self._rank_table

    def detect(self, text: str) -> str:
        """Return the closest language ('' when untrained or empty text).

        One array pass, decision-identical to the oracle's
        per-profile out-of-place loop: every trigram becomes
        ``dense id << shift | position`` over a per-document alphabet,
        so a single sort groups equal grams with their first occurrence
        leading each group; a second sort on
        ``(max count - count) << shift | first`` is the oracle's
        count-descending, first-seen-first profile order.  The
        arithmetic (integer sums, one final division) and the
        first-strictly-smaller tie-breaking over profile insertion
        order match the oracle bit for bit.
        """
        if not self._profiles or not text.strip():
            return ""
        padded = f" {' '.join(text.lower().split())} "
        codes = np.frombuffer(
            padded.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        n = len(codes) - 2
        shift = n.bit_length()
        position = (1 << shift) - 1
        # Dense ids for the code points present keep the packed key in
        # the narrowest integer type that holds it (Python ints beyond
        # 64 bits: tens of thousands of distinct characters).
        seen = np.zeros(int(codes.max()) + 1, dtype=bool)
        seen[codes] = True
        alphabet = np.flatnonzero(seen)
        k = len(alphabet)
        dtype = np.min_scalar_type((k ** 3 << shift) - 1)
        dense = np.empty(len(seen), dtype=dtype)
        dense[alphabet] = np.arange(k)
        ids = dense[codes]
        packed = ids[:-2] * k
        packed += ids[1:-1]
        packed *= k
        packed += ids[2:]
        packed <<= shift
        packed |= np.arange(n, dtype=dtype)
        packed.sort()
        grams = packed >> shift
        change = np.flatnonzero(grams[1:] != grams[:-1])
        bounds = np.empty(len(change) + 2, dtype=np.int64)
        bounds[0], bounds[1:-1], bounds[-1] = -1, change, n - 1
        bounds += 1
        starts = bounds[:-1]
        counts = bounds[1:] - starts
        # Two fields of ``shift`` bits: fits int64 below 2**31 trigrams.
        order = counts.max() - counts
        order <<= shift
        order |= (packed[starts] & position).astype(np.int64)
        order.sort()
        top = order[:self.profile_size] & position
        wide = codes.astype(np.int64)
        keys = (wide[top] << 2 * _CODE_BITS | wide[top + 1] << _CODE_BITS
                | wide[top + 2])
        table_keys, table_ranks = self._ensure_rank_table()
        found = np.searchsorted(table_keys, keys)
        found[table_keys[found] != keys] = len(table_keys) - 1
        distances = table_ranks[:, found]
        distances -= np.arange(len(top))
        totals = np.abs(distances, out=distances).sum(axis=1)
        best_language = ""
        best_distance = float("inf")
        for language, total in zip(self._profiles, totals.tolist()):
            distance = total / len(top)
            if distance < best_distance:
                best_distance = distance
                best_language = language
        return best_language

    def is_english(self, text: str) -> bool:
        return self.detect(text) == "en"


def default_identifier(seed: int = 3) -> LanguageIdentifier:
    """Identifier trained on synthetic English and the foreign pools."""
    import random

    from repro.corpora.foreign import FOREIGN_WORDS, generate_foreign_text
    from repro.corpora.profiles import IRRELEVANT, RELEVANT
    from repro.corpora.textgen import DocumentGenerator
    from repro.corpora.vocabulary import BiomedicalVocabulary

    identifier = LanguageIdentifier()
    vocabulary = BiomedicalVocabulary(seed=seed, n_genes=60, n_diseases=50,
                                      n_drugs=50)
    english_parts = []
    for profile in (RELEVANT, IRRELEVANT):
        generator = DocumentGenerator(vocabulary, profile, seed=seed)
        english_parts.extend(generator.text(i) for i in range(8))
    identifier.train("en", " ".join(english_parts))
    rng = random.Random(seed)
    for language in FOREIGN_WORDS:
        identifier.train(language,
                         generate_foreign_text(language, 20_000, rng))
    return identifier
