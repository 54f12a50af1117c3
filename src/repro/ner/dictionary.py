"""Fuzzy dictionary-based entity tagging (LINNAEUS analog).

Each dictionary term is expanded into a small set of surface variants
— the equivalent of the paper's "transform each dictionary term into a
regular expression" step (which "almost only affects very short word
suffixes"): case folding, hyphen/space alternation, and an optional
plural *s*.  A vocabulary is expanded once per process, into one
surface table per type (:func:`vocabulary_surfaces`) that the trie
build and every entity normalizer read.  The variants of *every*
entity type go into one
:class:`~repro.ner.automaton.WordTrie` over word units
(:class:`MultiTypeDictionary`), built once per pipeline and held by
every tagger, engine and classifier that scans for dictionary
entities, so matching stays one pass over the text's units regardless
of dictionary size or type count, and a process holds each pattern
once — the trie's build time and memory are the paper's
dictionary-load pitfall (Section 4.2).
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

from repro.annotations import Document, EntityMention
from repro.ner.automaton import Match, WordTrie
from repro.corpora.vocabulary import BiomedicalVocabulary, TermEntry


def fold_case(text: str) -> str:
    """``text.lower()``, one character for each character of ``text``.

    Match offsets in the folded text index the original, so the fold
    must not change length.  U+0130 (İ) is the only code point whose
    lower case is two characters ("i" plus a combining dot); it folds
    to a plain "i".
    """
    lowered = text.lower()
    if len(lowered) != len(text):
        lowered = text.replace("İ", "i").lower()
    return lowered


def _default_stopwords() -> frozenset[str]:
    """Common-English exclusion list.

    Short gene symbols collide with ordinary words once case-folded
    ("IT", "WAS", "CAN" — Leser & Hakenberg's "What makes a gene
    name?" problem); curated dictionaries drop such patterns, and so
    do we.
    """
    from repro.classify.features import STOPWORDS
    from repro.corpora import textgen

    words = set(STOPWORDS)
    for inventory in (textgen.NOUNS_BIO, textgen.NOUNS_GENERAL,
                      textgen.VERBS_3SG, textgen.VERBS_PAST,
                      textgen.VERBS_PLURAL, textgen.ADJECTIVES,
                      textgen.ADJECTIVES_GENERAL, textgen.ADVERBS,
                      textgen.PREPOSITIONS, textgen.DETERMINERS,
                      textgen.CONJUNCTIONS):
        words.update(word.lower() for word in inventory)
    return frozenset(words)


DEFAULT_STOPWORDS = _default_stopwords()


def expand_term(term: str) -> set[str]:
    """Surface variants of one dictionary term (all case-folded)."""
    lowered = fold_case(term)
    variants = {lowered}
    if "-" in lowered:
        variants.add(lowered.replace("-", " "))
        variants.add(lowered.replace("-", ""))
    if " " in lowered:
        variants.add(lowered.replace(" ", "-"))
    for variant in list(variants):
        if not variant.endswith("s"):
            variants.add(variant + "s")
    return variants


def surface_table(entries: Iterable[TermEntry],
                  fuzzy: bool = True) -> dict[str, TermEntry]:
    """``surface -> entry`` over every name of every entry.

    A name's surfaces are its :func:`expand_term` variants (just its
    case fold when not ``fuzzy``), in sorted order, and the first
    entry to produce a surface keeps it; the table's insertion order
    is therefore deterministic across processes, whatever the
    set-iteration order.  The one place a vocabulary is expanded.
    """
    table: dict[str, TermEntry] = {}
    for entry in entries:
        for name in entry.all_names():
            for surface in (sorted(expand_term(name)) if fuzzy
                            else (fold_case(name),)):
                table.setdefault(surface, entry)
    return table


def vocabulary_surfaces(vocabulary: BiomedicalVocabulary,
                        entity_type: str) -> dict[str, TermEntry]:
    """One type's :func:`surface_table`, built on first use and kept
    on ``vocabulary``: the pipeline's dictionary and every
    :class:`~repro.ner.normalize.EntityNormalizer` over that
    vocabulary read the same table.  Callers must not modify it."""
    table = vocabulary._surfaces.get(entity_type)
    if table is None:
        table = vocabulary._surfaces[entity_type] = surface_table(
            vocabulary.entries(entity_type))
    return table


class EntityDictionary:
    """The trie patterns of one entity type.

    ``surfaces`` is the type's :func:`surface_table`; the patterns are
    its surfaces in table order minus the short and the stopword ones,
    so the pattern list is deterministic.  Holds no trie:
    :class:`MultiTypeDictionary` compiles every type's patterns into
    the one trie a pipeline scans with, then books that build's time
    back onto each type in proportion to its pattern count
    (``build_seconds``), so per-type readers see shares that sum to the
    real build (the footprint's share is
    :meth:`MultiTypeDictionary.memory_share`).
    """

    def __init__(self, entity_type: str, surfaces: dict[str, TermEntry],
                 stopwords: frozenset[str] = DEFAULT_STOPWORDS,
                 min_pattern_length: int = 3) -> None:
        self.entity_type = entity_type
        #: ``surface -> entry``, shared and read-only.
        self.surfaces = surfaces
        self.patterns: list[str] = [
            surface for surface in surfaces
            if len(surface) >= min_pattern_length
            and surface not in stopwords]
        #: This type's share of the trie build — the "dictionary load"
        #: cost that lower-bounds task runtime in Section 4.2.
        self.build_seconds = 0.0

    @property
    def n_patterns(self) -> int:
        return len(self.patterns)


def _longest_non_overlapping(matches: list[Match]) -> list[Match]:
    """Greedy longest-match-wins overlap resolution."""
    ordered = sorted(matches, key=lambda m: (-(m.end - m.start), m.start))
    chosen: list[Match] = []
    occupied: list[tuple[int, int]] = []
    for match in ordered:
        if any(match.start < e and s < match.end for s, e in occupied):
            continue
        chosen.append(match)
        occupied.append((match.start, match.end))
    chosen.sort(key=lambda m: m.start)
    return chosen


class MultiTypeDictionary:
    """All entity types compiled into one trie: one scan per text.

    Merges the pattern lists of several single-type
    :class:`EntityDictionary` instances into one
    :class:`~repro.ner.automaton.WordTrie` whose per-pattern payloads
    carry ``(entity_type, term_id, canonical)`` (one tuple per type and
    entry, shared by all of the entry's surfaces), so each document is
    scanned once instead of once per type.  Overlap resolution stays
    *per type*: the types tag independently, so a type's mentions do
    not depend on which other types share the trie.

    A pipeline builds exactly one
    (:func:`~repro.ner.taggers.build_dictionary_taggers`), and its
    dictionary taggers, one-pass engines and entity-aware classifier
    all hold it.  The merged pattern list is canonical
    (entity types in sorted order; each type's surfaces in its
    dictionary's deterministic order), so every construction over the
    same type set builds the same trie.  Duplicate surfaces across
    types are retained — each keeps its own pattern id, so one hit
    position fires once per owning type.
    """

    def __init__(self, dictionaries: Iterable[EntityDictionary]) -> None:
        ordered = sorted(dictionaries, key=lambda d: d.entity_type)
        if len({d.entity_type for d in ordered}) != len(ordered):
            raise ValueError("duplicate entity types in merged dictionary")
        if not ordered:
            raise ValueError("merged dictionary needs at least one type")
        self.dictionaries = {d.entity_type: d for d in ordered}
        self.entity_types: tuple[str, ...] = tuple(
            d.entity_type for d in ordered)
        patterns: list[str] = []
        payloads: list[tuple[str, str, str]] = []
        for dictionary in ordered:
            etype, surfaces = dictionary.entity_type, dictionary.surfaces
            shared: dict[int, tuple[str, str, str]] = {}
            for surface in dictionary.patterns:
                entry = surfaces[surface]
                payload = shared.get(id(entry))
                if payload is None:
                    payload = shared[id(entry)] = (
                        etype, entry.term_id, entry.canonical)
                patterns.append(surface)
                payloads.append(payload)
        started = time.perf_counter()
        self._trie = WordTrie.build(patterns, payloads)
        self.build_seconds = time.perf_counter() - started
        self._memory_bytes: int | None = None
        # Book the build onto the types by pattern count.
        total = max(1, len(patterns))
        for dictionary in ordered:
            dictionary.build_seconds = (self.build_seconds
                                        * dictionary.n_patterns / total)

    @property
    def n_patterns(self) -> int:
        return len(self._trie)

    def approx_memory_bytes(self) -> int:
        """The trie's footprint, measured on the first call (only the
        operator memory hints and the benches read it)."""
        if self._memory_bytes is None:
            self._memory_bytes = self._trie.approx_memory_bytes()
        return self._memory_bytes

    def memory_share(self, entity_type: str) -> int:
        """``entity_type``'s share of :meth:`approx_memory_bytes` by
        pattern count, cut at cumulative counts so the shares sum to
        the whole exactly."""
        memory, total = self.approx_memory_bytes(), max(1, self.n_patterns)
        before = 0
        for etype, dictionary in self.dictionaries.items():
            through = before + dictionary.n_patterns
            if etype == entity_type:
                return memory * through // total - memory * before // total
            before = through
        raise KeyError(entity_type)

    def matches(self, text: str) -> dict[str, list[Match]]:
        """One pass over ``text``: every word-aligned match, per type,
        before overlap resolution (in end-position order)."""
        return self._matches([text])[0]

    def _matches(self, texts: Sequence[str],
                 ) -> list[dict[str, list[Match]]]:
        payloads = self._trie.payloads
        found = []
        for matches in self._trie.find_aligned_batch(
                [fold_case(text) for text in texts]):
            found.append({etype: [] for etype in self.entity_types})
            for match in matches:
                found[-1][payloads[match.pattern_id][0]].append(match)
        return found

    def scan(self, texts: str | Sequence[str]):
        """Per-type mention lists: one dict per text of a batch, from
        one pass over the whole batch (for one ``str``, its dict).

        :meth:`matches`, then each type resolves its own overlaps,
        longest match first.  (Within one type, two distinct patterns
        can never share a span — the per-type surface dedup guarantees
        it — so the greedy resolution has no order-dependent ties.)
        """
        batch = [texts] if isinstance(texts, str) else texts
        payloads = self._trie.payloads
        scans = [{etype: [
            EntityMention(text=text[match.start:match.end],
                          start=match.start, end=match.end,
                          entity_type=etype, method="dictionary",
                          term_id=payloads[match.pattern_id][1])
            for match in _longest_non_overlapping(matches)]
            for etype, matches in per_type.items()}
            for text, per_type in zip(batch, self._matches(batch))]
        return scans[0] if isinstance(texts, str) else scans


class DictionaryTagger:
    """One entity type's tagger over the shared trie."""

    method = "dictionary"

    def __init__(self, shared: MultiTypeDictionary,
                 entity_type: str) -> None:
        self.shared = shared
        self.entity_type = entity_type
        self.dictionary = shared.dictionaries[entity_type]

    def annotate(self, document: Document) -> list[EntityMention]:
        """Tag a document; extends ``document.entities`` in place."""
        mentions = self.shared.scan(document.text)[self.entity_type]
        document.entities.extend(mentions)
        return mentions

    def startup_seconds(self) -> float:
        return self.dictionary.build_seconds


def shared_dictionary(taggers: Iterable[DictionaryTagger],
                      ) -> MultiTypeDictionary | None:
    """The one dictionary every tagger in ``taggers`` holds (None for
    no taggers); taggers holding different ones raise ``ValueError``."""
    shared = {id(tagger.shared): tagger.shared for tagger in taggers}
    if len(shared) > 1:
        raise ValueError(
            f"dictionary taggers hold {len(shared)} different tries; "
            f"build them together with build_dictionary_taggers")
    return next(iter(shared.values()), None)
