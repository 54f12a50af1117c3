"""Test oracle: one type's dictionary scanned by its own automaton.

Production compiles every entity type into one
:class:`~repro.ner.dictionary.MultiTypeDictionary` and scans a text
once for all of them, over word units.  This is the path that
replaced: each type builds a character-level Aho-Corasick automaton
(``aho_corasick_oracle``) over its own
:class:`~repro.ner.dictionary.EntityDictionary` patterns, folds the
text, keeps every word-aligned occurrence and resolves overlaps among
its own matches.  The equivalence suites hold the shared scan, the
taggers over it and the entity-aware classifier's evidence to it.
"""

from __future__ import annotations

from aho_corasick_oracle import AhoCorasickAutomaton
from repro.annotations import Document, EntityMention
from repro.ner.automaton import Match
from repro.ner.dictionary import (
    EntityDictionary, _longest_non_overlapping, fold_case,
)

BOUNDARY_CHARS = frozenset(" \t\n\r.,;:!?()[]{}<>\"'`/\\|")


class OracleDictionary:
    """One entity type tagged by a private automaton."""

    def __init__(self, dictionary: EntityDictionary) -> None:
        self.entity_type = dictionary.entity_type
        self.entries = [dictionary.surfaces[surface]
                        for surface in dictionary.patterns]
        self._automaton = AhoCorasickAutomaton()
        self._automaton.add_all(dictionary.patterns)
        self._automaton.build()

    def match(self, text: str) -> list[Match]:
        """All word-aligned matches in ``text`` (case-folded)."""
        return self._automaton.find_aligned(fold_case(text), BOUNDARY_CHARS)

    def annotate(self, document: Document) -> list[EntityMention]:
        """Tag a document; extends ``document.entities`` in place."""
        mentions = []
        for match in _longest_non_overlapping(self.match(document.text)):
            mentions.append(EntityMention(
                text=document.text[match.start:match.end],
                start=match.start, end=match.end,
                entity_type=self.entity_type, method="dictionary",
                term_id=self.entries[match.pattern_id].term_id))
        document.entities.extend(mentions)
        return mentions


def per_type_scan(dictionaries, text: str) -> dict[str, list[EntityMention]]:
    """Each dictionary tags ``text`` on its own automaton."""
    return {dictionary.entity_type:
            OracleDictionary(dictionary).annotate(Document("oracle", text))
            for dictionary in dictionaries}
