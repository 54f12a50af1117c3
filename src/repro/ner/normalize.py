"""Entity normalization: link mentions to dictionary identifiers.

The Sopremo IE package includes operators "for merging annotations
using different schemes"; the scheme merge that matters here is
linking ML-recognized surface forms to dictionary term ids so that
dictionary and CRF annotations count the same underlying entity once.
Dictionary mentions already carry ids; ML mentions are linked by fuzzy
lookup in the vocabulary's surface tables
(:func:`~repro.ner.dictionary.vocabulary_surfaces`), the ones the
dictionary trie is built from: they are expanded once per process, not
once per normalizer, so an entity store's normalizer costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.annotations import Document, EntityMention
from repro.corpora.vocabulary import BiomedicalVocabulary, TermEntry
from repro.ner.dictionary import fold_case, vocabulary_surfaces


@dataclass
class NormalizationStats:
    """Outcome counts of one normalization pass."""

    linked: int = 0
    already_linked: int = 0
    unlinked: int = 0


class EntityNormalizer:
    """Surface-form → term-id resolver over one vocabulary.

    Unlike the trie, it also resolves the short and the stopword
    surfaces the trie's patterns leave out.
    """

    def __init__(self, vocabulary: BiomedicalVocabulary) -> None:
        self._tables = {entity_type: vocabulary_surfaces(vocabulary,
                                                         entity_type)
                        for entity_type in ("gene", "drug", "disease")}

    def resolve(self, entity_type: str, surface: str) -> TermEntry | None:
        """The dictionary entry for a surface form, if any."""
        table = self._tables.get(entity_type, {})
        folded = fold_case(surface)
        return table.get(folded) or table.get(folded.replace("-", " "))

    def normalize(self, document: Document) -> NormalizationStats:
        """Fill ``term_id`` on linkable mentions, in place."""
        stats = NormalizationStats()
        normalized: list[EntityMention] = []
        for mention in document.entities:
            if mention.term_id:
                stats.already_linked += 1
                normalized.append(mention)
                continue
            entry = self.resolve(mention.entity_type, mention.text)
            if entry is None:
                stats.unlinked += 1
                normalized.append(mention)
            else:
                stats.linked += 1
                normalized.append(replace(mention, term_id=entry.term_id))
        document.entities = normalized
        return stats


def merge_by_term(document: Document) -> list[EntityMention]:
    """Cross-scheme merge: one mention per (span, resolved identity).

    A dictionary hit and an ML hit on the same span and term collapse
    into a single mention (dictionary provenance wins); unlinked ML
    mentions stay separate.  Returns (and installs) the merged list.
    """
    best: dict[tuple[int, int, str, str], EntityMention] = {}
    for mention in document.entities:
        identity = mention.term_id or f"surface:{mention.text.lower()}"
        key = (mention.start, mention.end, mention.entity_type, identity)
        current = best.get(key)
        if current is None or (current.method != "dictionary"
                               and mention.method == "dictionary"):
            best[key] = mention
    merged = sorted(best.values(), key=lambda m: (m.start, m.end))
    document.entities = merged
    return merged
