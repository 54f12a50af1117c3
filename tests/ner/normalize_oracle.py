"""Test oracle: the private index every normalizer used to build.

Production normalizers read the vocabulary's shared surface tables
(:func:`~repro.ner.dictionary.vocabulary_surfaces`), expanded once per
process.  This is the path that replaced: each normalizer walks every
entry, name and :func:`~repro.ner.dictionary.expand_term` variant of
the three entity types into its own ``(entity_type, surface) -> entry``
index, the first entry to produce a surface keeping it.  The
equivalence suite in ``test_normalize.py`` holds ``resolve`` to it.
"""

from __future__ import annotations

from repro.corpora.vocabulary import BiomedicalVocabulary, TermEntry
from repro.ner.dictionary import expand_term, fold_case

Index = dict[tuple[str, str], TermEntry]


def build_index(vocabulary: BiomedicalVocabulary) -> Index:
    """One normalizer's private index over ``vocabulary``."""
    index: Index = {}
    for entity_type in ("gene", "drug", "disease"):
        for entry in vocabulary.entries(entity_type):
            for name in entry.all_names():
                for surface in expand_term(name):
                    index.setdefault((entity_type, surface), entry)
    return index


def resolve_reference(index: Index, entity_type: str,
                      surface: str) -> TermEntry | None:
    """The entry for a surface form: the folded form, then the form
    with its hyphens read as spaces."""
    folded = fold_case(surface)
    entry = index.get((entity_type, folded))
    if entry is not None:
        return entry
    return index.get((entity_type, folded.replace("-", " ")))
