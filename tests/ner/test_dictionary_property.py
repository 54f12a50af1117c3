"""Property tests: dictionary tagging vs brute-force reference."""

import re

from hypothesis import given, settings, strategies as st

from repro.annotations import Document
from repro.corpora.vocabulary import TermEntry
from repro.ner.dictionary import (
    DictionaryTagger, EntityDictionary, MultiTypeDictionary, expand_term,
    surface_table,
)

_WORDS = ["alpha", "beta", "delta", "zeta"]
_TERMS = ["abraxol", "zintamab", "corvex-9", "brontase"]


def _tagger(entity_type, entries, **options):
    dictionary = EntityDictionary(entity_type, surface_table(entries),
                                  **options)
    return DictionaryTagger(MultiTypeDictionary([dictionary]), entity_type)


def _fold(text):
    """Per-character case fold: each character's first lower-case
    character, so offsets survive U+0130 (İ -> "i" + combining dot)."""
    return "".join(char.lower()[0] for char in text)


def _brute_force(text, patterns):
    """All word-aligned pattern occurrences, longest-wins overlap
    resolution, matching the dictionary taggers' semantics."""
    lowered = _fold(text)
    boundary = set(" \t\n\r.,;:!?()[]{}<>\"'`/\\|")
    hits = []
    for pattern in patterns:
        start = 0
        while True:
            index = lowered.find(pattern, start)
            if index < 0:
                break
            before_ok = index == 0 or lowered[index - 1] in boundary
            end = index + len(pattern)
            after_ok = end >= len(lowered) or lowered[end] in boundary
            if before_ok and after_ok:
                hits.append((index, end))
            start = index + 1
    hits.sort(key=lambda span: (-(span[1] - span[0]), span[0]))
    chosen = []
    for span in hits:
        if not any(span[0] < e and s < span[1] for s, e in chosen):
            chosen.append(span)
    return sorted(chosen)


@given(st.lists(st.sampled_from(_WORDS + _TERMS + ["Abraxol",
                                                   "corvex 9",
                                                   "zintamabs", "İ",
                                                   "zİntamab",
                                                   "İabraxol"]),
                min_size=1, max_size=25))
@settings(max_examples=150, deadline=None)
def test_property_dictionary_matches_brute_force(words):
    text = " ".join(words) + "."
    entries = [TermEntry(term, (), f"T:{i}")
               for i, term in enumerate(_TERMS)]
    tagger = _tagger("drug", entries, min_pattern_length=2)
    patterns = set()
    for entry in entries:
        patterns |= expand_term(entry.canonical)
    expected = _brute_force(text, patterns)
    document = Document("d", text)
    got = sorted((m.start, m.end) for m in tagger.annotate(document))
    assert got == expected


@given(st.text(alphabet="abzİ -", min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_property_mention_offsets_always_valid(text):
    entries = [TermEntry("ab", ()), TermEntry("za-b", ())]
    tagger = _tagger("gene", entries, min_pattern_length=2)
    surfaces = expand_term("ab") | expand_term("za-b")
    document = Document("d", text)
    for mention in tagger.annotate(document):
        assert text[mention.start:mention.end] == mention.text
        assert _fold(mention.text) in surfaces


@given(st.sampled_from(_TERMS),
       st.sampled_from(["upper", "plural", "hyphen_swap"]))
@settings(max_examples=60, deadline=None)
def test_property_fuzzy_variants_always_found(term, variant_kind):
    if variant_kind == "upper":
        surface = term.upper()
    elif variant_kind == "plural":
        surface = term + ("" if term.endswith("s") else "s")
    else:
        surface = term.replace("-", " ") if "-" in term else term
    text = f"The dose of {surface} was raised."
    tagger = _tagger("drug", [TermEntry(term, ())])
    document = Document("d", text)
    mentions = tagger.annotate(document)
    assert any(re.sub(r"[\s-]", "", m.text.lower())
               == re.sub(r"[\s-]", "", surface.lower())
               for m in mentions)
