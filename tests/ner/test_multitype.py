"""Merged multi-type dictionary: one scan, per-type-identical output.

The load-bearing property is union equivalence: for every text, the
merged trie's per-type mention lists — and each
:class:`DictionaryTagger` over it — must equal, spans, types, term ids
and order included, what each type's own automaton produces
(``dictionary_oracle``).
"""

import gc
import hashlib
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from dictionary_oracle import OracleDictionary, per_type_scan
from repro.annotations import Document
from repro.corpora.vocabulary import BiomedicalVocabulary, TermEntry
from repro.ner.automaton import WordTrie
from repro.ner.dictionary import (
    DictionaryTagger, EntityDictionary, MultiTypeDictionary, fold_case,
    shared_dictionary, surface_table,
)
from repro.ner.taggers import build_dictionary_taggers

#: Term pools with deliberate cross-type surface collisions ("malexia"
#: is both a drug and a disease; "abraxol" both a drug and a gene) and
#: shared prefixes/suffixes to stress overlap resolution.
_POOLS = {
    "disease": ["carditis", "neuropathy", "malexia", "fibrosis-2"],
    "drug": ["abraxol", "zintamab", "corvex-9", "malexia"],
    "gene": ["brca1", "tp53", "abraxol", "nf-kb", "corvex"],
}
_FILLER = ["alpha", "beta", "the", "dose", "of", "regulates"]
_SURFACES = [w for pool in _POOLS.values() for w in pool]


def _dictionaries(chosen: dict[str, list[str]]) -> list[EntityDictionary]:
    return [
        EntityDictionary(etype, surface_table(
            [TermEntry(term, (), f"{etype[0].upper()}:{i}")
             for i, term in enumerate(terms)]))
        for etype, terms in chosen.items() if terms]


class TestScanEquivalence:
    TEXT = ("The dose of Abraxol and corvex 9 reduced malexia; "
            "BRCA1 and nf-kb regulate corvex-9 but not zintamabs.")

    def test_scan_matches_per_type_reference(self):
        dictionaries = _dictionaries(_POOLS)
        merged = MultiTypeDictionary(dictionaries)
        scan = merged.scan(self.TEXT)
        assert scan == per_type_scan(dictionaries, self.TEXT)

    def test_shared_surface_fires_once_per_type(self):
        """A surface in two dictionaries keeps one pattern id per
        owning type, so both types report the hit."""
        dictionaries = _dictionaries({"drug": ["malexia"],
                                      "disease": ["malexia"]})
        merged = MultiTypeDictionary(dictionaries)
        scan = merged.scan("malexia was observed.")
        assert [m.entity_type for m in scan["drug"]] == ["drug"]
        assert [m.entity_type for m in scan["disease"]] == ["disease"]
        assert scan["drug"][0].span == scan["disease"][0].span

    def test_per_type_overlap_resolution_is_independent(self):
        """gene "corvex" and drug "corvex-9" overlap in the text; each
        type must resolve against its own matches only."""
        dictionaries = _dictionaries({"gene": ["corvex"],
                                      "drug": ["corvex-9"]})
        merged = MultiTypeDictionary(dictionaries)
        scan = merged.scan("corvex-9 binds corvex.")
        assert scan == per_type_scan(dictionaries, "corvex-9 binds corvex.")
        assert [m.text for m in scan["drug"]] == ["corvex-9"]

    def test_single_type_merge_matches_component(self):
        dictionaries = _dictionaries({"gene": _POOLS["gene"]})
        merged = MultiTypeDictionary(dictionaries)
        assert merged.scan(self.TEXT) == per_type_scan(dictionaries,
                                                       self.TEXT)


class TestConstruction:
    def test_entity_types_sorted(self):
        merged = MultiTypeDictionary(_dictionaries(_POOLS))
        assert merged.entity_types == ("disease", "drug", "gene")

    def test_duplicate_type_rejected(self):
        twice = _dictionaries({"gene": ["brca1"]}) + \
            _dictionaries({"gene": ["tp53"]})
        with pytest.raises(ValueError):
            MultiTypeDictionary(twice)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MultiTypeDictionary([])

    def test_build_is_booked_onto_the_types_by_pattern_count(self):
        dictionaries = _dictionaries(_POOLS)
        merged = MultiTypeDictionary(dictionaries)
        assert sum(merged.memory_share(d.entity_type)
                   for d in dictionaries) == merged.approx_memory_bytes()
        assert sum(d.build_seconds for d in dictionaries) == \
            pytest.approx(merged.build_seconds)
        for dictionary in dictionaries:
            assert dictionary.build_seconds == pytest.approx(
                merged.build_seconds * dictionary.n_patterns
                / merged.n_patterns)

    def test_footprint_is_measured_on_first_read_only(self, monkeypatch):
        calls = []
        measure = WordTrie.approx_memory_bytes
        monkeypatch.setattr(WordTrie, "approx_memory_bytes",
                            lambda trie: calls.append(trie) or measure(trie))
        dictionaries = _dictionaries(_POOLS)
        merged = MultiTypeDictionary(dictionaries)
        assert calls == []
        total = merged.approx_memory_bytes()
        assert sum(merged.memory_share(d.entity_type)
                   for d in dictionaries) == total
        assert len(calls) == 1

    def test_a_dropped_dictionary_is_freed_without_the_cycle_collector(self):
        """No type points back at the merged dictionary, so its trie goes
        with its last reference even where the cyclic GC is off (the
        crawl pool's coordinator)."""
        merged = MultiTypeDictionary(_dictionaries(_POOLS))
        merged.memory_share("gene")
        dropped = weakref.ref(merged)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del merged
            assert dropped() is None
        finally:
            if enabled:
                gc.enable()

    def test_an_entry_shares_one_payload_across_its_surfaces(self):
        entry = TermEntry("corvex-9", ("cvx",), "D:1")
        merged = MultiTypeDictionary([
            EntityDictionary("drug", surface_table([entry])),
            EntityDictionary("gene", surface_table([entry]))])
        payloads = merged._trie.payloads
        assert len(payloads) == 2 * merged.dictionaries["drug"].n_patterns
        assert len({id(payload) for payload in payloads}) == 2
        assert set(payloads) == {("drug", "D:1", "corvex-9"),
                                 ("gene", "D:1", "corvex-9")}


class TestPayloadCache:
    PATTERNS = ["brca1", "malexia", "tp53"]
    PAYLOADS = [("gene", "G:0", "BRCA1"), ("disease", "D:0", "Malexia"),
                ("gene", "G:1", "TP53")]

    def test_payload_count_must_match(self):
        with pytest.raises(ValueError):
            WordTrie.build(self.PATTERNS, self.PAYLOADS[:2])

    def test_default_vocabulary_key_is_pinned(self):
        """The default vocabulary's pattern list and payload table, by
        sha256: a change to either changes what a dictionary scan of
        any text may find."""
        merged = shared_dictionary(build_dictionary_taggers(
            BiomedicalVocabulary()).values())
        patterns = [surface for dictionary in merged.dictionaries.values()
                    for surface in dictionary.patterns]
        payloads = hashlib.sha256()
        for payload in merged._trie.payloads:
            payloads.update("\x1f".join(map(str, payload)).encode("utf-8"))
            payloads.update(b"\x00")
        assert hashlib.sha256("\x00".join(patterns).encode("utf-8")) \
            .hexdigest() == ("6205f4b7dc1ba25a89ea44a08d658b37"
                             "98b65d81faaaab0445cbc1d154be23e2")
        assert payloads.hexdigest() == ("05b4a31362fb72ddbea04250fb739679"
                                        "ef03d507ca1e3e7d3351c201d7d4a8f1")


#: Case, hyphen/space and plural variants of the pool surfaces, and
#: words carrying U+0130 (İ), whose ``str.lower()`` is two characters.
_VARIANTS = ["Malexia", "corvex 9", "ABRAXOL", "brca1s", "nf kb", "nfkb",
             "fibrosis 2s", "TP53s", "İ", "İstanbul", "malexİa",
             "ABRAXOLİ"]
#: Word separators: boundaries, and non-boundaries ("-", "İ") that
#: glue neighbours into one word.
_SEPARATORS = [" ", " ", ", ", "-", "/", "İ"]


@st.composite
def _scenarios(draw):
    chosen = {etype: draw(st.lists(st.sampled_from(pool), unique=True,
                                   min_size=0, max_size=len(pool)))
              for etype, pool in _POOLS.items()}
    if not any(chosen.values()):
        chosen["gene"] = ["brca1"]
    words = draw(st.lists(st.sampled_from(_SURFACES + _FILLER + _VARIANTS),
                          min_size=1, max_size=25))
    separators = draw(st.lists(st.sampled_from(_SEPARATORS),
                               min_size=len(words), max_size=len(words)))
    text = "".join(word + separator
                   for word, separator in zip(words, separators))
    return chosen, text + "."


class TestPropertyUnionEquivalence:
    @given(_scenarios())
    @settings(max_examples=120, deadline=None)
    def test_property_merged_equals_per_type_union(self, scenario):
        chosen, text = scenario
        dictionaries = _dictionaries(chosen)
        merged = MultiTypeDictionary(dictionaries)
        scan = merged.scan(text)
        expected = per_type_scan(dictionaries, text)
        # Full equality: spans, surfaces, types, term ids, order.
        assert scan == expected
        assert set(scan) == {d.entity_type for d in dictionaries}

    @given(_scenarios())
    @settings(max_examples=120, deadline=None)
    def test_property_taggers_equal_oracle(self, scenario):
        chosen, text = scenario
        dictionaries = _dictionaries(chosen)
        merged = MultiTypeDictionary(dictionaries)
        for dictionary in dictionaries:
            etype = dictionary.entity_type
            document = Document("d", text)
            got = DictionaryTagger(merged, etype).annotate(document)
            expected = OracleDictionary(dictionary).annotate(
                Document("d", text))
            assert got == expected
            assert document.entities == expected
            # Offsets land on the matched characters, İ or not.
            surfaces = set(dictionary.patterns)
            assert all(fold_case(m.text) in surfaces for m in got)

    @given(_scenarios())
    @settings(max_examples=120, deadline=None)
    def test_property_matches_equal_oracle_before_resolution(
            self, scenario):
        """``matches`` (what the entity-aware classifier counts) is
        every word-aligned hit of each type, overlaps included, in the
        oracle's order."""
        chosen, text = scenario
        dictionaries = _dictionaries(chosen)
        matches = MultiTypeDictionary(dictionaries).matches(text)
        for dictionary in dictionaries:
            expected = OracleDictionary(dictionary).match(text)
            assert [(m.start, m.end)
                    for m in matches[dictionary.entity_type]] == \
                [(m.start, m.end) for m in expected]
