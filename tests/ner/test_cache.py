"""Tests for the persistent dictionary-trie build cache."""

import marshal

from repro.ner.automaton import WordTrie
from repro.ner.cache import AutomatonCache, content_key
from repro.ner.dictionary import (
    DictionaryTagger, EntityDictionary, MultiTypeDictionary, surface_table,
)
from repro.corpora.vocabulary import TermEntry

PATTERNS = ["brca1", "brca2", "tp53", "tumor necrosis factor", "tnf"]


def _build(patterns):
    return WordTrie.build(patterns)


class TestContentKey:
    def test_deterministic(self):
        assert content_key(PATTERNS) == content_key(list(PATTERNS))

    def test_order_sensitive(self):
        assert content_key(PATTERNS) != content_key(PATTERNS[::-1])

    def test_any_change_changes_key(self):
        assert content_key(PATTERNS) != content_key(PATTERNS + ["egfr"])
        assert content_key(PATTERNS) != content_key(PATTERNS[:-1])

    def test_salt_separates_keys(self):
        assert content_key(PATTERNS) != content_key(PATTERNS, salt="v2")


class TestRoundTrip:
    def test_state_round_trip_preserves_matches(self):
        original = _build(PATTERNS)
        restored = WordTrie.from_state(original.to_state())
        text = "brca1 and tp53 regulate tumor necrosis factor (tnf)"
        assert restored.find_aligned(text) == original.find_aligned(text)
        assert len(restored.find_aligned(text)) == 4
        assert len(restored) == len(original)
        assert restored.n_nodes == original.n_nodes

    def test_state_is_marshal_primitives(self):
        """A trie only exists built, and its state is what the cache
        writes: marshal round-trips it to an equal trie."""
        state = _build(PATTERNS).to_state()
        assert marshal.loads(marshal.dumps(state)) == state

    def test_store_then_load(self, tmp_path):
        cache = AutomatonCache(tmp_path)
        key = content_key(PATTERNS)
        cache.store(key, _build(PATTERNS))
        loaded = AutomatonCache(tmp_path).load(key)
        assert loaded is not None
        assert loaded.find_aligned("tp53 near brca2") == \
            _build(PATTERNS).find_aligned("tp53 near brca2")


class TestGetOrBuild:
    def test_miss_then_hit(self, tmp_path):
        cache = AutomatonCache(tmp_path)
        first, hit1 = cache.get_or_build(PATTERNS)
        second, hit2 = cache.get_or_build(PATTERNS)
        assert (hit1, hit2) == (False, True)
        assert (cache.misses, cache.hits) == (1, 1)
        text = "tnf alpha and brca1"
        assert first.find_aligned(text) == second.find_aligned(text)

    def test_hit_across_cache_instances(self, tmp_path):
        AutomatonCache(tmp_path).get_or_build(PATTERNS)
        fresh = AutomatonCache(tmp_path)
        _, hit = fresh.get_or_build(PATTERNS)
        assert hit
        assert fresh.hits == 1

    def test_changed_dictionary_invalidates(self, tmp_path):
        cache = AutomatonCache(tmp_path)
        cache.get_or_build(PATTERNS)
        _, hit = cache.get_or_build(PATTERNS + ["egfr"])
        assert not hit
        assert cache.misses == 2

    def test_corrupt_file_rebuilds(self, tmp_path):
        cache = AutomatonCache(tmp_path)
        key = content_key(PATTERNS)
        cache.get_or_build(PATTERNS)
        cache.path_for(key).write_bytes(b"\x00garbage")
        fresh = AutomatonCache(tmp_path)
        automaton, hit = fresh.get_or_build(PATTERNS)
        assert not hit
        assert automaton.find_aligned("brca1") == \
            _build(PATTERNS).find_aligned("brca1")

    def test_clear_removes_entries(self, tmp_path):
        cache = AutomatonCache(tmp_path)
        cache.get_or_build(PATTERNS)
        assert cache.clear() == 1
        fresh = AutomatonCache(tmp_path)
        _, hit = fresh.get_or_build(PATTERNS)
        assert not hit


class TestDictionaryIntegration:
    @staticmethod
    def _entries():
        return [TermEntry(canonical=name, term_id=f"G{i}")
                for i, name in enumerate(["BRCA1", "TP53", "TNF-alpha"])]

    def _merged(self, cache=None):
        return MultiTypeDictionary(
            [EntityDictionary("gene", surface_table(self._entries()))],
            cache=cache)

    def test_cached_dictionary_identical_matches(self, tmp_path):
        cold = self._merged(AutomatonCache(tmp_path))
        warm = self._merged(AutomatonCache(tmp_path))
        assert not cold.cache_hit
        assert warm.cache_hit
        assert warm.dictionaries["gene"].cache_hit
        from repro.annotations import Document

        for text in ("brca1 binds tp53", "tnf alpha or TNF-alpha levels"):
            doc_a = Document(doc_id="a", text=text)
            doc_b = Document(doc_id="a", text=text)
            cold_mentions = DictionaryTagger(cold, "gene").annotate(doc_a)
            warm_mentions = DictionaryTagger(warm, "gene").annotate(doc_b)
            assert cold_mentions == warm_mentions

    def test_uncached_dictionary_still_works(self):
        dictionary = self._merged().dictionaries["gene"]
        assert not dictionary.cache_hit
        assert dictionary.build_seconds >= 0
