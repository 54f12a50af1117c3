"""Tests for the persistent dictionary-trie build cache."""

import marshal
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
        writes: the unit strings, the hash salt, a digest, and each
        flat array as ``(dtype, shape, bytes)``; marshal round-trips it
        to an equal trie."""
        state = _build(PATTERNS).to_state()
        assert set(state) == {"units", "salt", "arrays", "digest"}
        assert isinstance(state["units"], str)
        assert set(state["arrays"]) == {
            "unit_bounds", "keys", "out_bounds", "out_ids"}
        for dtype, shape, data in state["arrays"].values():
            assert isinstance(dtype, str) and isinstance(data, bytes)
            assert np.dtype(dtype).itemsize * int(np.prod(shape)) \
                == len(data)
        assert marshal.loads(marshal.dumps(state)) == state
        restored = WordTrie.from_state(marshal.loads(marshal.dumps(state)))
        assert restored.find_aligned("tnf and tp53") == \
            _build(PATTERNS).find_aligned("tnf and tp53")

    def test_arrays_are_read_only_built_and_loaded(self, tmp_path):
        """Nothing may write the arrays a forked worker shares: both a
        build and a cache load hand out read-only arrays."""
        cache = AutomatonCache(tmp_path)
        built, _ = cache.get_or_build(PATTERNS)
        loaded, hit = AutomatonCache(tmp_path).get_or_build(PATTERNS)
        assert hit
        for trie in (built, loaded):
            arrays = [value for value in vars(trie).values()
                      if isinstance(value, np.ndarray)]
            assert len(arrays) >= 7
            for array in arrays:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0

    def test_damaged_array_bytes_are_a_miss(self, tmp_path):
        """A changed byte inside an array still unmarshals; the state's
        digest refuses it, so the entry is a miss and is rebuilt."""
        cache = AutomatonCache(tmp_path)
        key = content_key(PATTERNS)
        cache.store(key, _build(PATTERNS))
        path = cache.path_for(key)
        payload = marshal.loads(path.read_bytes())
        dtype, shape, data = payload["state"]["arrays"]["keys"]
        payload["state"]["arrays"]["keys"] = (
            dtype, shape, bytes([data[0] ^ 1]) + data[1:])
        path.write_bytes(marshal.dumps(payload))
        fresh = AutomatonCache(tmp_path)
        assert fresh.load(key) is None
        trie, hit = fresh.get_or_build(PATTERNS)
        assert not hit
        assert trie.find_aligned("brca1 tp53") == \
            _build(PATTERNS).find_aligned("brca1 tp53")
        assert AutomatonCache(tmp_path).load(key) is not None

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


#: Writes (``write``) or loads (``load``) the cache entry of a small
#: dictionary in ``argv[2]`` and prints its matches on one text.
_CROSS_SEED = """
import sys
from repro.ner.cache import AutomatonCache
patterns = ["brca1", "tp53", "tumor necrosis factor", "tnf", "nf-kb",
            "(a)", "x.y"]
cache = AutomatonCache(sys.argv[2])
trie, hit = cache.get_or_build(patterns)
assert hit == (sys.argv[1] == "load"), (sys.argv[1], hit)
text = "tp53, brca1 and tumor necrosis factor (tnf) bind nf-kb (a) x.y"
print([(m.start, m.end, m.pattern_id) for m in trie.find_aligned(text)])
"""


def test_entry_written_under_one_hash_seed_serves_another(tmp_path):
    """Nothing in an entry derives from ``hash()``: a trie written under
    ``PYTHONHASHSEED=0`` loads as a hit under ``PYTHONHASHSEED=1`` and
    finds the same matches."""
    source = str(Path(__file__).resolve().parents[2] / "src")
    outputs = []
    for seed, mode in (("0", "write"), ("1", "load")):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [source, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", _CROSS_SEED, mode, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("(") > 5
