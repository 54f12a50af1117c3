"""Tests for the Aho-Corasick oracle, including an equivalence
property against naive multi-pattern search, and for the footprint of
the production trie (``test_word_trie.py`` holds the two equal)."""

import pytest
from hypothesis import given, settings, strategies as st

from aho_corasick_oracle import AhoCorasickAutomaton
from repro.ner.automaton import Match, WordTrie
from word_trie_oracle import WordTrie as PerNodeTrie


def _build(patterns):
    automaton = AhoCorasickAutomaton()
    automaton.add_all(patterns)
    automaton.build()
    return automaton


def _naive(patterns, text):
    found = set()
    for pattern_id, pattern in enumerate(patterns):
        start = 0
        while True:
            index = text.find(pattern, start)
            if index < 0:
                break
            found.add((index, index + len(pattern), pattern_id))
            start = index + 1
    return found


class TestBasics:
    def test_single_pattern(self):
        automaton = _build(["abc"])
        assert automaton.find_all("xxabcxxabc") == [
            Match(2, 5, 0), Match(7, 10, 0)]

    def test_overlapping_patterns(self):
        automaton = _build(["he", "she", "hers"])
        spans = {(m.start, m.end) for m in automaton.find_all("shers")}
        assert spans == {(1, 3), (0, 3), (1, 5)}

    def test_pattern_inside_pattern(self):
        automaton = _build(["a", "aa", "aaa"])
        assert len(automaton.find_all("aaa")) == 6

    def test_no_match(self):
        assert _build(["zzz"]).find_all("abcdef") == []

    def test_empty_text(self):
        assert _build(["a"]).find_all("") == []

    def test_unicode(self):
        automaton = _build(["naïve", "café"])
        assert len(automaton.find_all("a naïve café visit")) == 2

    def test_pattern_lookup(self):
        automaton = _build(["alpha", "beta"])
        match = automaton.find_all("beta")[0]
        assert automaton.pattern(match.pattern_id) == "beta"


class TestLifecycle:
    def test_add_after_build_rejected(self):
        automaton = _build(["a"])
        with pytest.raises(RuntimeError):
            automaton.add("b")

    def test_match_before_build_rejected(self):
        automaton = AhoCorasickAutomaton()
        automaton.add("a")
        with pytest.raises(RuntimeError):
            automaton.find_all("a")

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            AhoCorasickAutomaton().add("")

    def test_len_counts_patterns(self):
        assert len(_build(["a", "b", "c"])) == 3

    def test_memory_estimate_grows_with_patterns(self):
        small = WordTrie.build(["ab"])
        large = WordTrie.build([f"pattern{i}" for i in range(500)])
        assert large.approx_memory_bytes() > 50 * small.approx_memory_bytes()

    def test_build_never_holds_a_second_copy_of_the_trie(self):
        """The production trie is built straight into its arrays, so the
        construction high-water mark stays below what the per-node trie
        it replaced retained, and it keeps at most a third of that.
        (Its own retained bytes are now smaller than the build's unit
        table, so they cannot be the yardstick.)"""
        import tracemalloc

        patterns = [f"pattern {i:05d} suffix{i % 7}" for i in range(4000)]
        tracemalloc.start()
        try:
            per_node = PerNodeTrie.build(patterns)
            oracle, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del per_node
        tracemalloc.start()
        try:
            trie = WordTrie.build(patterns)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trie) == len(patterns)
        assert peak < 1.5 * oracle
        assert retained <= oracle / 3

    def test_node_count(self):
        automaton = _build(["ab", "ac"])
        # root + a + b + c
        assert automaton.n_nodes == 4


@given(st.lists(st.text(alphabet="ab", min_size=1, max_size=4),
                min_size=1, max_size=8, unique=True),
       st.text(alphabet="ab", max_size=60))
@settings(max_examples=200, deadline=None)
def test_property_equivalent_to_naive_search(patterns, text):
    automaton = _build(patterns)
    got = {(m.start, m.end, m.pattern_id)
           for m in automaton.find_all(text)}
    assert got == _naive(patterns, text)


@given(st.lists(st.text(alphabet="xyz ", min_size=1, max_size=6),
                min_size=1, max_size=10, unique=True))
@settings(max_examples=100, deadline=None)
def test_property_every_pattern_matches_itself(patterns):
    automaton = _build(patterns)
    for pattern_id, pattern in enumerate(patterns):
        matches = automaton.find_all(pattern)
        assert any(m.pattern_id == pattern_id
                   and (m.start, m.end) == (0, len(pattern))
                   for m in matches)
