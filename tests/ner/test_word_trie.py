"""The word-unit trie equals the character automaton it replaced.

For every text and pattern list, :meth:`WordTrie.find_aligned` must
return exactly the oracle's word-aligned matches
(``aho_corasick_oracle``): same spans, same pattern ids, same order
(end, then longest first, then pattern id).  Checked over generated
corpora of every profile (run-on pathological pages included), over
rendered HTML pages, over random patterns and texts on an alphabet
rich in boundary characters, and over hand-made edge cases.  A batch
scan (:meth:`WordTrie.find_aligned_batch`) must equal a scan of each
text on its own.  The build deduplicates units through a dict, so CI
also runs this module under two hash seeds.
"""

from __future__ import annotations

import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from aho_corasick_oracle import AhoCorasickAutomaton
from repro.corpora.profiles import IRRELEVANT, MEDLINE, RELEVANT
from repro.corpora.textgen import DocumentGenerator
from repro.corpora.vocabulary import BiomedicalVocabulary
from repro.ner.automaton import BOUNDARY_CHARS, SEPARATOR, Match, WordTrie
from repro.ner.dictionary import (
    EntityDictionary, MultiTypeDictionary, fold_case, surface_table,
)
from repro.web.server import SimulatedWeb
from repro.web.webgraph import WebGraph, WebGraphConfig


def _oracle(patterns) -> AhoCorasickAutomaton:
    automaton = AhoCorasickAutomaton()
    automaton.add_all(patterns)
    automaton.build()
    return automaton


def _assert_equal(patterns, texts) -> int:
    """Trie and oracle agree on every text; returns the match count."""
    trie, oracle = WordTrie.build(patterns), _oracle(patterns)
    found = 0
    for text in texts:
        got = trie.find_aligned(text)
        assert got == oracle.find_aligned(text, BOUNDARY_CHARS), text[:80]
        found += len(got)
    return found


def _merged_patterns(vocabulary: BiomedicalVocabulary) -> list[str]:
    """The pattern list a pipeline's one trie is built over."""
    return [surface for etype in ("disease", "drug", "gene")
            for surface in EntityDictionary(
                etype, surface_table(vocabulary.entries(etype))).patterns]


@pytest.fixture(scope="module")
def patterns(vocabulary) -> list[str]:
    return _merged_patterns(vocabulary)


class TestCorpora:
    @pytest.mark.parametrize("seed", [7, 31])
    @pytest.mark.parametrize("profile", [RELEVANT, IRRELEVANT, MEDLINE],
                             ids=lambda profile: profile.name)
    def test_generated_documents(self, vocabulary, patterns, profile, seed):
        generator = DocumentGenerator(vocabulary, profile, seed=seed,
                                      pathological_fraction=0.3)
        texts = [fold_case(gold.text) for gold in generator.documents(12)]
        found = _assert_equal(patterns, texts)
        assert found > 0 or not profile.biomedical

    def test_rendered_pages(self, vocabulary, patterns):
        """Raw HTML: tags, attributes, entities and scripts around the
        text, where '<', '>', '"' and '/' are all boundaries."""
        graph = WebGraph(WebGraphConfig(n_hosts=10, seed=9),
                         vocabulary=vocabulary)
        web = SimulatedWeb(graph, seed=6)
        pages = [web.fetch(url, now=0.0).body
                 for url in sorted(graph.pages)[:60]]
        texts = [fold_case(page) for page in pages if page]
        assert len(texts) > 30
        assert _assert_equal(patterns, texts) > 0

    def test_scale_30_vocabulary(self):
        """A vocabulary of ~3x the default's names (the merged patterns
        of ``scale=30``) on generated text of every profile."""
        vocabulary = BiomedicalVocabulary(seed=5, scale=30)
        patterns = _merged_patterns(vocabulary)
        assert len(patterns) > 70_000
        texts = [fold_case(gold.text)
                 for profile in (RELEVANT, MEDLINE, IRRELEVANT)
                 for gold in DocumentGenerator(
                     vocabulary, profile, seed=3,
                     pathological_fraction=0.2).documents(4)]
        assert _assert_equal(patterns, texts) > 0

    def test_default_vocabulary(self):
        """The production dictionary (24 264 patterns) on its own
        generated text."""
        vocabulary = BiomedicalVocabulary(seed=19)
        generator = DocumentGenerator(vocabulary, RELEVANT, seed=31,
                                      pathological_fraction=0.2)
        texts = [fold_case(gold.text) for gold in generator.documents(10)]
        assert _assert_equal(_merged_patterns(vocabulary), texts) > 0


#: Boundary characters (space, apostrophe, parenthesis, full stop) and
#: a non-boundary hyphen, so units are short and plentiful.
_ALPHABET = "ab -'(."


@given(st.lists(st.text(alphabet=_ALPHABET, min_size=1, max_size=6),
                min_size=1, max_size=10),
       st.text(alphabet=_ALPHABET, max_size=40))
@example(["a a a", "a a", "a"], "a a a a")
@example(["a", "a b", "a b-a"], "a b-a b a")
@example(["a", "a"], "(a) a.")
@example(["(a", "a.", " a ", ".", "'"], "(a. a a'(a a.")
@example(["a-", "-a", "a--b"], "a- -a a--b a-")
@settings(max_examples=400, deadline=None)
def test_property_equals_oracle(patterns, text):
    """Duplicates (one surface under two types), unit prefixes of
    other patterns, repeated units, and patterns that start or end
    with a boundary character all come up."""
    _assert_equal(patterns, [text])


class TestBatch:
    PATTERNS = ["a b", "b", "(a", "a.", ".", "b a", "x"]

    def _assert_batch(self, texts):
        trie = WordTrie.build(self.PATTERNS)
        assert trie.find_aligned_batch(texts) == [
            trie.find_aligned(text) for text in texts]
        return trie.find_aligned_batch(texts)

    def test_empty_batch_and_empty_texts(self):
        assert WordTrie.build(self.PATTERNS).find_aligned_batch([]) == []
        assert self._assert_batch(["", "", ""]) == [[], [], []]
        found = self._assert_batch(["", "b", "", "a b", ""])
        assert found[1] == [Match(0, 1, 1)] and found[3][-1].end == 3

    def test_texts_that_start_or_end_on_a_boundary_unit(self):
        found = self._assert_batch(["(a b", ".", "a.", " b ", "b."])
        assert Match(0, 2, 2) in found[0]
        assert found[1] == [Match(0, 1, 4)]
        assert Match(0, 2, 3) in found[2]

    def test_no_match_across_the_separator(self):
        """``"a"`` then ``"b"`` would spell the pattern ``"a b"`` over a
        space; ``"b"`` then ``"a"`` would spell ``"b a"``.  The joining
        separator is a boundary character no pattern contains."""
        found = self._assert_batch(["a", "b", "a", "b a", "x"])
        assert all(match.end - match.start == 1
                   for matches in found[:3] for match in matches)
        assert found[0] == []

    def test_separator_in_a_pattern_is_refused(self):
        with pytest.raises(ValueError, match="separator"):
            WordTrie.build(["a", "a" + SEPARATOR + "b"])

    def test_offsets_index_each_text(self):
        trie = WordTrie.build(["tp53"])
        assert trie.find_aligned_batch(["x tp53", "tp53", "y", "tp53 z"]) \
            == [[Match(2, 6, 0)], [Match(0, 4, 0)], [], [Match(0, 4, 0)]]


@given(st.lists(st.text(alphabet=_ALPHABET, min_size=1, max_size=6),
                min_size=1, max_size=10),
       st.lists(st.text(alphabet=_ALPHABET, max_size=20), max_size=6))
@settings(max_examples=300, deadline=None)
def test_property_batch_equals_each_text(patterns, texts):
    """One walk over the joined batch finds, per text, what the oracle
    finds in that text alone."""
    oracle = _oracle(patterns)
    assert WordTrie.build(patterns).find_aligned_batch(texts) == [
        oracle.find_aligned(text, BOUNDARY_CHARS) for text in texts]


class TestEdges:
    def test_empty_text(self):
        assert WordTrie.build(["a"]).find_aligned("") == []

    def test_no_patterns(self):
        assert WordTrie.build([]).find_aligned("a b") == []

    def test_matches_at_both_text_edges(self):
        trie = WordTrie.build(["tp53", "brca1"])
        assert trie.find_aligned("tp53 binds brca1") == [
            Match(0, 4, 0), Match(11, 16, 1)]
        assert trie.find_aligned("tp53") == [Match(0, 4, 0)]

    def test_not_inside_a_word(self):
        trie = WordTrie.build(["tp53", "p5"])
        assert trie.find_aligned("xtp53 tp53x tp53-x atp53") == []

    def test_dotted_capital_i(self):
        """``fold_case`` keeps the length, so offsets index the
        original text on both sides of an ``İ``."""
        text = "İstanbul patients took aspirin; İ aspirin-İ."
        folded = fold_case(text)
        patterns = ["aspirin", "istanbul", "i", "aspirin-i"]
        assert _assert_equal(patterns, [folded]) == 4
        spans = [text[m.start:m.end]
                 for m in WordTrie.build(patterns).find_aligned(folded)]
        assert spans == ["İstanbul", "aspirin", "İ", "aspirin-İ"]

    def test_order_is_end_then_longest_then_id(self):
        trie = WordTrie.build(["b c", "c", "a b c", "c"])
        assert trie.find_aligned("a b c") == [
            Match(0, 5, 2), Match(2, 5, 0), Match(4, 5, 1), Match(4, 5, 3)]

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            WordTrie.build(["a", ""])


class TestFootprint:
    def test_a_shared_payload_counts_once(self):
        payload = ("gene", "G:1", "abc")
        shared = WordTrie.build(["abc", "abcs"], [payload, payload])
        copied = WordTrie.build(["abc", "abcs"],
                                [payload, tuple(list(payload))])
        assert copied.approx_memory_bytes() - \
            shared.approx_memory_bytes() == sys.getsizeof(payload)

    def test_estimate_within_2x_of_retained(self):
        """``approx_memory_bytes`` feeds the simulated cluster's
        dictionary memory; it must land within 0.5x-2x of what a
        default-vocabulary build keeps alive (tracemalloc)."""
        vocabulary = BiomedicalVocabulary(seed=19)
        dictionaries = [
            EntityDictionary(etype, surface_table(vocabulary.entries(etype)))
            for etype in ("disease", "drug", "gene")]
        tracemalloc.start()
        try:
            merged = MultiTypeDictionary(dictionaries)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert merged.n_patterns > 20_000
        assert 0.5 * retained <= merged.approx_memory_bytes() <= 2 * retained

    def test_one_node_per_distinct_unit_prefix(self):
        # root, "a", "a"+" ", "a"+" "+"b", "c"
        assert WordTrie.build(["a b", "a", "c", "a b"]).n_nodes == 5
