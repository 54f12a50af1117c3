"""The CRF's word-type table: ``predict_words`` against the oracle.

With the context-window templates a position's features are the
disjoint union of three one-word groups, so the frozen model scores
each word *type* once (three ``L``-float rows) and a token's emission
is a sum of three table rows.  The contract is label equality with
``crf_oracle.predict_reference`` over ``sentence_features``; the
mechanism properties pinned here are that a row depends on (word,
model) only —
not on batch composition, fill order, the table bound or the thread
that scored it — and that a warm table does no feature work at all.
"""

import sys
import threading

import pytest
from banner_oracle import BannerTagger, quadratic_sentence_features
from crf_oracle import predict_reference
from hypothesis import given, settings, strategies as st

import repro.ner.crf as crf_module
from repro.ner.crf import bio_to_spans
from repro.ner.features import (
    extract_features, next_features, previous_features, self_features,
    sentence_features,
)
from repro.ner.taggers import MlEntityTagger
from repro.nlp.sentence import split_sentences
from repro.nlp.tokenize import tokenize

#: Words the training text never saw, chosen to hit every template
#: branch: case, digits, hyphens, short caps, punctuation, a lowercase
#: form longer than the word ("İ"), and the boundary markers' own
#: spelling as ordinary tokens.
_ODD_WORDS = ["<bos>", "<eos>", "İ", "İSTANBUL", "ǅ", "BRCA1", "p53",
              "TNF", "Nf-kB", "x-9", "42", "...", "-", "a", "Zq",
              "straße", "ΑΒΓ"]


@pytest.fixture(scope="module")
def trained(medline_generator):
    """(linear-template CRF, a vocabulary of seen words)."""
    gold = [medline_generator.document(i) for i in range(10)]
    tagger = MlEntityTagger.train("gene", gold, max_iterations=12)
    seen = sorted({token.text for document in gold
                   for sentence in document.sentences
                   for token in sentence.tokens})
    return tagger.crf, seen


def _reference(crf, sentences):
    return [predict_reference(crf, sentence_features(words))
            for words in sentences]


def _corpus(seen, n_sentences=40, seed=0):
    import random
    rng = random.Random(seed)
    pool = seen[:60] + _ODD_WORDS
    return [[rng.choice(pool) for _ in range(rng.randint(1, 12))]
            for _ in range(n_sentences)]


class TestTemplateGroups:
    @given(st.lists(st.sampled_from(_ODD_WORDS + ["the", "Gene", "of"]),
                    min_size=1, max_size=6))
    def test_union_of_groups_is_extract_features(self, words):
        for i, word in enumerate(words):
            groups = (self_features(word)
                      + previous_features(words[i - 1] if i else None)
                      + next_features(words[i + 1] if i + 1 < len(words)
                                      else None))
            # Disjoint: nothing for the CRF's per-position dedup to do.
            assert len(groups) == len(set(groups))
            assert set(groups) == set(extract_features(words, i))

    def test_boundary_is_not_a_word(self):
        assert previous_features(None) != previous_features("<bos>")
        assert next_features(None) != next_features("<eos>")


class TestPredictWords:
    def test_matches_reference_property(self, trained):
        crf, seen = trained
        words = st.sampled_from(seen[:40] + _ODD_WORDS) | st.text(
            max_size=6)

        @settings(max_examples=150, deadline=None)
        @given(st.lists(st.lists(words, max_size=9), max_size=6))
        def check(sentences):
            assert crf.predict_words(sentences) == \
                _reference(crf, sentences)

        check()

    def test_degenerate_shapes(self, trained):
        crf, _seen = trained
        sentences = [[], ["<bos>"], ["<eos>", "<bos>"], [], ["İ"],
                     ["a", "a", "a"], []]
        assert crf.predict_words(sentences) == _reference(crf, sentences)
        assert crf.predict_words([]) == []
        assert crf.predict_words([[], []]) == [[], []]
        assert "<bos>" in crf._frozen.type_ids  # a word row, not row 0

    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            crf_module.LinearChainCrf().predict_words([["a"]])

    def test_rows_do_not_depend_on_batch_or_fill_order(self, trained):
        crf, seen = trained
        corpus = _corpus(seen)
        types = sorted({word for words in corpus for word in words})

        def rows_after(*batches):
            crf.freeze()
            for batch in batches:
                crf.predict_words(batch)
            frozen = crf._frozen
            return {word: frozen.type_table[row].tobytes()
                    for word, row in frozen.type_ids.items()}

        together = rows_after(corpus)
        reordered = rows_after(corpus[::-1][:7], [list(reversed(words))
                                                  for words in corpus])
        assert sorted(together) == sorted(reordered) == types
        for word in types:
            alone = rows_after([[word]])
            assert alone == {word: together[word]}
            assert alone == {word: reordered[word]}

    def test_warm_table_probes_no_features(self, trained):
        crf, seen = trained
        corpus = _corpus(seen, seed=1)
        crf.freeze()
        frozen = crf._frozen
        probes = []
        index_get = frozen.index_get

        def counting(feature):
            probes.append(feature)
            return index_get(feature)

        frozen.index_get = counting
        cold = crf.predict_words(corpus)
        n_types = len({word for words in corpus for word in words})
        assert len(frozen.type_ids) == n_types
        assert 0 < len(probes) <= 15 * n_types
        del probes[:]
        assert crf.predict_words(corpus) == cold
        assert probes == []
        assert len(frozen.type_ids) == n_types

    def test_bound_is_respected_and_labels_unchanged(self, trained,
                                                     monkeypatch):
        crf, seen = trained
        corpus = _corpus(seen, seed=2)
        expected = _reference(crf, corpus)
        monkeypatch.setattr(crf_module, "TYPE_TABLE_ROWS", 8)
        crf.freeze()
        frozen = crf._frozen
        assert crf.predict_words(corpus) == expected
        # Full now: every further batch runs on call-local rows.
        for start in range(0, len(corpus), 5):
            batch = corpus[start:start + 5]
            assert crf.predict_words(batch) == expected[start:start + 5]
            assert len(frozen.type_table) <= 8
            assert len(frozen.type_ids) == 7
        monkeypatch.undo()
        crf.freeze()

    def test_refreeze_drops_stale_rows(self, trained):
        crf, seen = trained
        corpus = _corpus(seen, seed=3)
        before = crf.predict_words(corpus)
        original = crf.state_weights
        try:
            crf.state_weights = -original
            crf.freeze()
            assert not crf._frozen.type_ids
            after = crf.predict_words(corpus)
            assert after == _reference(crf, corpus)
            assert after != before
        finally:
            crf.state_weights = original
            crf.freeze()

    def test_threads_race_on_a_cold_table(self, trained):
        crf, seen = trained
        corpus = _corpus(seen, n_sentences=120, seed=4)
        expected = _reference(crf, corpus)
        crf.freeze()
        assert crf.predict_words(corpus) == expected
        # Overlapping slices, one sentence a call: lookups interleave
        # with other threads' admissions and table growth.  (Publishing
        # an id before its row fails this about two runs in three.)
        slices = [corpus[i * 20:i * 20 + 60] for i in range(4)]
        results: list = [None] * 4
        barrier = threading.Barrier(4)

        def work(slot):
            barrier.wait(timeout=10)
            results[slot] = [crf.predict_words([words])[0]
                             for words in slices[slot]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _round in range(100):
                crf.freeze()
                results[:] = [None] * 4
                threads = [threading.Thread(target=work, args=(slot,))
                           for slot in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                for slot in range(4):
                    assert results[slot] == \
                        expected[slot * 20:slot * 20 + 60]
        finally:
            sys.setswitchinterval(interval)
        frozen = crf._frozen
        ids = sorted(frozen.type_ids.values())
        assert ids == list(range(1, len(ids) + 1))
        single = {word: frozen.type_table[row].tobytes()
                  for word, row in frozen.type_ids.items()}
        crf.freeze()
        crf.predict_words(corpus)
        frozen = crf._frozen
        for word, row_bytes in single.items():
            assert frozen.type_table[
                frozen.type_ids[word]].tobytes() == row_bytes


class TestTaggerPaths:
    """``MlEntityTagger`` decodes through the type table, the
    quadratic-template ``BannerTagger`` oracle through feature
    strings, and both equal their reference."""

    @pytest.mark.parametrize("quadratic", [False, True])
    def test_tagger_equals_reference(self, medline_generator, quadratic):
        gold = [medline_generator.document(i) for i in range(8)]
        tagger = (BannerTagger if quadratic else MlEntityTagger).train(
            "gene", gold, max_iterations=10)
        features = (quadratic_sentence_features if quadratic
                    else sentence_features)
        calls = []
        for name in ("predict_words", "predict_batch"):
            def spy(batch, _name=name,
                    _inner=getattr(tagger.crf, name)):
                calls.append(_name)
                return _inner(batch)
            setattr(tagger.crf, name, spy)
        for i in range(8, 12):
            document = medline_generator.document(i).document.copy_shallow()
            document.sentences = None
            expected = []
            for sentence in split_sentences(document.text):
                tokens = tokenize(sentence.text, base_offset=sentence.start)
                words = [token.text for token in tokens]
                if not words:
                    continue
                labels = predict_reference(tagger.crf, features(words))
                expected += [(tokens[a].start, tokens[b - 1].end)
                             for a, b in bio_to_spans(labels)]
            got = [(m.start, m.end) for m in tagger.annotate(document)]
            assert got == expected
        assert set(calls) == {"predict_batch" if quadratic
                              else "predict_words"}


def test_freeze_allocates_only_the_boundary_row(trained):
    """The table fills on first sight of a type, not at model build."""
    crf, _seen = trained
    crf.freeze()
    table = crf._frozen.type_table
    assert table.shape == (1, 3, crf.n_labels)
    assert not table[0, 0].any()  # the boundary has no self part
