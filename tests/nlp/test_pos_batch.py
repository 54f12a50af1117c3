"""Equivalence tests for the batched POS decode path.

``tag_batch`` must be bit-identical to mapping per-sentence ``tag``
over the batch — same tags, same tie-breaking, same crash
semantics — at any batch composition: mixed lengths, empty sentences,
duplicates, unknown shapes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.pos_hmm import HmmPosTagger, TaggerCrash
from tests.nlp.pos_oracle import tag_reference

TAGS = ["NN", "NNS", "VB", "VBD", "JJ", "DT", "IN", "CC", "."]
WORDS = ["the", "a", "study", "studies", "patient", "patients", "shows",
         "showed", "response", "dose", "large", "small", "of", "in",
         "and", "p53", "alpha-2", "TNF", ".", ","]
UNKNOWNS = ["zzqx", "Xenovir", "WHO", "42", "p27-kip", "run-of-9",
            "μg", "Unseen"]


def _random_training(rng, n_sentences):
    sentences = []
    for _ in range(n_sentences):
        length = rng.randint(1, 14)
        sentences.append([(rng.choice(WORDS), rng.choice(TAGS))
                          for _ in range(length)])
    return sentences


def _random_batch(rng, n_sentences, allow_empty=False):
    sentences = []
    for _ in range(n_sentences):
        length = rng.randint(0 if allow_empty else 1, 16)
        pool = WORDS if rng.random() < 0.5 else WORDS + UNKNOWNS
        sentences.append([rng.choice(pool) for _ in range(length)])
    return sentences


def _trained(seed, n_sentences=120, freeze=True):
    tagger = HmmPosTagger()
    tagger.train(_random_training(random.Random(seed), n_sentences))
    if freeze:
        tagger.freeze()
    return tagger


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_frozen_batch_matches_per_sentence(seed):
    tagger = _trained(seed)
    batch = _random_batch(random.Random(seed + 100), 60,
                          allow_empty=True)
    assert tagger.tag_batch(batch) == [tagger.tag(s) for s in batch]


def test_batch_matches_reference_kernel():
    tagger = _trained(7)
    batch = _random_batch(random.Random(77), 40)
    assert tagger.tag_batch(batch) == \
        [tag_reference(tagger, s) for s in batch]


@given(st.lists(st.lists(st.sampled_from(WORDS + UNKNOWNS),
                         max_size=12), max_size=10))
@settings(max_examples=60, deadline=None)
def test_batch_equivalence_property(batch):
    tagger = _TAGGER
    assert tagger.tag_batch(batch) == [tagger.tag(s) for s in batch]


_TAGGER = _trained(13)


def test_unfrozen_batch_matches_per_sentence():
    tagger = _trained(5, freeze=False)
    batch = _random_batch(random.Random(55), 20)
    assert not tagger.frozen
    assert tagger.tag_batch(batch) == [tagger.tag(s) for s in batch]


def test_empty_and_singleton_batches():
    tagger = _trained(8)
    assert tagger.tag_batch([]) == []
    assert tagger.tag_batch([[]]) == [[]]
    sentence = ["the", "patient", "showed", "response"]
    assert tagger.tag_batch([sentence]) == [tagger.tag(sentence)]


def test_batch_crash_on_over_limit_sentence(monkeypatch):
    tagger = HmmPosTagger(crash_token_limit=5)
    tagger.train([[("w", "NN")] * 3])
    tagger.freeze()
    decoded = []
    monkeypatch.setattr(type(tagger._frozen), "decode",
                        lambda _kernel, words: decoded.append(words))
    with pytest.raises(TaggerCrash):
        tagger.tag_batch([["w"] * 2, ["w"] * 6])
    # Every sentence is checked before the first decode.
    assert decoded == []


def test_untrained_batch_raises():
    with pytest.raises(RuntimeError):
        HmmPosTagger().tag_batch([["w"]])
