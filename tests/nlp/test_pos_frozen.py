"""Equivalence tests for the frozen (array-based) POS Viterbi kernel.

The frozen kernel must reproduce the reference dict-based decoder
exactly — same tags, same crash behaviour — across randomized seeded
models.
"""

import random

import pytest

from repro.nlp.pos_hmm import HmmPosTagger, TaggerCrash

TAGS = ["NN", "NNS", "VB", "VBD", "JJ", "DT", "IN", "CC", "."]
WORDS = ["the", "a", "study", "studies", "patient", "patients", "shows",
         "showed", "response", "dose", "large", "small", "of", "in",
         "and", "p53", "alpha-2", "TNF", ".", ","]


def _random_training(rng, n_sentences):
    sentences = []
    for _ in range(n_sentences):
        length = rng.randint(1, 14)
        sentences.append([(rng.choice(WORDS), rng.choice(TAGS))
                          for _ in range(length)])
    return sentences


def _random_test_sentences(rng, n_sentences):
    """Mix of known words and unknown shapes (digits, caps, mixed)."""
    unknowns = ["zzqx", "Xenovir", "WHO", "42", "p27-kip", "run-of-9",
                "μg", "Unseen"]
    sentences = []
    for _ in range(n_sentences):
        length = rng.randint(1, 16)
        pool = WORDS if rng.random() < 0.5 else WORDS + unknowns
        sentences.append([rng.choice(pool) for _ in range(length)])
    return sentences


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_frozen_matches_reference_randomized(seed):
    rng = random.Random(seed)
    tagger = HmmPosTagger()
    tagger.train(_random_training(rng, 150))
    sentences = _random_test_sentences(rng, 80)
    reference = [tagger.tag_reference(s) for s in sentences]
    tagger.freeze()
    assert tagger.frozen
    assert [tagger.tag(s) for s in sentences] == reference


def test_unfrozen_tag_matches_reference():
    rng = random.Random(11)
    tagger = HmmPosTagger()
    tagger.train(_random_training(rng, 60))
    sentences = _random_test_sentences(rng, 30)
    assert not tagger.frozen
    assert [tagger.tag(s) for s in sentences] == \
        [tagger.tag_reference(s) for s in sentences]


def test_crash_parity_on_long_sentences(medline_generator):
    tagger = HmmPosTagger()
    tagger.train(medline_generator.document(0).tagged_sentences())
    long_sentence = ["word"] * 601
    with pytest.raises(TaggerCrash):
        tagger.tag_reference(long_sentence)
    tagger.freeze()
    with pytest.raises(TaggerCrash):
        tagger.tag(long_sentence)


def test_incremental_training_invalidates_freeze():
    tagger = HmmPosTagger()
    tagger.train([[("the", "DT"), ("cats", "NNS")]])
    tagger.freeze()
    assert tagger.frozen
    first_fingerprint = tagger.fingerprint()
    tagger.train([[("dogs", "NNS"), ("run", "VB")]])
    assert not tagger.frozen
    assert tagger.fingerprint() != first_fingerprint
    assert tagger.tag(["the", "cats"]) == \
        tagger.tag_reference(["the", "cats"])


def test_untrained_freeze_raises():
    with pytest.raises(RuntimeError):
        HmmPosTagger().freeze()


def test_candidate_tags_returns_immutable_tuple():
    tagger = HmmPosTagger()
    tagger.train([[("the", "DT"), ("cats", "NNS")]])
    candidates = tagger._candidate_tags("the")
    assert isinstance(candidates, tuple)
    unknown = tagger._candidate_tags("never-seen-zzz")
    assert isinstance(unknown, tuple)
    assert set(unknown) == set(tagger.tags)


def test_fingerprint_is_stable_and_content_addressed():
    first = HmmPosTagger()
    second = HmmPosTagger()
    training = _random_training(random.Random(10), 50)
    first.train(training)
    second.train(training)
    assert first.fingerprint() == second.fingerprint()
    third = HmmPosTagger()
    third.train(_random_training(random.Random(99), 50))
    assert third.fingerprint() != first.fingerprint()
