"""Equivalence tests for the compiled (array-based) POS Viterbi kernel.

The compiled kernel must reproduce the dict-based decoder of
``tests/nlp/pos_oracle.py`` exactly — same tags, same crash
behaviour — across randomized seeded models, whether it was compiled
by ``freeze()`` or on first use.
"""

import random

import pytest

from repro.nlp.pos_hmm import HmmPosTagger, TaggerCrash
from tests.nlp.pos_oracle import candidate_tags, tag_reference

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
    reference = [tag_reference(tagger, s) for s in sentences]
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
        [tag_reference(tagger, s) for s in sentences]


def test_crash_parity_on_long_sentences(medline_generator):
    tagger = HmmPosTagger()
    tagger.train(medline_generator.document(0).tagged_sentences())
    long_sentence = ["word"] * 601
    with pytest.raises(TaggerCrash):
        tag_reference(tagger, long_sentence)
    tagger.freeze()
    with pytest.raises(TaggerCrash):
        tagger.tag(long_sentence)


def test_incremental_training_invalidates_freeze():
    tagger = HmmPosTagger()
    tagger.train([[("the", "DT"), ("cats", "NNS")]])
    tagger.freeze()
    assert tagger.frozen
    tagger.train([[("dogs", "NNS"), ("run", "VB")]])
    assert not tagger.frozen
    assert tagger.tag(["the", "cats"]) == \
        tag_reference(tagger, ["the", "cats"])


def test_untrained_freeze_raises():
    with pytest.raises(RuntimeError):
        HmmPosTagger().freeze()


def test_candidate_tags_returns_immutable_tuple():
    tagger = HmmPosTagger()
    tagger.train([[("the", "DT"), ("cats", "NNS")]])
    candidates = candidate_tags(tagger, "the")
    assert isinstance(candidates, tuple)
    unknown = candidate_tags(tagger, "never-seen-zzz")
    assert isinstance(unknown, tuple)
    assert set(unknown) == set(tagger.tags)


def test_first_use_compiles_and_retraining_drops_it():
    """A tagger that is never frozen compiles on its first ``tag``;
    retraining drops the compiled form, and the next ``tag`` and
    ``tag_batch`` decode the retrained counts."""
    rng = random.Random(23)
    tagger = HmmPosTagger()
    tagger.train(_random_training(rng, 60))
    sentences = _random_test_sentences(rng, 30)
    assert not tagger.frozen
    assert [tagger.tag(s) for s in sentences] == \
        [tag_reference(tagger, s) for s in sentences]
    assert tagger.frozen
    before = [tagger.tag(s) for s in sentences]
    tagger.train(_random_training(random.Random(29), 120))
    assert not tagger.frozen
    after = [tag_reference(tagger, s) for s in sentences]
    assert after != before  # the retrained counts decode differently
    assert [tagger.tag(s) for s in sentences] == after
    assert tagger.frozen
    tagger.train([[("zzqx", "NN")]])
    assert not tagger.frozen
    assert tagger.tag_batch(sentences) == \
        [tag_reference(tagger, s) for s in sentences]
    assert tagger.frozen
