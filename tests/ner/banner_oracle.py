"""BANNER's quadratic shape-pair template — the Fig. 3b benchmark arm.

The paper's Fig. 3b measures BANNER, the slowest of its entity
taggers, whose cost grows superlinearly with sentence length: every
token carries a conjunction of its shape with the shape of *every*
other token in the sentence.  The production taggers
(:mod:`repro.ner.taggers`) use only the one-word context-window
templates of :mod:`repro.ner.features` and decode through the CRF's
word-type table.  This module keeps the quadratic template, and a
tagger that trains on it and decodes through the CRF's feature-string
interface (``LinearChainCrf.predict_batch``), for the Fig. 3b runtime
benchmarks (``benchmarks/bench_fig3_tool_runtimes.py``) and for the
tests that hold the CRF's training and decode kernels to their oracles
on a feature set whose features read the whole sentence.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.ner.crf import LinearChainCrf
from repro.ner.features import extract_features, token_shape
from repro.ner.taggers import MlEntityTagger, _bio_labels


def _distance_bucket(d: int) -> str:
    if d <= 1:
        return "d1"
    if d <= 3:
        return "d3"
    if d <= 8:
        return "d8"
    return "dfar"


def quadratic_features(words: Sequence[str], position: int) -> list[str]:
    """The context-window features of one token plus one ``pair=``
    feature per other token of its sentence."""
    features = extract_features(words, position)
    shape = token_shape(words[position])
    for other, other_word in enumerate(words):
        if other != position:
            features.append(
                f"pair={shape}|{token_shape(other_word)}"
                f"|{_distance_bucket(abs(other - position))}")
    return features


def quadratic_sentence_features(words: Sequence[str]) -> list[list[str]]:
    """Quadratic features for every position of a sentence."""
    return [quadratic_features(words, i) for i in range(len(words))]


class BannerTagger(MlEntityTagger):
    """An ``MlEntityTagger`` on the quadratic template.

    Splitting, tokenizing and span mapping are the production
    tagger's; only training features and decoding differ: the
    ``pair=`` features read the whole sentence, so a sentence's
    feature strings are built and decoded with ``predict_batch``
    instead of the word-type table.
    """

    @classmethod
    def train(cls, entity_type: str, gold_documents, l2: float = 0.2,
              max_iterations: int = 60) -> "BannerTagger":
        crf = LinearChainCrf(l2=l2, max_iterations=max_iterations).fit(
            [(quadratic_sentence_features(words),
              _bio_labels(sentence, gold, entity_type))
             for gold in gold_documents for sentence in gold.sentences
             if (words := [t.text for t in sentence.tokens])])
        return cls(entity_type, crf)

    def decode(self, sentences: Sequence[Sequence[str]]) -> list[list[str]]:
        return self.crf.predict_batch(
            [quadratic_sentence_features(words) for words in sentences])
