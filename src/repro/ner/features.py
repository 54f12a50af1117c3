"""Feature templates for CRF entity tagging.

Standard BANNER/ChemSpot-style token features: word identity, shape,
affixes, character classes, and a one-token context window.  Every
template reads one word, so a tagger's cost is linear in sentence
length.  BANNER's quadratic shape-pair template, which Fig. 3b of the
paper measures, is a benchmark arm (``tests/ner/banner_oracle.py``),
not a production option.
"""

from __future__ import annotations

from collections.abc import Sequence


def token_shape(word: str) -> str:
    if not word:
        return "empty"
    if word.isdigit():
        return "digits"
    if all(not c.isalnum() for c in word):
        return "punct"
    if word.isupper():
        return "tla" if len(word) == 3 else "allcaps"
    if word[0].isupper():
        return "init_cap"
    if any(c.isdigit() for c in word):
        return "alnum_mix"
    if "-" in word:
        return "hyphenated"
    return "lower"


def _length_bucket(n: int) -> str:
    if n <= 2:
        return "len<=2"
    if n <= 4:
        return "len<=4"
    if n <= 8:
        return "len<=8"
    return "len>8"


def self_features(word: str) -> list[str]:
    """Templates that read only the focus token."""
    lowered = word.lower()
    features = [
        f"w={lowered}",
        f"shape={token_shape(word)}",
        f"suf3={lowered[-3:]}",
        f"suf4={lowered[-4:]}",
        f"pre3={lowered[:3]}",
        f"pre4={lowered[:4]}",
        _length_bucket(len(word)),
        "bias",
    ]
    if any(c.isdigit() for c in word):
        features.append("has_digit")
    if "-" in word:
        features.append("has_hyphen")
    if word.isupper() and 2 <= len(word) <= 5:
        features.append("short_caps")
    return features


def previous_features(word: str | None) -> list[str]:
    """Templates the token *after* ``word`` derives from it; ``None``
    is the sentence start."""
    if word is None:
        return ["w-1=<bos>"]
    return [f"w-1={word.lower()}", f"shape-1={token_shape(word)}"]


def next_features(word: str | None) -> list[str]:
    """Templates the token *before* ``word`` derives from it; ``None``
    is the sentence end."""
    if word is None:
        return ["w+1=<eos>"]
    return [f"w+1={word.lower()}", f"shape+1={token_shape(word)}"]


def extract_features(words: Sequence[str], position: int) -> list[str]:
    """Feature strings for one token in its sentence.

    The result is the disjoint union of three groups that each read
    one word: :func:`self_features` of the token,
    :func:`previous_features` of its left neighbour and
    :func:`next_features` of its right one.  The CRF's type table
    (:meth:`~repro.ner.crf.LinearChainCrf.predict_words`) scores the
    same three functions per word type, so training, the
    feature-string decoder and the table share one definition of the
    templates.
    """
    features = self_features(words[position])
    features += previous_features(
        words[position - 1] if position > 0 else None)
    features += next_features(
        words[position + 1] if position + 1 < len(words) else None)
    return features


def sentence_features(words: Sequence[str]) -> list[list[str]]:
    """Features for every position of a sentence."""
    return [extract_features(words, i) for i in range(len(words))]
