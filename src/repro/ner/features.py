"""Feature templates for CRF entity tagging.

Standard BANNER/ChemSpot-style token features: word identity, shape,
affixes, character classes, and a one-token context window.  The
optional ``quadratic_context`` template adds shape-pair conjunctions
between each token and *every* other token in the sentence — the kind
of rich global feature set that makes heavyweight ML taggers scale
quadratically with sentence length (the behaviour Fig. 3b of the
paper measures).
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


def _distance_bucket(d: int) -> str:
    if d <= 1:
        return "d1"
    if d <= 3:
        return "d3"
    if d <= 8:
        return "d8"
    return "dfar"


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


def extract_features(words: Sequence[str], position: int,
                     quadratic_context: bool = False) -> list[str]:
    """Feature strings for one token in its sentence.

    Without ``quadratic_context`` the result is the disjoint union of
    three groups that each read one word: :func:`self_features` of the
    token, :func:`previous_features` of its left neighbour and
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
    if quadratic_context:
        shape = token_shape(words[position])
        for other, other_word in enumerate(words):
            if other == position:
                continue
            features.append(
                f"pair={shape}|{token_shape(other_word)}"
                f"|{_distance_bucket(abs(other - position))}")
    return features


def sentence_features(words: Sequence[str],
                      quadratic_context: bool = False) -> list[list[str]]:
    """Features for every position of a sentence."""
    return [extract_features(words, i, quadratic_context)
            for i in range(len(words))]
