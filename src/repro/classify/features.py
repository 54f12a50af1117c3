"""Bag-of-words feature extraction."""

from __future__ import annotations

import re
from collections import Counter

_WORD_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9'-]+")

#: A compact English stopword list; stopwords carry no topical signal
#: and inflate the vocabulary.
STOPWORDS = frozenset("""
a an and are as at be but by for from has have in is it its of on or
that the this to was were will with not no nor neither which who whom
these those they them their we our you your he she his her
""".split())


class BagOfWords:
    """Tokenizes text into a lower-cased word-count vector.

    ``min_length`` drops very short tokens; ``use_stopwords`` filters
    the embedded stopword list (recommended for topical
    classification).
    """

    def __init__(self, min_length: int = 2,
                 use_stopwords: bool = True) -> None:
        self.min_length = min_length
        self.use_stopwords = use_stopwords

    def vector(self, text: str) -> Counter:
        """Word-count vector of ``text``.

        Tokenizes with one C-level ``findall`` and counts via
        ``Counter(iterable)``; the token stream, filters, and therefore
        the counter's contents *and insertion order* match a
        match-at-a-time loop (``tests/classify/classifier_oracle.py``)
        exactly.  The tokenizer pattern never yields a token shorter
        than two characters, so the length check is skipped at the
        default ``min_length``.
        """
        words = _WORD_RE.findall(text.lower())
        min_length = self.min_length
        if self.use_stopwords:
            if min_length > 2:
                return Counter(word for word in words
                               if len(word) >= min_length
                               and word not in STOPWORDS)
            return Counter(word for word in words
                           if word not in STOPWORDS)
        if min_length > 2:
            return Counter(word for word in words
                           if len(word) >= min_length)
        return Counter(words)
