"""Table-free Naive Bayes scoring — the test-only classifier oracle.

``NaiveBayesClassifier.log_odds`` serves scores from a per-word
log-ratio table, and ``BagOfWords.vector`` counts words with one
C-level ``findall``.  Here are the computations they replaced: a
match-at-a-time word counter and the direct per-word log-probability
sum.  The production pair must agree with them bit for bit
(``tests/classify/test_log_ratio_table.py``); the legacy arm of
``benchmarks/bench_crawl_throughput.py`` classifies through them.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.classify.features import _WORD_RE, STOPWORDS, BagOfWords
from repro.classify.naive_bayes import NaiveBayesClassifier


def vector_reference(features: BagOfWords, text: str) -> Counter:
    """Word-count vector of ``text``, one regex match at a time."""
    counts: Counter = Counter()
    for match in _WORD_RE.finditer(text.lower()):
        word = match.group()
        if len(word) < features.min_length:
            continue
        if features.use_stopwords and word in STOPWORDS:
            continue
        counts[word] += 1
    return counts


def log_odds_reference(model: NaiveBayesClassifier, text: str) -> float:
    """log P(relevant | text) - log P(irrelevant | text), computed
    from the model's counts with no precomputed table."""
    if not model.trained:
        raise RuntimeError("classifier needs examples of both classes")
    vector = vector_reference(model.features, text)
    vocab_size = max(1, len(model._vocabulary))
    total_docs = model._class_docs[True] + model._class_docs[False]
    score = (math.log(model._class_docs[True] / total_docs)
             - math.log(model._class_docs[False] / total_docs))
    for word, count in vector.items():
        if word not in model._vocabulary:
            continue
        p_pos = (model._word_counts[True][word] + model.smoothing) / (
            model._class_words[True] + model.smoothing * vocab_size)
        p_neg = (model._word_counts[False][word] + model.smoothing) / (
            model._class_words[False] + model.smoothing * vocab_size)
        score += count * (math.log(p_pos) - math.log(p_neg))
    return score
