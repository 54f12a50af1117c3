"""Text classification for crawl focusing.

Bag-of-words features and a multinomial Naïve Bayes classifier — the
paper's choice for relevance classification during focused crawling,
picked for its robustness to class imbalance and its support for
incremental model updates (Section 2.1).
"""

from repro.classify.features import BagOfWords
from repro.classify.naive_bayes import NaiveBayesClassifier

__all__ = [
    "BagOfWords",
    "NaiveBayesClassifier",
]
