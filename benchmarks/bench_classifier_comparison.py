"""Generative vs discriminative relevance models.

The paper justifies Naïve Bayes by class-imbalance robustness and
incremental updates; this bench quantifies the comparison against a
streaming logistic-regression model on the same gold data and under
class imbalance.
"""

import functools

from reporting import format_table, write_report

from benchmarks.arms.logistic import LogisticTextClassifier
from repro.classify.naive_bayes import NaiveBayesClassifier
from repro.corpora.goldstandard import build_classifier_gold
from repro.evaluation import cross_validate, mean_precision_recall


def test_nb_vs_logistic(ctx, benchmark):
    gold = build_classifier_gold(ctx.vocabulary, 150)
    nb_factory = functools.partial(NaiveBayesClassifier,
                                   decision_threshold=0.5)
    lr_factory = functools.partial(LogisticTextClassifier, epochs=4)
    nb_reports = benchmark.pedantic(
        lambda: cross_validate(nb_factory, gold, folds=5),
        rounds=1, iterations=1)
    lr_reports = cross_validate(lr_factory, gold, folds=5)
    nb_p, nb_r = mean_precision_recall(nb_reports)
    lr_p, lr_r = mean_precision_recall(lr_reports)

    # Class imbalance: 1 relevant to 5 irrelevant (no rational prior on
    # the biomedical share of a crawl, per the paper).
    relevant = [ex for ex in gold if ex[1]][:25]
    irrelevant = [ex for ex in gold if not ex[1]][:125]
    imbalanced = [pair for group in zip(relevant, irrelevant[::5])
                  for pair in group] + irrelevant
    nb_ip, nb_ir = mean_precision_recall(
        cross_validate(nb_factory, imbalanced, folds=5))
    lr_ip, lr_ir = mean_precision_recall(
        cross_validate(lr_factory, imbalanced, folds=5))

    rows = [
        ["Naive Bayes (paper)", "balanced", f"{nb_p:.0%}", f"{nb_r:.0%}"],
        ["logistic regression", "balanced", f"{lr_p:.0%}", f"{lr_r:.0%}"],
        ["Naive Bayes (paper)", "1:5 imbalance", f"{nb_ip:.0%}",
         f"{nb_ir:.0%}"],
        ["logistic regression", "1:5 imbalance", f"{lr_ip:.0%}",
         f"{lr_ir:.0%}"],
    ]
    lines = format_table(["model", "class balance", "precision",
                          "recall"], rows)
    lines.append("")
    lines.append("paper Sect. 2.1: NB chosen 'due to its robustness "
                 "with respect to class imbalance … and its ability to "
                 "update its model incrementally'")
    write_report("classifier_comparison",
                 "Classifier comparison — NB vs logistic", lines)
    # Both models are usable; NB holds up under imbalance (the paper's
    # selection criterion).
    assert nb_p > 0.8 and lr_p > 0.7
    assert nb_ir > 0.4  # NB recall survives imbalance
