"""Section 4.1: relevance-classifier quality — 10-fold CV on the
training corpus and the 200-page manually-judged crawl sample."""

import functools

from reporting import format_table, write_report

from repro.classify.naive_bayes import NaiveBayesClassifier
from repro.corpora.goldstandard import build_classifier_gold
from repro.evaluation import (
    cross_validate, mean_precision_recall, score_pages,
)


def test_classifier_cross_validation(ctx, benchmark):
    gold = build_classifier_gold(ctx.vocabulary, 200)
    factory = functools.partial(NaiveBayesClassifier,
                                decision_threshold=0.9)
    reports = benchmark.pedantic(
        lambda: cross_validate(factory, gold, folds=10),
        rounds=1, iterations=1)
    precision, recall = mean_precision_recall(reports)
    lines = format_table(
        ["evaluation", "paper P", "paper R", "repro P", "repro R"],
        [["10-fold CV (training corpus)", "98 %", "83 %",
          f"{precision:.0%}", f"{recall:.0%}"]])
    write_report("classifier_cv",
                 "Section 4.1 — classifier cross-validation", lines)
    assert precision > 0.85
    assert 0.6 < recall <= 1.0
    assert precision > recall


def test_classifier_on_crawl_sample(ctx, benchmark):
    """The 200-page manual check: sample crawled pages whose true
    topic the web graph knows, compare with classifier output."""
    result = benchmark.pedantic(ctx.crawl, rounds=1, iterations=1)
    sample = (result.relevant + result.irrelevant)[:200]
    score = score_pages(ctx.webgraph, sample)
    precision, recall = score.precision, score.recall
    n = score.tp + score.fp + score.fn + score.tn
    lines = format_table(
        ["evaluation", "paper P", "paper R", "repro P", "repro R"],
        [[f"crawl sample (n={n})", "94 %", "90 %",
          f"{precision:.0%}", f"{recall:.0%}"]])
    lines.append("")
    lines.append("paper: false positives sit at the fringe of the "
                 "domain (body-builder chemistry, medical devices)")
    write_report("classifier_sample",
                 "Section 4.1 — classifier on crawl sample", lines)
    assert precision > 0.7
    assert recall > 0.5
