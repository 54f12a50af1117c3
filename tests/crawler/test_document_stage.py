"""The crawl document stage against a reference built from the slow parts.

``process_document`` streams a page through one tokenizer pass and an
array language kernel.  Every field the merge phase consumes — and the
``stage_seconds`` key set, which becomes ``CrawlResult.stage_pages``
inside the crawl digest — must equal a reference composed here from
the literal pieces: ``repair_html`` -> ``parse_html`` -> the tree
oracle's extractors -> the language oracle's ``detect_reference`` +
length -> the classifier.
"""

from __future__ import annotations

import pytest

import repro.crawler.crawl as crawl_module
from repro.crawler.checkpoint import result_to_dict
from repro.crawler.crawl import CrawlConfig, FocusedCrawler
from repro.crawler.parallel import (
    DocumentOutcome, ProcessingContext, process_document,
)
from repro.html.boilerplate import BoilerplateDetector
from repro.html.repair import repair_html
from repro.web.faults import FaultConfig
from repro.web.server import SimulatedClock, SimulatedWeb
from repro.web.webgraph import WebGraph, WebGraphConfig

from tests.html.boilerplate_oracle import (
    extract_from_tree, extract_links_from_tree, extract_title_from_tree,
)
from tests.html.dom_oracle import parse_html
from tests.html.test_repair import DEEP_DIVS, DEEP_HAZARD
from tests.nlp.language_oracle import detect_reference


def reference_document(url: str, body: str, content_type: str,
                       context: ProcessingContext) -> DocumentOutcome:
    """The document stage, one literal step after another; a stage's
    seconds are 0.0 where it ran and absent where it did not."""
    filters = context.filters
    if not filters.decide_payload(body, url, content_type):
        return DocumentOutcome(mime_ok=False,
                               stage_seconds={"filters": 0.0})
    repaired, report = repair_html(body)
    if not report.transcodable:
        return DocumentOutcome(
            mime_ok=True, stage_seconds={"filters": 0.0, "repair": 0.0})
    tree = parse_html(repaired)
    net_text = extract_from_tree(context.boilerplate, tree)
    # The paper's order: language before length.
    language = filters.language
    if detect_reference(language.identifier, net_text) != language.target:
        rejected_by = "language"
    elif not filters.length.accept(net_text):
        rejected_by = "length"
    else:
        rejected_by = ""
    stages = ["filters", "repair", "parse", "boilerplate"]
    outcome = DocumentOutcome(
        mime_ok=True, transcodable=True, net_text=net_text,
        title=extract_title_from_tree(tree),
        outlinks=extract_links_from_tree(tree, url),
        rejected_by=rejected_by)
    if not rejected_by:
        outcome.relevant = context.classifier.predict(net_text)
        stages.append("classify")
    outcome.stage_seconds = dict.fromkeys(stages, 0.0)
    return outcome


def _fields(outcome: DocumentOutcome) -> dict:
    return {
        "mime_ok": outcome.mime_ok, "transcodable": outcome.transcodable,
        "net_text": outcome.net_text, "title": outcome.title,
        "outlinks": outcome.outlinks, "rejected_by": outcome.rejected_by,
        "relevant": outcome.relevant,
        "stage_keys": sorted(outcome.stage_seconds),
    }


@pytest.fixture(scope="module")
def processing(context) -> ProcessingContext:
    return ProcessingContext(boilerplate=BoilerplateDetector(),
                             filters=context.build_filter_chain(),
                             classifier=context.pipeline.classifier)


@pytest.fixture(scope="module")
def small_graph(vocabulary) -> WebGraph:
    return WebGraph(WebGraphConfig(n_hosts=12, seed=9),
                    vocabulary=vocabulary)


@pytest.mark.parametrize("web_seed", [6, 17, 33])
@pytest.mark.parametrize("preset", ["none", "heavy"])
def test_every_fetched_body_matches_the_reference(
        processing, small_graph, web_seed, preset):
    web = SimulatedWeb(small_graph, seed=web_seed,
                       faults=FaultConfig.preset(preset, seed=web_seed + 1))
    bodies = truncated = rejected = 0
    for url in sorted(small_graph.pages):
        fetched = web.fetch(url, now=0.0)
        if not fetched.body:
            continue
        bodies += 1
        truncated += fetched.truncated
        outcome = process_document(fetched.url, fetched.body,
                                   fetched.content_type, processing)
        rejected += bool(outcome.rejected_by)
        assert _fields(outcome) == _fields(reference_document(
            fetched.url, fetched.body, fetched.content_type, processing))
    # The comparison saw what it claims to cover.
    assert bodies > 100 and rejected > 0
    assert (truncated > 0) == (preset == "heavy")


@pytest.mark.parametrize("body", [DEEP_DIVS, DEEP_HAZARD],
                         ids=["divs", "hazard"])
def test_deeply_nested_page_is_processed(processing, body):
    outcome = process_document("http://host0.example.org/deep.html", body,
                               "text/html", processing)
    assert isinstance(outcome, DocumentOutcome)
    assert outcome.mime_ok and outcome.transcodable


def _crawl(context, webgraph, document_stage):
    """A seeded 200-page crawl with ``document_stage`` in the loop."""
    web = SimulatedWeb(webgraph, seed=17,
                       faults=FaultConfig.preset("default", seed=18))
    crawler = FocusedCrawler(
        web, context.pipeline.classifier, context.build_filter_chain(),
        CrawlConfig(max_pages=200, batch_size=25), clock=SimulatedClock())
    original = crawl_module.process_document
    crawl_module.process_document = document_stage
    try:
        result = crawler.crawl(context.seed_batch("second").urls)
    finally:
        crawl_module.process_document = original
    return crawler, result


def test_crawl_attrition_and_digest_match_the_reference(context, webgraph):
    crawler, result = _crawl(context, webgraph, process_document)
    oracle, expected = _crawl(context, webgraph, reference_document)
    report = crawler.filters.attrition_report()
    assert list(report) == ["mime", "language", "length"]
    assert report == oracle.filters.attrition_report()
    assert all(stats.seen for stats in crawler.filters.stats.values())
    assert result.stage_pages == expected.stage_pages
    assert result_to_dict(result) == result_to_dict(expected)
