"""Tree-walking readers of a web page — the test-only oracle.

``src/`` reads a page only through ``scan_page``'s tokenizer pass.
These are the readers it replaced, as they were before: repair, parse
the repaired string, and walk the DOM (block segmentation by plain
recursion).  They are kept here, out of ``src/``, as the ground truth
``scan_page``, ``BoilerplateDetector.extract`` and the elementary
``extract_links`` / ``extract_title`` are held to
(``tests/html/test_scan_document.py``, ``tests/html/test_parse_once.py``,
``tests/crawler/test_document_stage.py``,
``tests/dataflow/test_web_fusion.py``).
"""

from __future__ import annotations

from typing import Iterator

from repro.crawler.parser import resolve_hrefs
from repro.html.boilerplate import BoilerplateDetector, TextBlock, _Segmenter
from repro.html.dom import BLOCK_ELEMENTS
from repro.html.repair import RepairReport, repair_html

from tests.html.dom_oracle import HtmlNode, parse_html


def find_all(node: HtmlNode, tag: str) -> list[HtmlNode]:
    """Every ``tag`` element under ``node``, in document order."""
    return [found for found in node.walk() if found.tag == tag]


def find_first(node: HtmlNode, tag: str) -> HtmlNode | None:
    """The first ``tag`` element under ``node`` (None if absent)."""
    return next((found for found in node.walk() if found.tag == tag), None)


def class_names(node: HtmlNode) -> list[str]:
    return node.attrs.get("class", "").split()


def iter_text(root: HtmlNode) -> Iterator[str]:
    """Yield stripped text-node contents in document order."""
    for node in root.walk():
        if node.is_text:
            stripped = node.text.strip()
            if stripped:
                yield stripped


def repair_document(html: str) -> tuple[HtmlNode, RepairReport]:
    """The literal two-pass ``parse_html(repair_html(html)[0])``."""
    repaired, report = repair_html(html)
    return parse_html(repaired), report


def anchor_hrefs(tree: HtmlNode) -> list[str]:
    """The raw ``href`` of every anchor in document order ('' if absent)."""
    return [anchor.attrs.get("href", "") for anchor in find_all(tree, "a")]


def extract_title_from_tree(tree: HtmlNode) -> str:
    """Title of an already-parsed page ('' if absent)."""
    title = find_first(tree, "title")
    if title is None:
        return ""
    return title.get_text().strip()


def extract_links_from_tree(tree: HtmlNode, base_url: str) -> list[str]:
    """Resolved outlinks of an already-parsed page."""
    return resolve_hrefs(anchor_hrefs(tree), base_url)


def walk_reference(segmenter: _Segmenter, node: HtmlNode) -> None:
    """Feed ``node`` to ``segmenter`` by plain recursion."""
    if node.is_text:
        words = node.text.split()
        segmenter._words.extend(words)
        if segmenter._anchor_depth > 0:
            segmenter._anchor_words += len(words)
        return
    is_block = node.tag in BLOCK_ELEMENTS
    if is_block:
        segmenter.flush()
        segmenter._push_block(node.tag)
    if node.tag == "a":
        segmenter._anchor_depth += 1
    if node.tag not in ("script", "style"):
        for child in node.children:
            walk_reference(segmenter, child)
    if node.tag == "a":
        segmenter._anchor_depth -= 1
    if is_block:
        segmenter.flush()
        segmenter._pop_block()


def extract_blocks_from_tree(tree: HtmlNode) -> list[TextBlock]:
    """Segment an already-parsed (repaired) DOM into text blocks."""
    segmenter = _Segmenter()
    walk_reference(segmenter, tree)
    segmenter.flush()
    return segmenter.blocks


def extract_from_tree(detector: BoilerplateDetector, tree: HtmlNode) -> str:
    """Net text of an already-parsed (repaired) DOM."""
    return detector.join_content(
        detector.classify(extract_blocks_from_tree(tree)))


def extract_blocks_reference(html: str) -> list[TextBlock]:
    """Repair, re-parse, and segment by the recursive walk."""
    return extract_blocks_from_tree(repair_document(html)[0])


def extract_reference(detector: BoilerplateDetector, html: str) -> str:
    """Net text of ``html`` through the oracle segmentation."""
    return extract_from_tree(detector, repair_document(html)[0])
