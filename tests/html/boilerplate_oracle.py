"""Recursive-walk boilerplate extraction — the test-only oracle.

This is block segmentation and net-text extraction as they were before
the segmenter became an event sink shared by the tokenizer pass
(``repair.scan_document``) and an iterative tree walk: always repair,
parse the repaired string, and recurse over the DOM.  It is kept here,
out of ``src/``, as the ground truth ``_Segmenter.walk``,
``scan_page`` and ``BoilerplateDetector.extract`` are held to
(``tests/html/test_scan_document.py``, ``tests/html/test_parse_once.py``).
"""

from __future__ import annotations

from repro.html.boilerplate import BoilerplateDetector, TextBlock, _Segmenter
from repro.html.dom import BLOCK_ELEMENTS, HtmlNode, parse_html
from repro.html.repair import repair_html


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


def extract_blocks_reference(html: str) -> list[TextBlock]:
    """Repair, re-parse, and segment by the recursive walk."""
    repaired, _report = repair_html(html)
    segmenter = _Segmenter()
    walk_reference(segmenter, parse_html(repaired))
    segmenter.flush()
    return segmenter.blocks


def extract_reference(detector: BoilerplateDetector, html: str) -> str:
    """Net text of ``html`` through the oracle segmentation."""
    return detector.join_content(
        detector.classify(extract_blocks_reference(html)))
