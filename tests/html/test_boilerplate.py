"""Tests for the Boilerpipe-style boilerplate detector."""

from repro.corpora.goldstandard import build_boilerplate_gold
from repro.evaluation import mean_precision_recall, score_words
from repro.html.boilerplate import (
    BoilerplateDetector, TextBlock, extract_blocks, extract_content,
)


def _page(body, nav="", ads=""):
    return (f"<html><body><div class='nav'>{nav}</div>"
            f"<div id='content'><p>{body}</p></div>"
            f"<div class='footer'>{ads}</div></body></html>")


LONG_BODY = ("This is a long article paragraph with many words that should "
             "easily clear the content thresholds of the shallow classifier "
             "because it contains far more than forty words in total and no "
             "links at all whatsoever anywhere in its running text, which "
             "keeps the link density at exactly zero while the word count "
             "comfortably exceeds every decision-tree threshold in use.")
NAV = ('<a href="/">Home</a> <a href="/a">About</a> <a href="/c">Contact</a>')


class TestBlocks:
    def test_segmentation_separates_nav_and_content(self):
        blocks = extract_blocks(_page(LONG_BODY, nav=NAV))
        assert len(blocks) >= 2

    def test_link_density_computed(self):
        blocks = extract_blocks(_page(LONG_BODY, nav=NAV))
        nav_block = max(blocks, key=lambda b: b.link_density)
        content_block = max(blocks, key=lambda b: b.n_words)
        assert nav_block.link_density > 0.9
        assert content_block.link_density == 0.0

    def test_text_density(self):
        block = TextBlock(text="w " * 200, n_words=200, n_anchor_words=0,
                          tag_path="div>p")
        assert block.text_density > 10

    def test_empty_page(self):
        assert extract_blocks("<html><body></body></html>") == []

    def test_heading_flag(self):
        blocks = extract_blocks("<h1>A headline here</h1><p>text</p>")
        assert any(b.is_heading for b in blocks)

    def test_list_flag(self):
        blocks = extract_blocks("<ul><li>short item</li></ul>")
        assert all(b.in_list for b in blocks)


class TestClassification:
    def test_content_recovered(self):
        extracted = extract_content(_page(LONG_BODY, nav=NAV,
                                          ads="Buy now! Click here."))
        assert "long article paragraph" in extracted

    def test_nav_dropped(self):
        extracted = extract_content(_page(LONG_BODY, nav=NAV))
        assert "Home" not in extracted

    def test_link_dense_block_is_boilerplate(self):
        detector = BoilerplateDetector()
        blocks = detector.classify(extract_blocks(_page(LONG_BODY, nav=NAV)))
        nav_block = max(blocks, key=lambda b: b.link_density)
        assert nav_block.is_content is False

    def test_short_list_items_lost(self):
        """The documented recall failure: lists fall below thresholds."""
        html = ("<html><body><div id='c'>"
                + "".join(f"<ul><li>item {i} value</li></ul>"
                          for i in range(6))
                + "</div></body></html>")
        extracted = extract_content(html)
        assert "item 3" not in extracted


class TestQualityOnGold:
    def test_precision_recall_band(self):
        """On the synthetic gold set, quality should sit near the
        paper's measurements (P=90 %/R=82 % gold, 98 %/72 % sample)."""
        pairs = build_boilerplate_gold(40, seed=5)
        detector = BoilerplateDetector()
        precision, recall = mean_precision_recall(
            [score_words(detector.extract(html), gold)
             for html, gold in pairs])
        assert precision > 0.75
        assert recall > 0.6
