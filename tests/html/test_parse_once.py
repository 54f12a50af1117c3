"""Every reader of a web page must match the tree it reads.

``extract_blocks``, ``extract_links``, ``extract_title`` and
``BoilerplateDetector.extract`` read a page through one ``scan_page``
pass over its repaired form.  Each must produce exactly what the tree
oracle (``boilerplate_oracle``) reads off the repaired, re-parsed DOM.
"""

from __future__ import annotations

import pytest

from repro.crawler.parser import extract_links, extract_title
from repro.html.boilerplate import BoilerplateDetector, extract_blocks
from repro.html.repair import repair_html
from repro.web.htmlgen import PageRenderer

# Imported by its package path: tests/dataflow imports this module too.
from tests.html.boilerplate_oracle import (
    extract_blocks_from_tree, extract_from_tree, extract_links_from_tree,
    extract_title_from_tree, find_first, repair_document,
)
from tests.html.dom_oracle import parse_html

BASE = "http://host0.example.org/page.html"

PAGES = [
    "<html><head><title>A Title</title></head><body><p>"
    + "word " * 40 + '</p><a href="/x.html">link</a></body></html>',
    # Malformed markup: unclosed tags, unquoted attributes.
    "<html><body><div><p>" + "text " * 30
    + '<a href=/rel.html>go</a><ul><li>one<li>two</body>',
    # No title, anchors with skippable schemes.
    '<html><body><a href="javascript:void(0)">x</a>'
    '<a href="mailto:a@b">m</a><a href="/ok.html">y</a>'
    "<p>" + "content " * 25 + "</p></body></html>",
    "",
]


def _rendered_pages():
    renderer = PageRenderer(seed=13)
    body = "Gene expression in tumor cells. " * 20
    return [renderer.render(f"http://host{i}.example.org/item{i}.html",
                            f"Title {i}", body,
                            [f"http://host{i}.example.org/item{i + 1}.html"],
                            page_index=i)
            for i in range(4)]


class TestSharedTreeEquivalence:
    @pytest.mark.parametrize("html", PAGES + _rendered_pages())
    def test_blocks_links_title_from_one_tree(self, html):
        repaired, _report = repair_html(html)
        tree = parse_html(repaired)
        assert extract_blocks_from_tree(tree) == extract_blocks(html)
        assert (extract_links_from_tree(tree, BASE)
                == extract_links(repaired, BASE)
                == extract_links(html, BASE))
        assert (extract_title_from_tree(tree) == extract_title(repaired)
                == extract_title(html))

    @pytest.mark.parametrize("html", PAGES + _rendered_pages())
    def test_detector_extract_from_tree(self, html):
        detector = BoilerplateDetector()
        repaired, _report = repair_html(html)
        assert (extract_from_tree(detector, parse_html(repaired))
                == detector.extract(html))

    def test_extract_is_stable_under_repair(self):
        """Net text of a page equals net text of its repaired form
        (repair is idempotent on its own output for content text): the
        elementary flow extracts from the repaired ``raw``, the crawler
        and the fused web operator from the page as fetched."""
        detector = BoilerplateDetector()
        for html in PAGES + _rendered_pages() + TRICKY + [HAZARD]:
            repaired, _report = repair_html(html)
            assert detector.extract(repaired) == detector.extract(html)


# Inputs chosen to hit every normalisation the serialize / re-parse
# round-trip performs: text-run merging across ignored closers and
# stray '<', entity handling in text and attributes, verbatim raw
# text, void elements, implicit closes, and the transcodability
# screen for long structureless input.
TRICKY = [
    "<p>a</nope>b</p>",                      # ignored closer: runs merge
    "a<b<c",                                  # stray '<' becomes text
    "<p>x &amp; y &lt;z&gt;</p>",             # entities in text
    '<p data-x="a &amp; b">t</p>',            # entities in attributes
    "<script>if (a < b && c) { run(); }</script>",   # raw text, verbatim
    "<style>  .a { color: red }  </style>",   # raw text keeps whitespace
    "<div>foo<span>x</span>bar</div>",        # separate runs stay separate
    "<ul><li>one<li>two</ul>",                # implicit closes
    "<option>1<option>2",
    "<p>first<p>second",
    "<br><hr><img src=x>",                    # void elements
    "<div/>self<div>open",                    # self-closing non-void
    "  \n\t  ",                               # whitespace-only
    "",
    "x" * 500,                                # long, structureless
    "word " * 50,                             # long, structureless, spaces
    "<p>" + "word " * 50 + "</p>",            # long, structured
]

#: The adjacency re-serialization does NOT preserve: tr-under-tr built
#: via a single-level implicit close gets hoisted on re-parse, so
#: scan_page must fall back to scanning the repaired string.
HAZARD = "<table><tr><td>x<tr><td>y</table>"


class TestRepairDocument:
    """The oracle's ``repair_document`` must equal the two-pass repair
    exactly: same tree as ``parse_html(repair_html(html)[0])``, same
    report."""

    @pytest.mark.parametrize("html",
                             PAGES + _rendered_pages() + TRICKY + [HAZARD])
    def test_matches_two_pass_repair(self, html):
        tree, report = repair_document(html)
        repaired, oracle_report = repair_html(html)
        assert tree == parse_html(repaired)
        assert report.issues == oracle_report.issues
        assert report.transcodable == oracle_report.transcodable

    def test_hazard_page_restructures_like_reparse(self):
        """The first parse nests the second row under the first; the
        re-parse (and therefore repair_document) hoists it to a
        sibling."""
        tree, _report = repair_document(HAZARD)
        table = find_first(tree, "table")
        assert [child.tag for child in table.children] == ["tr", "tr"]

    def test_untranscodable_long_junk(self):
        tree, report = repair_document("x" * 500)
        assert not report.transcodable
        assert "untranscodable" in report.issues
        assert tree == parse_html("<html><body></body></html>")
