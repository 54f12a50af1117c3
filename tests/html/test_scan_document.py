"""The streaming tokenizer pass must equal the two-pass repair + DOM.

``scan_document`` streams the tree ``parse_html(repair_html(html)[0])``
would build into the block segmenter without building it.  For every
page — well-formed, mutated, truncated — the blocks, title, raw anchor
hrefs and transcodable flag it yields must be exactly what the tree
oracle reads off that tree — and so must ``scan_page``, which scans
the repaired string itself on a reparse hazard.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.html.boilerplate import (
    BoilerplateDetector, extract_blocks, scan_blocks, scan_page,
)
from repro.html.dom import parse_html
from repro.html.repair import _ReparseHazard, repair_html, scan_document

from boilerplate_oracle import (
    anchor_hrefs, extract_blocks_from_tree, extract_blocks_reference,
    extract_reference, extract_title_from_tree, repair_document,
)
from test_parse_once import HAZARD, PAGES, TRICKY, _rendered_pages

#: Shapes the fixed lists of ``test_parse_once`` do not reach: title
#: and anchor bookkeeping across implicit and mis-nested closes.
TITLE_AND_ANCHOR = [
    "<title>a<script>x<y&z</script>b</title><title>second</title>",
    "<head><title>T <b>bold</b> x</head><p>body<title>no</title>",
    "<title/><title>late</title>",
    "<title><title>inner</title>outer</title>tail<title>third</title>",
    "<p>in body<title>  late   title  </title></p>",
    "<title>x &amp; y</nope> z<</title>",
    "<title><style> </style><script>  </script></title>",
    "<a href=x><a href='y'>t</a>z</a><hr><p>q<hr>r",
    "<div><a href=1>in<p>para</div>after</a>",
    '<a>no href</a><a HREF=" /up.html " href=/second>x</a><a href="">e</a>',
    "<ul><li><a href=/a>one<li>two</a></ul>",
    "<p>a<script>",
    "<li>a<li>b</li></li>c",
    "<td>x<td>y<tr>z",
    "<!-- c --><p>x<!-- d -->y</p>" + "z" * 300,
    "<!--" + "c" * 300 + "-->",
    "<!DOCTYPE html>" + "y" * 250,
]

#: Raw text is serialized verbatim, so a comment or doctype it opens
#: must not be completed by the markup serialization adds around it, nor
#: by a strip that joins its neighbours.
RAW_TEXT_DELIMITERS = [
    "<title><style><!DOCTYPE x",
    "<html><h-->ead><title>T <script>x<!--y",
    "<p>k<style><!<!-- c -->-->-->",
    "<script>a<!--b</script><p>c</p><style>x-->y&z</style>",
]


def tree_path(html: str):
    """(blocks, raw hrefs, title, transcodable) off the real DOM."""
    tree, report = repair_document(html)
    return (extract_blocks_from_tree(tree), anchor_hrefs(tree),
            extract_title_from_tree(tree), report.transcodable)


def assert_repair_is_stable(html: str) -> None:
    """Scanning the page, scanning its repaired form and walking the
    repaired tree read the same blocks, hrefs and title, and repair is
    a fixpoint of its own output — except that a hazard page's first
    repair still nests what the second hoists."""
    repaired = repair_html(html)[0]
    rescanned = scan_blocks(repaired)
    assert rescanned is not None  # a hazard page rescans cleanly
    assert scan_page(html)[:3] == rescanned[:3] == tree_path(html)[:3]
    twice = repair_html(repaired)[0]
    if scan_blocks(html) is None:
        assert repair_html(twice)[0] == twice
    else:
        assert twice == repaired


def assert_scan_equals_tree(html: str) -> None:
    expected = tree_path(html)
    scanned = scan_blocks(html)
    if scanned is not None:  # None: a hazard, scan_page rescans the repair
        assert scanned == expected
    assert scan_page(html) == expected


class _Events:
    """Records the raw event stream (no segmentation)."""

    def __init__(self) -> None:
        self.events: list[tuple[str, str]] = []

    def enter(self, tag: str) -> None:
        self.events.append(("enter", tag))

    def text(self, text: str) -> None:
        self.events.append(("text", text))

    def exit(self, tag: str) -> None:
        self.events.append(("exit", tag))


def tree_events(html: str) -> list[tuple[str, str]]:
    """Preorder events of the repaired DOM, by plain recursion."""
    events: list[tuple[str, str]] = []

    def visit(node) -> None:
        if node.is_text:
            events.append(("text", node.text))
            return
        events.append(("enter", node.tag))
        if node.tag not in ("script", "style"):
            for child in node.children:
                visit(child)
        events.append(("exit", node.tag))

    for child in parse_html(repair_html(html)[0]).children:
        visit(child)
    return events


FIXED = (PAGES + _rendered_pages() + TRICKY + [HAZARD] + TITLE_AND_ANCHOR
         + RAW_TEXT_DELIMITERS)


class TestFixedPages:
    @pytest.mark.parametrize("html", FIXED)
    def test_blocks_title_hrefs_transcodable(self, html):
        assert_scan_equals_tree(html)

    @pytest.mark.parametrize("html", FIXED)
    def test_event_stream_is_the_tree_preorder(self, html):
        sink = _Events()
        try:
            _hrefs, _title, transcodable = scan_document(html, sink)
        except _ReparseHazard:
            return
        if transcodable:  # else the repair is the empty document
            assert sink.events == tree_events(html)

    def test_hazard_is_reported_not_guessed(self):
        assert scan_blocks(HAZARD) is None
        assert scan_page(HAZARD) == tree_path(HAZARD)

    @pytest.mark.parametrize("html", FIXED)
    def test_tree_driver_equals_reference_walk(self, html):
        """The driver ``scan_page`` falls back to on a hazard — a scan
        of the *repaired* string — reads exactly what the recursive
        walk of the repaired tree reads."""
        assert_repair_is_stable(html)

    def test_untranscodable_yields_the_empty_document(self):
        assert scan_blocks("x" * 500) == ([], [], "", False)
        assert scan_page("x" * 500) == ([], [], "", False)
        assert scan_blocks("x" * 200).transcodable is True

    @pytest.mark.parametrize("html", FIXED)
    def test_extract_equals_reference(self, html):
        detector = BoilerplateDetector()
        assert extract_blocks(html) == extract_blocks_reference(html)
        assert detector.extract(html) == extract_reference(detector, html)


# -- mutated / truncated rendered pages ----------------------------------------

_BASES = _rendered_pages() + [
    "<html><head><title>Doc <script>var t = 1 < 2;</script> title</title>"
    "</head><body><div><p>" + "alpha beta " * 12 + '<a href="/one.html">'
    "anchor <b>text</b></a></p><hr><ul><li>first<li>second "
    '<a href=/two.html>two</a></ul><table><tr><td>cell<td><a href="#frag">'
    "skip</a></table><br><p>tail</p></div></body></html>",
]

#: Fragments spliced in at arbitrary offsets: stray '<', unmatched and
#: mis-nesting closers, block-level void elements, nested anchors, raw
#: text, auto-closing openers, entities.
_SPLICES = [
    "<", "< ", "<<", "</div>", "</p>", "</a>", "</nope>", "</body>",
    "</ul>", "</table>", "</title>", "<hr>", "<br/>", "<div>", "<p>",
    "<li>", "<td>", "<tr>", '<a href="/n.html">', "<a href=x>", "<a>",
    "<title>", "<script>a<b</script>", "<style>", "<div/>", "&amp;",
    "&lt;b&gt;", "&", " ", "text", "<!-- c -->", "<option>", "<!--",
    "-->", "<script>a<!--b</script>", "<style>x-->y&z</style>",
]


@st.composite
def mutated_pages(draw):
    html = draw(st.sampled_from(_BASES))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("splice", "drop_closer", "cut")))
        at = draw(st.integers(0, len(html)))
        if kind == "splice":
            html = html[:at] + draw(st.sampled_from(_SPLICES)) + html[at:]
        elif kind == "drop_closer":
            start = html.find("</", at)
            end = html.find(">", start)
            if start >= 0 and end >= 0:
                html = html[:start] + html[end + 1:]
        else:
            html = html[:at]
    return html


class TestMutatedPages:
    @settings(max_examples=300, deadline=None)
    @given(mutated_pages())
    def test_scan_equals_tree_path(self, html):
        assert_scan_equals_tree(html)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(_SPLICES), max_size=25))
    def test_fragment_soup(self, fragments):
        assert_scan_equals_tree("".join(fragments))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(mutated_pages(),
                     st.lists(st.sampled_from(_SPLICES),
                              max_size=25).map("".join)))
    def test_repair_is_idempotent_for_blocks(self, html):
        """The elementary web chain's readers scan the *repaired*
        ``raw``, so they repair twice; the fused web operator and the
        crawler scan the page as fetched, and ``scan_page`` rescans the
        repaired string on a reparse hazard.  So the blocks, hrefs and
        title of the page, of its repaired form and of the tree oracle
        must agree, and the repaired string must be a fixpoint of
        repair."""
        assert_repair_is_stable(html)
