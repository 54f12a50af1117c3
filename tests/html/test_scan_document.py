"""The one streaming parse and its three sinks must equal the DOM oracle.

``parse_stream`` streams the tree the oracle ``parse_html`` builds
(``tests/html/dom_oracle.py``) as preorder events, without building
it, and reports whether that tree is sound (no element under a parent
its tag implicitly closes).  For every page — well-formed, mutated,
truncated — its events must be the oracle tree's preorder, and each
sink must read what the oracle reads: ``repair_html`` writes
``serialize(parse_html(html))``, ``strip_markup`` returns the tree's
``get_text()``, and the blocks, title, raw anchor hrefs and
transcodable flag of ``scan_blocks`` / ``scan_page`` are exactly what
the tree oracle reads off ``parse_html(repair_html(html)[0])`` —
``scan_page`` scans the repaired string itself on an unsound parse.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.html.boilerplate import (
    BoilerplateDetector, extract_blocks, scan_blocks, scan_page,
)
from repro.html.dom import _AUTO_CLOSE, parse_attrs, parse_stream
from repro.html.repair import repair_html, strip_markup

from boilerplate_oracle import (
    anchor_hrefs, extract_blocks_from_tree, extract_blocks_reference,
    extract_reference, extract_title_from_tree, repair_document,
)
from test_parse_once import HAZARD, PAGES, TRICKY, _rendered_pages
from tests.html.dom_oracle import parse_html, serialize

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
    """Repair writes the oracle tree and markup removal reads its text;
    scanning the page, scanning its repaired form and walking the
    repaired tree read the same blocks, hrefs and title, and repair is
    a fixpoint of its own output — except that a hazard page's first
    repair still nests what the second hoists."""
    repaired, report = repair_html(html)
    tree = parse_html(html)
    if report.transcodable:
        assert repaired == serialize(tree)
    assert strip_markup(html) == tree.get_text()
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
    """Records the raw event stream (no segmentation); attributes as
    parsed, text runs as a tuple."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def enter(self, tag: str, attrs: str) -> None:
        self.events.append(("enter", tag, parse_attrs(attrs)))

    def text(self, runs: list[str]) -> None:
        self.events.append(("text", tuple(runs)))

    def raw(self, text: str) -> None:
        self.events.append(("raw", text))

    def exit(self, tag: str) -> None:
        self.events.append(("exit", tag))


def stream_events(html: str) -> tuple[list[tuple], bool, bool]:
    """``parse_stream``'s events, ``opened`` and ``sound``."""
    sink = _Events()
    opened, sound = parse_stream(html, sink)
    return sink.events, opened, sound


def tree_events(tree) -> list[tuple]:
    """Preorder events of a DOM by plain recursion, adjacent text
    nodes grouped into one text event."""
    events: list[tuple] = []

    def visit(node) -> None:
        events.append(("enter", node.tag, node.attrs))
        raw = node.tag in ("script", "style")
        for child in node.children:
            if raw:
                events.append(("raw", child.text))
            elif not child.is_text:
                visit(child)
            elif events[-1][0] == "text":
                events[-1] = ("text", events[-1][1] + (child.text,))
            else:
                events.append(("text", (child.text,)))
        events.append(("exit", node.tag))

    visit(tree)
    return events[1:-1]  # not the synthetic #root


def is_sound(tree) -> bool:
    """No element of ``tree`` sits under a parent its tag implicitly
    closes."""
    return not any(node.tag in _AUTO_CLOSE.get(child.tag, ())
                   for node in tree.walk() for child in node.children)


def joined(events: list[tuple]) -> list[tuple]:
    """The events with each text event's runs joined into one."""
    return [("text", "".join(event[1])) if event[0] == "text" else event
            for event in events]


def assert_events_are_tree_preorder(html: str) -> None:
    """The events of the unrepaired page are the oracle tree's
    preorder, ``sound`` flags exactly the trees with an implicit-close
    adjacency, and a sound parse, runs joined, is the parse of the
    repaired string — which is what the page scan reads."""
    events, opened, sound = stream_events(html)
    tree = parse_html(html)
    assert events == tree_events(tree)
    assert opened == any(not node.is_text for node in tree.children)
    assert sound == is_sound(tree)
    repaired, report = repair_html(html)
    if sound and report.transcodable:
        reparsed, _opened, resound = stream_events(repaired)
        assert resound
        assert joined(reparsed) == joined(events)


FIXED = (PAGES + _rendered_pages() + TRICKY + [HAZARD] + TITLE_AND_ANCHOR
         + RAW_TEXT_DELIMITERS)


class TestFixedPages:
    @pytest.mark.parametrize("html", FIXED)
    def test_blocks_title_hrefs_transcodable(self, html):
        assert_scan_equals_tree(html)

    @pytest.mark.parametrize("html", FIXED)
    def test_event_stream_is_the_tree_preorder(self, html):
        assert_events_are_tree_preorder(html)

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
        assert_events_are_tree_preorder(html)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(_SPLICES), max_size=25))
    def test_fragment_soup(self, fragments):
        assert_scan_equals_tree("".join(fragments))
        assert_events_are_tree_preorder("".join(fragments))

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
