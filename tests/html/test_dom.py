"""Tests for the tolerant HTML parser's tree oracle (``dom_oracle``),
which ``test_scan_document`` holds the streaming parse to."""

from hypothesis import given, settings, strategies as st

from boilerplate_oracle import class_names, find_all, iter_text
from tests.html.dom_oracle import HtmlNode, parse_html, serialize


class TestBasicParsing:
    def test_simple_tree(self):
        tree = parse_html("<html><body><p>hello</p></body></html>")
        paragraphs = find_all(tree, "p")
        assert len(paragraphs) == 1
        assert paragraphs[0].get_text() == "hello"

    def test_attributes(self):
        tree = parse_html('<a href="http://x" class="big">link</a>')
        anchor = find_all(tree, "a")[0]
        assert anchor.attrs["href"] == "http://x"
        assert class_names(anchor) == ["big"]

    def test_unquoted_attributes(self):
        tree = parse_html("<a href=http://x/y>link</a>")
        assert find_all(tree, "a")[0].attrs["href"] == "http://x/y"

    def test_single_quoted_attributes(self):
        tree = parse_html("<a href='http://x'>l</a>")
        assert find_all(tree, "a")[0].attrs["href"] == "http://x"

    def test_duplicate_attribute_first_wins(self):
        tree = parse_html('<div class="a" class="b">x</div>')
        assert find_all(tree, "div")[0].attrs["class"] == "a"

    def test_void_elements_have_no_children(self):
        tree = parse_html("<p>a<br>b</p>")
        paragraph = find_all(tree, "p")[0]
        assert paragraph.get_text() == "a b"
        assert not find_all(tree, "br")[0].children

    def test_comments_stripped(self):
        tree = parse_html("<p>a<!-- hidden -->b</p>")
        assert "hidden" not in tree.get_text()

    def test_doctype_stripped(self):
        tree = parse_html("<!DOCTYPE html><html><p>x</p></html>")
        assert find_all(tree, "p")

    def test_entities_unescaped(self):
        tree = parse_html("<p>a &amp; b &lt;c&gt;</p>")
        assert tree.get_text() == "a & b <c>"


class TestTolerance:
    def test_unclosed_tags_auto_closed(self):
        tree = parse_html("<div><p>one<p>two</div>")
        assert [p.get_text() for p in find_all(tree, "p")] == ["one", "two"]

    def test_stray_closer_ignored(self):
        tree = parse_html("<p>a</div></p>")
        assert find_all(tree, "p")[0].get_text() == "a"

    def test_misnested_closers(self):
        tree = parse_html("<div><ul><li>x</div></ul>")
        assert find_all(tree, "li")[0].get_text() == "x"

    def test_truncated_document(self):
        tree = parse_html("<html><body><div><p>cut off in the midd")
        assert "cut off" in tree.get_text()

    def test_stray_less_than_as_text(self):
        tree = parse_html("<p>1 < 2</p>")
        assert "<" in tree.get_text()

    def test_never_raises_on_garbage(self):
        parse_html("><<<div li=<p no ></")

    def test_script_content_opaque(self):
        tree = parse_html('<script>if (a<b) { x("<p>"); }</script><p>t</p>')
        assert len(find_all(tree, "p")) == 1
        assert find_all(tree, "p")[0].get_text() == "t"

    def test_style_content_opaque(self):
        tree = parse_html("<style>p > a { color: red }</style><p>x</p>")
        assert find_all(tree, "p")[0].get_text() == "x"

    def test_li_implicit_close(self):
        tree = parse_html("<ul><li>a<li>b<li>c</ul>")
        texts = [li.get_text() for li in find_all(tree, "li")]
        assert texts == ["a", "b", "c"]


class TestSerialize:
    def test_round_trip_well_formed(self):
        html = '<div class="x"><p>hello <b>world</b></p></div>'
        tree = parse_html(html)
        assert serialize(tree) == html

    def test_serialize_escapes_text(self):
        node = HtmlNode("#text", text="a < b & c")
        assert serialize(node) == "a &lt; b &amp; c"

    def test_serialize_repairs_unclosed(self):
        repaired = serialize(parse_html("<div><p>a"))
        assert repaired == "<div><p>a</p></div>"

    def test_reparse_stable(self):
        dirty = "<div><ul><li>a<li>b</div></ul><p>done"
        once = serialize(parse_html(dirty))
        twice = serialize(parse_html(once))
        assert once == twice


class TestIterText:
    def test_document_order(self):
        tree = parse_html("<div><p>one</p><p>two</p>three</div>")
        assert list(iter_text(tree)) == ["one", "two", "three"]


@given(st.text(alphabet="<>/abp \"'=&", max_size=120))
@settings(max_examples=150, deadline=None)
def test_property_parser_never_raises(fragment):
    tree = parse_html(fragment)
    serialize(tree)  # round trip must also never raise


@given(st.lists(st.sampled_from(["<div>", "</div>", "<p>", "</p>", "text ",
                                 "<a href=x>", "</a>", "<br>", "&amp;"]),
                max_size=30))
@settings(max_examples=100, deadline=None)
def test_property_repair_idempotent(parts):
    html = "".join(parts)
    once = serialize(parse_html(html))
    assert serialize(parse_html(once)) == once
