"""Tests for markup detection and repair."""

from repro.html.boilerplate import scan_page
from repro.html.repair import detect_markup_issues, repair_html, strip_markup
from repro.web.htmlgen import PageRenderer


class TestDetect:
    def test_clean_page_minimal_issues(self):
        html = ("<html><body><div><p>Hello there.</p></div>"
                "</body></html>")
        assert detect_markup_issues(html) == []

    def test_unquoted_attr_detected(self):
        issues = detect_markup_issues(
            "<html><body><a href=http://x>l</a></body></html>")
        assert "unquoted_attr" in issues

    def test_raw_ampersand_detected(self):
        issues = detect_markup_issues(
            "<html><body>bread & butter</body></html>")
        assert "raw_ampersand" in issues

    def test_entity_not_flagged(self):
        issues = detect_markup_issues(
            "<html><body>bread &amp; butter</body></html>")
        assert "raw_ampersand" not in issues

    def test_truncation_detected(self):
        issues = detect_markup_issues("<html><body><p>cut")
        assert "truncated" in issues

    def test_unbalanced_detected(self):
        issues = detect_markup_issues(
            "<html><body><div><div><p>x</p></div></body></html>")
        assert "unbalanced_tags" in issues

    def test_deprecated_tag_detected(self):
        issues = detect_markup_issues(
            "<html><body><font size=3>x</font></body></html>")
        assert "deprecated_tag" in issues


class TestRepair:
    def test_repaired_output_is_balanced(self):
        dirty = "<html><body><div><p>one<p>two</body>"
        repaired, report = repair_html(dirty)
        assert repaired.count("<p>") == repaired.count("</p>")
        assert repaired.count("<div") == repaired.count("</div>")
        assert report.defective

    def test_rendered_defect_pages_repairable(self):
        renderer = PageRenderer(seed=2, defect_rate=1.0)
        for i in range(20):
            html = renderer.render(f"http://h{i}.example.org/x.html",
                                   "Title", "Body text here. More text.",
                                   [], page_index=i)
            repaired, report = repair_html(html)
            if report.transcodable:
                assert detect_markup_issues(repaired).count(
                    "unbalanced_tags") == 0

    def test_untranscodable_flagged(self):
        # A long blob with no structure at all.
        repaired, report = repair_html("x" * 500)
        assert not report.transcodable
        assert "untranscodable" in report.issues

    def test_short_plain_text_is_fine(self):
        _repaired, report = repair_html("<p>tiny</p>")
        assert report.transcodable

    def test_raw_text_survives_repeated_repair(self):
        html = ("<p>x<script>if (a < b && c) { run(); }</script>"
                "<style>p > a { content: '&amp;' }</style>")
        repaired, _report = repair_html(html)
        assert "<script>if (a < b && c) { run(); }</script>" in repaired
        assert "<style>p > a { content: '&amp;' }</style>" in repaired
        assert repair_html(repaired)[0] == repaired


class TestStripMarkup:
    def test_strips_all_tags(self):
        text = strip_markup("<div><p>a</p><p>b <b>c</b></p></div>")
        assert "<" not in text
        assert "a" in text and "c" in text

    def test_keeps_raw_text(self):
        text = strip_markup("<script>var x = 1;</script><p>keep</p>")
        assert text == "var x = 1; keep"


#: Nesting far past the interpreter's recursion limit, clean and with
#: the implicit-close adjacency (``tr`` under ``tr``) whose page scan
#: falls back to scanning the repaired string.
DEEP_DIVS = "<div>" * 5000
DEEP_HAZARD = "<table>" + "<tr><td>" * 3000 + "x"


class TestDeepNesting:
    def test_repair_writes_the_balanced_nesting(self):
        assert repair_html(DEEP_DIVS)[0] == "<div>" * 5000 + "</div>" * 5000
        assert repair_html(DEEP_HAZARD)[0] == (
            "<table>" + "<tr><td></td>" * 2999 + "<tr><td>x</td>"
            + "</tr>" * 3000 + "</table>")

    def test_strip_markup_and_scan_page_return(self):
        assert strip_markup(DEEP_DIVS) == ""
        assert strip_markup(DEEP_HAZARD) == "x"
        assert scan_page(DEEP_DIVS) == ([], [], "", True)
        scanned = scan_page(DEEP_HAZARD)
        assert [block.text for block in scanned.blocks] == ["x"]
        assert scanned.transcodable
