"""HTML markup detection, repair and removal.

Implements the ``detect markup errors`` / ``repair markup`` /
``remove markup`` operators of the WA package (cf. Fig. 2 of the
paper).  Repair and removal are sinks of the one tolerant parse,
:func:`repro.html.dom.parse_stream`: repair writes its events back out
as HTML — the parse itself absorbs unclosed tags, mis-nesting, unquoted
attributes, and truncation, so the output is well-formed by
construction — and removal keeps their text.  A :class:`RepairReport`
records which defect classes were observed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.html.dom import parse_attrs, parse_stream, VOID_ELEMENTS

_UNQUOTED_ATTR_RE = re.compile(
    r"<[a-zA-Z][^<>]*?\s[a-zA-Z-]+=(?![\"'])[^\s<>\"']+")
_RAW_AMP_RE = re.compile(r"&(?![a-zA-Z]{2,8};|#\d{1,6};|#x[0-9a-fA-F]{1,6};)")
_DEPRECATED_RE = re.compile(r"<(font|center|marquee|blink)\b", re.IGNORECASE)
_HTML_CLOSER_AT_END_RE = re.compile(r"</html\s*>\s*\Z", re.IGNORECASE)
_BALANCED_OPEN_RE = re.compile(r"<(?:div|p|li|ul|span|td|tr)\b")
_BALANCED_CLOSE_RE = re.compile(r"</(?:div|p|li|ul|span|td|tr)\s*>")


@dataclass
class RepairReport:
    """Defects observed while repairing one page."""

    issues: list[str] = field(default_factory=list)
    transcodable: bool = True

    @property
    def defective(self) -> bool:
        return bool(self.issues)


def detect_markup_issues(html: str) -> list[str]:
    """Detect defect classes without repairing (cheap regex screens plus
    a structural balance check)."""
    issues: list[str] = []
    if _UNQUOTED_ATTR_RE.search(html):
        issues.append("unquoted_attr")
    if _RAW_AMP_RE.search(html):
        issues.append("raw_ampersand")
    if _DEPRECATED_RE.search(html):
        issues.append("deprecated_tag")
    if not _HTML_CLOSER_AT_END_RE.search(html):
        issues.append("truncated")
    if (len(_BALANCED_OPEN_RE.findall(html))
            != len(_BALANCED_CLOSE_RE.findall(html))):
        issues.append("unbalanced_tags")
    return issues


def repair_html(html: str) -> tuple[str, RepairReport]:
    """Repair markup; returns (well-formed HTML, report).

    Pages whose parse yields almost no structure (the paper's 13 %
    "could not be transcoded" class) are flagged ``transcodable=False``
    and returned as an empty document.  The output is the parse written
    back out, one event at a time, so nesting depth costs no recursion.
    Raw text (script/style) is written verbatim, so a second repair
    does not escape it again.
    """
    report = RepairReport(issues=detect_markup_issues(html))
    writer = _HtmlWriter()
    opened, _sound = parse_stream(html, writer)
    if not is_transcodable(html, opened):
        report.transcodable = False
        report.issues.append("untranscodable")
        return "<html><body></body></html>", report
    return "".join(writer.parts), report


def is_transcodable(html: str, opened: bool) -> bool:
    """The transcodability screen: some element opened, or the input
    is short."""
    return opened or len(html) <= 200


class _HtmlWriter:
    """Writes the parse events back out as well-formed HTML."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def enter(self, tag: str, attrs: str) -> None:
        if attrs:
            attrs = "".join([f' {k}="{_escape_attr(v)}"'
                             for k, v in parse_attrs(attrs).items()])
        self.parts.append(f"<{tag}{attrs}>")

    def text(self, runs: list[str]) -> None:
        self.parts.append(_escape_text("".join(runs)))

    def raw(self, text: str) -> None:
        # Raw text is never unescaped by the parse, so escaping it here
        # would change it on every repair.
        self.parts.append(text)

    def exit(self, tag: str) -> None:
        if tag not in VOID_ELEMENTS:
            self.parts.append(f"</{tag}>")


_NEEDS_ESCAPE_RE = re.compile(r"[&<>]")


def _escape_text(text: str) -> str:
    if _NEEDS_ESCAPE_RE.search(text) is None:
        return text
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(value: str) -> str:
    return _escape_text(value).replace('"', "&quot;")


class _TextCollector:
    """Keeps the text of the parse events, each run stripped."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def enter(self, tag: str, attrs: str) -> None:
        pass

    def text(self, runs: list[str]) -> None:
        self.parts.extend([run.strip() for run in runs])

    def raw(self, text: str) -> None:
        text = text.strip()
        if text:
            self.parts.append(text)

    def exit(self, tag: str) -> None:
        pass


def strip_markup(html: str) -> str:
    """Remove all markup, returning the text content joined by spaces
    (the WA package's ``remove markup`` operator).

    Script and style text is kept, unlike in
    :func:`repro.html.boilerplate.scan_page`, which reads no raw text
    outside the title.
    """
    collector = _TextCollector()
    parse_stream(html, collector)
    return " ".join(collector.parts)
