"""HTML markup detection and repair.

Implements the ``detect markup errors`` / ``repair markup`` operators
of the WA package (cf. Fig. 2 of the paper).  Repair works by running
the tolerant parser and re-serializing the resulting tree — the parse
itself absorbs unclosed tags, mis-nesting, unquoted attributes, and
truncation, so the output is well-formed by construction.  A
:class:`RepairReport` records which defect classes were observed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from html import unescape

from repro.html.dom import (
    _AUTO_CLOSE, _TAG_RE, parse_attrs, parse_html, RAW_TEXT_ELEMENTS,
    serialize, strip_declarations, VOID_ELEMENTS,
)

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
    and returned as an empty document.  The serialize / re-parse
    round-trip is load-bearing: re-serialization is what normalises
    bogus markup (``< a href=...`` junk, stray ``<``), so readers see
    the tree of the *repaired string* (:func:`scan_document` replays
    that re-parse inline), never the repair's intermediate tree.
    Raw text (script/style) is serialized verbatim, so a second repair
    does not escape it again.
    """
    report = RepairReport(issues=detect_markup_issues(html))
    try:
        tree = parse_html(html)
    except RecursionError:  # pathological nesting depth
        report.transcodable = False
        report.issues.append("untranscodable")
        return "<html><body></body></html>", report
    n_elements = sum(1 for node in tree.walk() if not node.is_text)
    if n_elements <= 1 and len(html) > 200:
        report.transcodable = False
        report.issues.append("untranscodable")
        return "<html><body></body></html>", report
    return serialize(tree), report


class _ReparseHazard(Exception):
    """The parse built an adjacency whose serialized form would be
    restructured on re-parse, so the fused normalisation is unsound."""


def scan_document(html: str, sink) -> tuple[list[str], str, bool]:
    """Stream the tree ``parse_html(repair_html(html)[0])`` would
    build into ``sink`` as preorder ``enter(tag)`` / ``text(str)`` /
    ``exit(tag)`` events, in one tokenizer pass and without building it.

    The tag/stack mechanics mirror ``parse_html`` exactly (the stack
    holds tag names only); what differs is how the *reparse of the
    serialized tree* is replayed inline:

    * Text runs that ``parse_html`` would append as adjacent text nodes
      (stray ``<``, ignored closers between runs) are buffered per open
      element and emitted as one ``text`` event.  Serialize escapes
      each run and the re-parse unescapes the concatenation; since
      escaping leaves no naked ``&``, that round-trip is the identity
      on the already-unescaped runs, so merging is plain concatenation
      of the runs that individually survive the whitespace keep-check.
    * Attribute values round-trip ``_escape_attr``/``unescape``
      unchanged, so ``parse_attrs`` output is used as-is.
    * Raw-text (script/style) content is never a ``text`` event (no
      extractor renders it); inside ``<title>`` it joins the title
      verbatim, since serialize emits it unescaped and the re-parse
      never unescapes it.

    Raises :class:`_ReparseHazard` for the one case re-serialization is
    not structure-preserving: an element whose tag implicitly closes
    its own parent (e.g. ``tr`` directly under ``tr``, which the first
    parse can build via a single-level implicit close but a re-parse
    would hoist).  Callers scan the repaired string instead there.

    Returns the ``href`` of every ``<a>`` in open order ('' if absent),
    the text of the first ``<title>``, and :func:`repair_html`'s
    transcodability screen (some structure, or a short input).
    """
    transcodable = len(html) <= 200
    html = strip_declarations(html)
    enter, emit, leave = sink.enter, sink.text, sink.exit
    stack = ["#root"]
    pending: list[str] = []  # text runs of the innermost open element
    hrefs: list[str] = []
    title: list[str] = []
    # None until the first <title> opens, then the stack depth that
    # keeps it open (0 once it has closed).
    title_depth: int | None = None
    position = 0
    length = len(html)
    lowered: str | None = None
    find = html.find
    tag_match = _TAG_RE.match
    while position < length:
        lt = find("<", position)
        if lt != position:
            raw = html[position:] if lt < 0 else html[position:lt]
            text = unescape(raw) if "&" in raw else raw
            if text.strip():
                pending.append(text)
            if lt < 0:
                break
        match = tag_match(html, lt)
        if match is None:
            # A stray '<' that is not a tag: text, merged into the run.
            pending.append("<")
            position = lt + 1
            continue
        position = match.end()
        close, name, attrs, self_closing = match.groups()
        name = name.lower()
        if close:
            # An ignored stray closer must NOT flush the buffered run,
            # so the runs around it merge like the reparse would.
            depth = len(stack) - 1
            while depth and stack[depth] != name:
                depth -= 1
            if not depth:
                continue
        else:
            closes = _AUTO_CLOSE.get(name)
            depth = len(stack)
            if closes:
                if depth > 1 and stack[-1] in closes:
                    depth -= 1
                if stack[depth - 1] in closes:
                    raise _ReparseHazard(name)
        if pending:
            text = "".join(pending)
            pending.clear()
            emit(text)
            if title_depth:
                title.append(text.strip())
        while len(stack) > depth:
            leave(stack.pop())
        if title_depth and depth < title_depth:
            title_depth = 0
        if close:
            continue
        transcodable = True
        enter(name)
        if name == "a":
            hrefs.append(parse_attrs(attrs).get("href", ""))
        elif name == "title" and title_depth is None:
            title_depth = 0 if self_closing else depth + 1
        if name in RAW_TEXT_ELEMENTS:
            # Opaque script/style content: scan for the closer only.
            if lowered is None:
                lowered = html.lower()
            closer = lowered.find(f"</{name}", position)
            if closer < 0:
                closer = length
            if title_depth:
                text = html[position:closer].strip()
                if text:
                    title.append(text)
            end = find(">", closer)
            position = (end + 1) if end >= 0 else length
            leave(name)
        elif name in VOID_ELEMENTS or self_closing:
            leave(name)
        else:
            stack.append(name)
    if pending:
        text = "".join(pending)
        emit(text)
        if title_depth:
            title.append(text.strip())
    while len(stack) > 1:
        leave(stack.pop())
    return hrefs, " ".join(title), transcodable


def strip_markup(html: str) -> str:
    """Remove all markup, returning the concatenated text content
    (the WA package's ``remove markup`` operator)."""
    tree = parse_html(html)
    return tree.get_text(separator=" ")
