"""Tolerant HTML tokenizer: one streaming parse.

A small, forgiving HTML parser: it never raises on malformed markup.
Unclosed tags are auto-closed, stray closers are dropped, unquoted
attribute values are accepted, and ``<script>``/``<style>`` content is
treated as opaque raw text.  :func:`parse_stream` builds no tree: it
streams the parse as preorder events into a sink, and every reader of
markup is such a sink — the repair serializer and markup removal
(:mod:`repro.html.repair`) and the page scan
(:func:`repro.html.boilerplate.scan_page`).
"""

from __future__ import annotations

import re
from html import unescape

#: Elements that never have children (no closing tag expected).
VOID_ELEMENTS = frozenset({
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
})
#: Elements whose raw content is not parsed as HTML.
RAW_TEXT_ELEMENTS = frozenset({"script", "style"})
#: Block-level elements: text-block boundaries for boilerplate analysis.
BLOCK_ELEMENTS = frozenset({
    "address", "article", "aside", "blockquote", "body", "center",
    "dd", "div", "dl", "dt", "fieldset", "figure", "footer", "form",
    "h1", "h2", "h3", "h4", "h5", "h6", "header", "hr", "html", "li",
    "main", "nav", "ol", "p", "pre", "section", "table", "td", "th",
    "tr", "ul",
})

# Repair writes script/style text verbatim, so no markup it adds
# may complete a comment or doctype that such text opened: a tag name
# never ends in '-' (no ``-->`` in ``</x-->``), and a doctype holds no
# '<' (it cannot reach the '>' of the closer after the text).
_TAG_RE = re.compile(
    r"<(?P<close>/)?(?P<name>[a-zA-Z][a-zA-Z0-9]*(?:-+[a-zA-Z0-9]+)*)"
    r"(?P<attrs>[^<>]*?)(?P<self>/)?>",
    re.DOTALL)
_ATTR_RE = re.compile(
    r"""(?P<name>[a-zA-Z][a-zA-Z0-9_:.-]*)\s*(?:=\s*(?P<value>"[^"]*"|'[^']*'|[^\s"'>]+))?""")
_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_DOCTYPE_RE = re.compile(r"<!DOCTYPE[^<>]*>", re.IGNORECASE)


def parse_attrs(raw: str) -> dict[str, str]:
    """Parse an attribute string tolerantly (unquoted values allowed).

    On duplicate attributes the first occurrence wins, matching common
    browser behaviour.
    """
    attrs: dict[str, str] = {}
    if not raw or raw.isspace():
        return attrs
    for match in _ATTR_RE.finditer(raw):
        name, value = match.group("name", "value")
        name = name.lower()
        value = value or ""
        if value[:1] in ("'", '"') and value[-1:] == value[:1]:
            value = value[1:-1]
        if name not in attrs:
            attrs[name] = unescape(value) if "&" in value else value
    return attrs


def strip_declarations(html: str) -> str:
    """Remove comments and doctypes, again until a removal no longer
    joins its neighbours into a new one (``<!<!-- x -->-->-->``): the
    raw text left is serialized verbatim, so it must hold none."""
    while True:
        html, comments = _COMMENT_RE.subn("", html)
        html, doctypes = _DOCTYPE_RE.subn("", html)
        if not (comments or doctypes):
            return html


_AUTO_CLOSE = {
    "p": {"p"},
    "li": {"li"},
    "tr": {"tr", "td", "th"},
    "td": {"td", "th"},
    "th": {"td", "th"},
    "option": {"option"},
}


def parse_stream(html: str, sink) -> tuple[bool, bool]:
    """Parse ``html`` once, streaming its tree into ``sink`` as
    preorder events, without building it:

    * ``enter(tag, attrs)`` — an element opens; ``attrs`` is its raw
      attribute string (for :func:`parse_attrs`);
    * ``text(runs)`` — the text nodes between two tag events: each run
      is unescaped and not all whitespace, a stray ``<`` is a run of
      its own, and an ignored stray closer does not split the runs;
    * ``raw(text)`` — the non-empty content of a script/style element,
      verbatim;
    * ``exit(tag)`` — the element closes (at once for void and
      self-closing elements).

    Never raises.  Returns ``(opened, sound)``: whether any element
    opened, and ``sound=False`` if an element opened directly under a
    parent its tag implicitly closes (``<tr><td>x<tr>`` puts a ``tr``
    under a ``tr``) — an adjacency that a parse of the repaired string
    does not rebuild.
    """
    html = strip_declarations(html)
    enter, emit, raw_text, leave = sink.enter, sink.text, sink.raw, sink.exit
    stack = ["#root"]
    runs: list[str] = []  # text nodes since the last tag event
    opened = False
    sound = True
    position = 0
    length = len(html)
    lowered: str | None = None  # lazily lowercased once, for raw-text scans
    find = html.find
    tag_match = _TAG_RE.match
    while position < length:
        lt = find("<", position)
        if lt != position:
            raw = html[position:] if lt < 0 else html[position:lt]
            text = unescape(raw) if "&" in raw else raw
            if text.strip():
                runs.append(text)
            if lt < 0:
                break
        match = tag_match(html, lt)
        if match is None:
            # A stray '<' that is not a tag: a text run of its own.
            runs.append("<")
            position = lt + 1
            continue
        position = match.end()
        close, name, attrs, self_closing = match.groups()
        name = name.lower()
        if close:
            # Close up to the nearest matching open element; a closer
            # with none is ignored and does not end the text runs.
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
                    sound = False
        if runs:
            emit(runs)
            runs = []
        while len(stack) > depth:
            leave(stack.pop())
        if close:
            continue
        opened = True
        enter(name, attrs)
        if name in RAW_TEXT_ELEMENTS:
            # Opaque script/style content: scan for the closer only.
            if lowered is None:
                lowered = html.lower()
            closer = lowered.find(f"</{name}", position)
            if closer < 0:
                closer = length
            if closer > position:
                raw_text(html[position:closer])
            end = find(">", closer)
            position = (end + 1) if end >= 0 else length
            leave(name)
        elif name in VOID_ELEMENTS or self_closing:
            leave(name)
        else:
            stack.append(name)
    if runs:
        emit(runs)
    while len(stack) > 1:
        leave(stack.pop())
    return opened, sound
