"""Tolerant HTML tokenizer and tree builder.

A small, forgiving HTML parser: it never raises on malformed markup.
Unclosed tags are auto-closed, stray closers are dropped, unquoted
attribute values are accepted, and ``<script>``/``<style>`` content is
treated as opaque raw text.  The tree is the substrate for markup
repair and markup removal; every other reader of a page streams the
repaired tree through :func:`repro.html.repair.scan_document` instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html import unescape
from typing import Iterator

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

# Serialization writes script/style text verbatim, so no markup it adds
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


@dataclass(slots=True)
class HtmlNode:
    """An element or text node.

    Text nodes have ``tag == '#text'`` and carry ``text``; element
    nodes carry ``attrs`` and ``children``.
    """

    tag: str
    attrs: dict[str, str] = field(default_factory=dict)
    children: list["HtmlNode"] = field(default_factory=list)
    text: str = ""

    @property
    def is_text(self) -> bool:
        return self.tag == "#text"

    def append(self, node: "HtmlNode") -> None:
        self.children.append(node)

    def walk(self) -> Iterator["HtmlNode"]:
        # Iterative preorder (same order as the natural recursion, at a
        # fraction of the generator-frame overhead on deep trees).
        stack = [self]
        pop = stack.pop
        while stack:
            node = pop()
            yield node
            children = node.children
            if children:
                stack.extend(reversed(children))

    def get_text(self, separator: str = " ") -> str:
        parts = [n.text for n in self.walk() if n.is_text and n.text.strip()]
        return separator.join(p.strip() for p in parts)


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


def parse_html(html: str) -> HtmlNode:
    """Parse HTML into a tree rooted at a synthetic ``#root`` node.

    Never raises on malformed input: unknown closers are ignored,
    unclosed elements are closed at end of input, and mis-nested
    closers close up to the nearest matching ancestor.
    """
    html = strip_declarations(html)
    root = HtmlNode("#root")
    stack = [root]
    position = 0
    length = len(html)
    raw_until: str | None = None
    lowered: str | None = None  # lazily lowercased once, for raw-text scans
    find = html.find
    tag_match = _TAG_RE.match
    while position < length:
        if raw_until is not None:
            # Opaque script/style content: scan for the closer only.
            if lowered is None:
                lowered = html.lower()
            closer = lowered.find(f"</{raw_until}", position)
            if closer < 0:
                closer = length
            text = html[position:closer]
            if text:
                stack[-1].append(HtmlNode("#text", text=text))
            end = find(">", closer)
            position = (end + 1) if end >= 0 else length
            if stack[-1].tag == raw_until and len(stack) > 1:
                stack.pop()
            raw_until = None
            continue
        lt = find("<", position)
        if lt < 0:
            _append_text(stack[-1], html[position:])
            break
        if lt > position:
            _append_text(stack[-1], html[position:lt])
        match = tag_match(html, lt)
        if match is None:
            # A stray '<' that is not a tag: treat as text.
            _append_text(stack[-1], "<")
            position = lt + 1
            continue
        position = match.end()
        close, name, attrs, self_closing = match.group(
            "close", "name", "attrs", "self")
        name = name.lower()
        if close:
            # Common case inlined: the closer matches the innermost
            # open element; mis-nesting falls through to _close_tag.
            if stack[-1].tag == name and len(stack) > 1:
                stack.pop()
            else:
                _close_tag(stack, name)
            continue
        node = HtmlNode(name, attrs=parse_attrs(attrs or ""))
        closes = _AUTO_CLOSE.get(name)
        if closes and len(stack) > 1 and stack[-1].tag in closes:
            stack.pop()
        stack[-1].append(node)
        if name in RAW_TEXT_ELEMENTS:
            stack.append(node)
            raw_until = name
        elif name not in VOID_ELEMENTS and not self_closing:
            stack.append(node)
    return root


def strip_declarations(html: str) -> str:
    """Remove comments and doctypes, again until a removal no longer
    joins its neighbours into a new one (``<!<!-- x -->-->-->``): the
    raw text left is serialized verbatim, so it must hold none."""
    while True:
        html, comments = _COMMENT_RE.subn("", html)
        html, doctypes = _DOCTYPE_RE.subn("", html)
        if not (comments or doctypes):
            return html


def _append_text(parent: HtmlNode, raw: str) -> None:
    text = unescape(raw) if "&" in raw else raw
    if text.strip():
        parent.append(HtmlNode("#text", text=text))


def _close_tag(stack: list[HtmlNode], name: str) -> None:
    """Close ``name``: pop to the matching ancestor, or ignore."""
    for depth in range(len(stack) - 1, 0, -1):
        if stack[depth].tag == name:
            del stack[depth:]
            return
    # No matching open element: stray closer, ignored (tolerance).


_AUTO_CLOSE = {
    "p": {"p"},
    "li": {"li"},
    "tr": {"tr", "td", "th"},
    "td": {"td", "th"},
    "th": {"td", "th"},
    "option": {"option"},
}


def serialize(node: HtmlNode) -> str:
    """Serialize a tree back to well-formed HTML."""
    if node.is_text:
        return _escape_text(node.text)
    if node.tag in RAW_TEXT_ELEMENTS:
        # Raw text is never unescaped by the parse, so escaping it here
        # would change it on every repair.
        inner = "".join([child.text for child in node.children])
    else:
        inner = "".join([serialize(child) for child in node.children])
    if node.tag == "#root":
        return inner
    if node.attrs:
        attrs = "".join([f' {k}="{_escape_attr(v)}"'
                         for k, v in node.attrs.items()])
    else:
        attrs = ""
    if node.tag in VOID_ELEMENTS:
        return f"<{node.tag}{attrs}>"
    return f"<{node.tag}{attrs}>{inner}</{node.tag}>"


_NEEDS_ESCAPE_RE = re.compile(r"[&<>]")


def _escape_text(text: str) -> str:
    if _NEEDS_ESCAPE_RE.search(text) is None:
        return text
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(value: str) -> str:
    return _escape_text(value).replace('"', "&quot;")
