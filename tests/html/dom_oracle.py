"""The HTML tree builder and serializer — the test-only oracle.

``src/`` parses a page once, streaming it as preorder events
(:func:`repro.html.dom.parse_stream`) into whichever sink reads it:
the repair serializer, markup removal and the page scan.  This is the
tree those events walk, built the way it was before: ``parse_html``
builds an :class:`HtmlNode` tree over the same tokenizer mechanics and
``serialize`` writes it back out recursively.  It is the ground truth
the three sinks are held to (``tests/html/test_scan_document.py``) and
the tree the other oracles walk (``boilerplate_oracle``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html import unescape
from typing import Iterator

from repro.html.dom import (
    _AUTO_CLOSE, _TAG_RE, parse_attrs, RAW_TEXT_ELEMENTS, strip_declarations,
    VOID_ELEMENTS,
)
from repro.html.repair import _escape_attr, _escape_text


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
