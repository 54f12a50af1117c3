"""Page parsing: outlink and title extraction (Nutch parser analog).

Every extractor comes in two forms: a string-input convenience wrapper
that parses the page itself, and a ``*_from_tree`` variant that walks
an already-parsed DOM, so a caller holding a tree feeds it to
boilerplate segmentation, link extraction, and title extraction
instead of re-parsing for each.  The crawler holds no tree at all: its
tokenizer pass collects the raw hrefs and :func:`resolve_hrefs` is the
half of link extraction it still needs.
"""

from __future__ import annotations

from repro.html.dom import (
    anchor_hrefs, extract_title_from_tree, HtmlNode, parse_html,
)
from repro.web.urls import normalize, resolve


def extract_links(html: str, base_url: str) -> list[str]:
    """All resolved, deduplicated outlinks of a page.

    Skips fragments-only, ``javascript:`` and ``mailto:`` links, and
    self-links.
    """
    return extract_links_from_tree(parse_html(html), base_url)


def extract_links_from_tree(tree: HtmlNode, base_url: str) -> list[str]:
    """Outlinks of an already-parsed page (see :func:`extract_links`)."""
    return resolve_hrefs(anchor_hrefs(tree), base_url)


def resolve_hrefs(hrefs: list[str], base_url: str) -> list[str]:
    """Resolve raw anchor hrefs against the page URL, keeping the first
    occurrence of each outlink (see :func:`extract_links`)."""
    base = normalize(base_url)
    links: list[str] = []
    seen: set[str] = set()
    for href in hrefs:
        href = href.strip()
        if not href or href.startswith("#"):
            continue
        lowered = href.lower()
        if lowered.startswith(("javascript:", "mailto:", "tel:")):
            continue
        resolved = resolve(base, href)
        if not resolved.startswith(("http://", "https://")):
            continue
        if resolved == base or resolved in seen:
            continue
        seen.add(resolved)
        links.append(resolved)
    return links


def extract_title(html: str) -> str:
    """The page title ('' if absent)."""
    return extract_title_from_tree(parse_html(html))
