"""Page parsing: outlink and title extraction (Nutch parser analog).

Both extractors read the page's repaired form through
:func:`repro.html.boilerplate.scan_page`, the one reader of a web page.
The crawler's document stage calls ``scan_page`` itself and needs only
:func:`resolve_hrefs`, the other half of link extraction.
"""

from __future__ import annotations

from repro.html.boilerplate import scan_page
from repro.web.urls import normalize, resolve


def extract_links(html: str, base_url: str) -> list[str]:
    """All resolved, deduplicated outlinks of a page.

    Skips fragments-only, ``javascript:`` and ``mailto:`` links, and
    self-links.
    """
    return resolve_hrefs(scan_page(html).hrefs, base_url)


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
    return scan_page(html).title
