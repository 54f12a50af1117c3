"""The pre-optimisation per-page document pipeline, preserved verbatim.

This module snapshots the crawler's document stage exactly as it stood
before the single-parse refactor and the DOM/segmenter/URL
optimisations: the HTML tokenizer with its per-call unescapes and
per-tag helper calls, the recursive serializer, the recursive
boilerplate segmenter with unconditional flushes, uncached URL
resolution, and a document path that repairs once, re-repairs inside
boilerplate extraction, and re-parses for outlink extraction — four
tokenizer passes per page, and no title extraction.

It is the *measured baseline* of ``bench_crawl_throughput.py``: the
benchmark swaps :func:`legacy_process_document` into the crawl loop to
time the pre-change pipeline on the same simulated web, and asserts it
produces byte-identical crawl results (modulo the ``title`` metadata
the old path never extracted).  Model-level scoring goes through the
test oracles (``tests/nlp/language_oracle.detect_reference``,
``tests/classify/classifier_oracle.log_odds_reference``), which are the
pre-change implementations by construction.

Nothing here is exported for production use — the live pipeline lives
in :mod:`repro.crawler.parallel`.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field
from html import unescape
from typing import Iterator
from urllib.parse import urljoin, urlsplit, urlunsplit

from repro.crawler.parallel import DocumentOutcome, ProcessingContext
from repro.html.boilerplate import TextBlock
from tests.classify.classifier_oracle import log_odds_reference
from tests.nlp.language_oracle import detect_reference

# -- DOM (pre-optimisation tokenizer and serializer) --------------------------

VOID_ELEMENTS = frozenset({
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
})
RAW_TEXT_ELEMENTS = frozenset({"script", "style"})
BLOCK_ELEMENTS = frozenset({
    "address", "article", "aside", "blockquote", "body", "center",
    "dd", "div", "dl", "dt", "fieldset", "figure", "footer", "form",
    "h1", "h2", "h3", "h4", "h5", "h6", "header", "hr", "html", "li",
    "main", "nav", "ol", "p", "pre", "section", "table", "td", "th",
    "tr", "ul",
})

_TAG_RE = re.compile(
    r"<(?P<close>/)?(?P<name>[a-zA-Z][a-zA-Z0-9-]*)(?P<attrs>[^<>]*?)"
    r"(?P<self>/)?>",
    re.DOTALL)
_ATTR_RE = re.compile(
    r"""(?P<name>[a-zA-Z][a-zA-Z0-9_:.-]*)\s*(?:=\s*(?P<value>"[^"]*"|'[^']*'|[^\s"'>]+))?""")
_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_DOCTYPE_RE = re.compile(r"<!DOCTYPE[^>]*>", re.IGNORECASE)


@dataclass
class HtmlNode:
    tag: str
    attrs: dict[str, str] = field(default_factory=dict)
    children: list["HtmlNode"] = field(default_factory=list)
    text: str = ""
    parent: "HtmlNode | None" = field(default=None, repr=False, compare=False)

    @property
    def is_text(self) -> bool:
        return self.tag == "#text"

    def append(self, node: "HtmlNode") -> None:
        node.parent = self
        self.children.append(node)

    def find_all(self, tag: str) -> list["HtmlNode"]:
        found = []
        for node in self.walk():
            if node.tag == tag:
                found.append(node)
        return found

    def walk(self) -> Iterator["HtmlNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def get_text(self, separator: str = " ") -> str:
        parts = [n.text for n in self.walk() if n.is_text and n.text.strip()]
        return separator.join(p.strip() for p in parts)


def parse_attrs(raw: str) -> dict[str, str]:
    attrs: dict[str, str] = {}
    for match in _ATTR_RE.finditer(raw):
        name = match.group("name").lower()
        value = match.group("value") or ""
        if value[:1] in ("'", '"') and value[-1:] == value[:1]:
            value = value[1:-1]
        if name not in attrs:
            attrs[name] = unescape(value)
    return attrs


def parse_html(html: str) -> HtmlNode:
    html = _COMMENT_RE.sub("", html)
    html = _DOCTYPE_RE.sub("", html)
    root = HtmlNode("#root")
    stack = [root]
    position = 0
    raw_until: str | None = None
    while position < len(html):
        if raw_until is not None:
            closer = html.lower().find(f"</{raw_until}", position)
            if closer < 0:
                closer = len(html)
            text = html[position:closer]
            if text:
                stack[-1].append(HtmlNode("#text", text=text))
            end = html.find(">", closer)
            position = (end + 1) if end >= 0 else len(html)
            if stack[-1].tag == raw_until and len(stack) > 1:
                stack.pop()
            raw_until = None
            continue
        lt = html.find("<", position)
        if lt < 0:
            _append_text(stack[-1], html[position:])
            break
        if lt > position:
            _append_text(stack[-1], html[position:lt])
        match = _TAG_RE.match(html, lt)
        if match is None:
            _append_text(stack[-1], "<")
            position = lt + 1
            continue
        position = match.end()
        name = match.group("name").lower()
        if match.group("close"):
            _close_tag(stack, name)
            continue
        node = HtmlNode(name, attrs=parse_attrs(match.group("attrs") or ""))
        _implicit_close(stack, name)
        stack[-1].append(node)
        if name in RAW_TEXT_ELEMENTS:
            stack.append(node)
            raw_until = name
        elif name not in VOID_ELEMENTS and not match.group("self"):
            stack.append(node)
    return root


def _append_text(parent: HtmlNode, raw: str) -> None:
    text = unescape(raw)
    if text.strip():
        parent.append(HtmlNode("#text", text=text))


def _close_tag(stack: list[HtmlNode], name: str) -> None:
    for depth in range(len(stack) - 1, 0, -1):
        if stack[depth].tag == name:
            del stack[depth:]
            return


def _implicit_close(stack: list[HtmlNode], name: str) -> None:
    auto_close = {
        "p": {"p"},
        "li": {"li"},
        "tr": {"tr", "td", "th"},
        "td": {"td", "th"},
        "th": {"td", "th"},
        "option": {"option"},
    }
    closes = auto_close.get(name)
    if not closes:
        return
    if len(stack) > 1 and stack[-1].tag in closes:
        stack.pop()


def serialize(node: HtmlNode) -> str:
    if node.is_text:
        return _escape_text(node.text)
    inner = "".join(serialize(child) for child in node.children)
    if node.tag == "#root":
        return inner
    attrs = "".join(f' {k}="{_escape_attr(v)}"' for k, v in node.attrs.items())
    if node.tag in VOID_ELEMENTS:
        return f"<{node.tag}{attrs}>"
    return f"<{node.tag}{attrs}>{inner}</{node.tag}>"


def _escape_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(value: str) -> str:
    return _escape_text(value).replace('"', "&quot;")


# -- markup repair ------------------------------------------------------------

_UNQUOTED_ATTR_RE = re.compile(
    r"<[a-zA-Z][^<>]*?\s[a-zA-Z-]+=(?![\"'])[^\s<>\"']+")
_RAW_AMP_RE = re.compile(r"&(?![a-zA-Z]{2,8};|#\d{1,6};|#x[0-9a-fA-F]{1,6};)")
_DEPRECATED_RE = re.compile(r"<(font|center|marquee|blink)\b", re.IGNORECASE)


@dataclass
class RepairReport:
    issues: list[str] = field(default_factory=list)
    transcodable: bool = True


def detect_markup_issues(html: str) -> list[str]:
    issues: list[str] = []
    if _UNQUOTED_ATTR_RE.search(html):
        issues.append("unquoted_attr")
    if _RAW_AMP_RE.search(html):
        issues.append("raw_ampersand")
    if _DEPRECATED_RE.search(html):
        issues.append("deprecated_tag")
    if not re.search(r"</html\s*>\s*$", html.strip(), re.IGNORECASE):
        issues.append("truncated")
    opens = len(re.findall(r"<(?:div|p|li|ul|span|td|tr)\b", html))
    closes = len(re.findall(r"</(?:div|p|li|ul|span|td|tr)\s*>", html))
    if opens != closes:
        issues.append("unbalanced_tags")
    return issues


def repair_html(html: str) -> tuple[str, RepairReport]:
    """Repair markup; returns (well-formed HTML, report)."""
    report = RepairReport(issues=detect_markup_issues(html))
    try:
        tree = parse_html(html)
    except RecursionError:
        report.transcodable = False
        report.issues.append("untranscodable")
        return "<html><body></body></html>", report
    n_elements = sum(1 for node in tree.walk() if not node.is_text)
    if n_elements <= 1 and len(html) > 200:
        report.transcodable = False
        report.issues.append("untranscodable")
        return "<html><body></body></html>", report
    return serialize(tree), report


# -- URL resolution (uncached) ------------------------------------------------

def normalize(url: str) -> str:
    scheme, netloc, path, query, _fragment = urlsplit(url)
    scheme = scheme.lower()
    netloc = netloc.lower()
    if netloc.endswith(":80") and scheme == "http":
        netloc = netloc[:-3]
    if netloc.endswith(":443") and scheme == "https":
        netloc = netloc[:-4]
    if path == "":
        path = "/"
    return urlunsplit((scheme, netloc, path, query, ""))


def resolve(base: str, link: str) -> str:
    return normalize(urljoin(base, link))


# -- outlink extraction (re-parses the repaired page) -------------------------

def extract_links(html: str, base_url: str) -> list[str]:
    tree = parse_html(html)
    base = normalize(base_url)
    links: list[str] = []
    seen: set[str] = set()
    for anchor in tree.find_all("a"):
        href = anchor.attrs.get("href", "").strip()
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


# -- boilerplate segmentation (recursive walk, re-repairs its input) ----------

class _Segmenter:
    def __init__(self) -> None:
        self.blocks: list[TextBlock] = []
        self._words: list[str] = []
        self._anchor_words = 0
        self._path: list[str] = []
        self._anchor_depth = 0

    def walk(self, node: HtmlNode) -> None:
        if node.is_text:
            words = node.text.split()
            self._words.extend(words)
            if self._anchor_depth > 0:
                self._anchor_words += len(words)
            return
        is_block = node.tag in BLOCK_ELEMENTS
        if is_block:
            self.flush()
            self._path.append(node.tag)
        if node.tag == "a":
            self._anchor_depth += 1
        if node.tag not in ("script", "style"):
            for child in node.children:
                self.walk(child)
        if node.tag == "a":
            self._anchor_depth -= 1
        if is_block:
            self.flush()
            self._path.pop()

    def flush(self) -> None:
        if not self._words:
            self._anchor_words = 0
            return
        text = " ".join(self._words)
        path = ">".join(self._path)
        tag = self._path[-1] if self._path else ""
        self.blocks.append(TextBlock(
            text=text, n_words=len(self._words),
            n_anchor_words=self._anchor_words, tag_path=path,
            is_heading=tag.startswith("h") and len(tag) == 2,
            in_list=any(t in ("ul", "ol", "li", "table") for t in self._path)))
        self._words = []
        self._anchor_words = 0


def extract_net_text(html: str, detector) -> str:
    """The old ``BoilerplateDetector.extract``: always re-repairs, then
    segments with the recursive walk and classifies with the (shared,
    unchanged) NumWordsRules detector."""
    repaired, _report = repair_html(html)
    segmenter = _Segmenter()
    segmenter.walk(parse_html(repaired))
    segmenter.flush()
    return detector.join_content(detector.classify(segmenter.blocks))


# -- the pre-change per-page document stage -----------------------------------

def legacy_process_document(url: str, body: str, content_type: str,
                            context: ProcessingContext) -> DocumentOutcome:
    """Drop-in replacement for ``repro.crawler.parallel
    .process_document`` running the pre-change pipeline: repair, then
    re-repair + parse inside boilerplate extraction, then a third
    parse for outlinks, reference-implementation language detection
    and Naïve Bayes scoring, and no title extraction."""
    timings: dict[str, float] = {}
    started = time.perf_counter()
    mime_ok = context.filters.decide_payload(body, url, content_type)
    timings["filters"] = time.perf_counter() - started
    if not mime_ok:
        return DocumentOutcome(mime_ok=False, stage_seconds=timings)

    started = time.perf_counter()
    repaired, report = repair_html(body)
    timings["repair"] = time.perf_counter() - started
    if not report.transcodable:
        return DocumentOutcome(mime_ok=True, stage_seconds=timings)

    started = time.perf_counter()
    net_text = extract_net_text(repaired, context.boilerplate)
    timings["boilerplate"] = time.perf_counter() - started

    started = time.perf_counter()
    outlinks = extract_links(repaired, url)
    timings["parse"] = time.perf_counter() - started

    started = time.perf_counter()
    language = context.filters.language
    if detect_reference(language.identifier, net_text) != language.target:
        rejected_by = "language"
    elif not context.filters.length.accept(net_text):
        rejected_by = "length"
    else:
        rejected_by = ""
    timings["filters"] += time.perf_counter() - started
    outcome = DocumentOutcome(
        mime_ok=True, transcodable=True, net_text=net_text, title="",
        outlinks=outlinks, rejected_by=rejected_by, stage_seconds=timings)
    if rejected_by:
        return outcome

    started = time.perf_counter()
    odds = log_odds_reference(context.classifier, net_text)
    if odds > 500:
        probability = 1.0
    elif odds < -500:
        probability = 0.0
    else:
        probability = 1.0 / (1.0 + math.exp(-odds))
    outcome.relevant = probability >= context.classifier.decision_threshold
    timings["classify"] = time.perf_counter() - started
    return outcome
