"""WA package: web-analytics operators.

Operators specific to web documents: markup detection/repair/removal,
boilerplate removal, link and title extraction, MIME/language/length
filtering, and URL utilities — the web-related front of the Fig. 2
flow.
"""

from __future__ import annotations

from typing import Iterable

from repro.annotations import Document
from repro.dataflow.operators import (
    FilterOperator, FlatMapOperator, MapOperator, Operator,
)
from repro.dataflow.packages import register
from repro.html.boilerplate import BoilerplateDetector, scan_page
from repro.html.mime import is_textual, sniff_mime
from repro.html.repair import detect_markup_issues, repair_html, strip_markup
from repro.nlp.language import LanguageIdentifier
from repro.web.urls import domain_of, host_of

#: What ``extract_links`` resolves against when a record has no url.
_UNKNOWN_BASE = "http://unknown.example/"


@register("filter_long_documents", "wa",
          "Drop extremely long raw documents")
def _filter_long_documents(max_chars: int = 500_000, **ann) -> Operator:
    def short_enough(document: Document) -> bool:
        return len(document.raw or document.text) <= max_chars
    ann.setdefault("selectivity", 0.98)
    return FilterOperator("filter_long_documents", short_enough,
                          reads=frozenset({"raw", "text"}), **ann)


@register("detect_markup_errors", "wa", "Detect HTML defect classes")
def _detect_markup_errors(**ann) -> Operator:
    def detect(document: Document) -> Document:
        document.meta["markup_issues"] = detect_markup_issues(
            document.raw or document.text)
        return document
    return MapOperator("detect_markup_errors", detect,
                       writes=frozenset({"markup_issues"}), **ann)


@register("repair_markup", "wa", "Repair HTML markup defects")
def _repair_markup(**ann) -> Operator:
    def repair(document: Document) -> Document:
        if document.raw:
            repaired, report = repair_html(document.raw)
            document.raw = repaired
            document.meta["transcodable"] = report.transcodable
        return document
    return MapOperator("repair_markup", repair, cost_per_record=2.0,
                       reads=frozenset({"raw"}),
                       writes=frozenset({"raw", "transcodable"}), **ann)


@register("remove_markup", "wa", "Strip all HTML markup into plain text")
def _remove_markup(**ann) -> Operator:
    def remove(document: Document) -> Document:
        if document.raw:
            document.text = strip_markup(document.raw)
        return document
    return MapOperator("remove_markup", remove,
                       reads=frozenset({"raw"}),
                       writes=frozenset({"text"}), **ann)


@register("remove_boilerplate", "wa",
          "Extract net text with shallow text features (Boilerpipe)")
def _remove_boilerplate(detector: BoilerplateDetector | None = None,
                        **ann) -> Operator:
    detector = detector or BoilerplateDetector()

    def extract(document: Document) -> Document:
        if document.raw:
            document.text = detector.extract(document.raw)
        return document
    operator = MapOperator("remove_boilerplate", extract,
                           cost_per_record=2.0, reads=frozenset({"raw"}),
                           writes=frozenset({"text"}), **ann)
    # Harvested by fuse_web_stage.
    operator.detector = detector
    return operator


@register("extract_links", "wa", "Extract resolved outlinks into meta")
def _extract_links(**ann) -> Operator:
    from repro.crawler.parser import extract_links as parse_links

    def extract(document: Document) -> Document:
        url = document.meta.get("url", _UNKNOWN_BASE)
        if document.raw:
            document.meta["outlinks"] = parse_links(document.raw, url)
        return document
    return MapOperator("extract_links", extract,
                       reads=frozenset({"raw", "url"}),
                       writes=frozenset({"outlinks"}), **ann)


@register("extract_title", "wa", "Extract the page title into meta")
def _extract_title(**ann) -> Operator:
    from repro.crawler.parser import extract_title as parse_title

    def extract(document: Document) -> Document:
        if document.raw:
            document.meta["title"] = parse_title(document.raw)
        return document
    return MapOperator("extract_title", extract,
                       reads=frozenset({"raw"}),
                       writes=frozenset({"title"}), **ann)


@register("treat_web_documents_fused", "wa",
          "Fused web treatment: repair, title, links, host and boilerplate "
          "from one page scan")
def _treat_web_documents_fused(detector: BoilerplateDetector,
                               steps: tuple[str, ...], cost: float = 1.0,
                               memory_mb: float = 64, startup: float = 0.0,
                               **ann) -> Operator:
    """The substitution target of
    :func:`repro.dataflow.optimizer.fuse_web_stage`: the replaced run's
    operators (``steps``, in plan order) computed from one
    :func:`~repro.html.boilerplate.scan_page` call per page, the call the
    crawler's document stage makes.  Writes exactly the meta keys and
    ``text`` the run wrote, in the same order, but leaves ``raw``
    unrepaired, which is why the pass substitutes it only where nothing
    downstream observes ``raw``.
    """
    from repro.crawler.parser import resolve_hrefs

    def treat(document: Document) -> Document:
        meta, raw = document.meta, document.raw
        page = scan_page(raw) if raw else None
        # The run's later steps skip a page that repairs to "" (no
        # element, no visible text); only a page with nothing scanned
        # can, so only that page pays the literal check.
        skip = page is None or (
            page.transcodable
            and not (page.blocks or page.hrefs or page.title)
            and not repair_html(raw)[0])
        for step in steps:
            if step == "detect_markup_errors":
                meta["markup_issues"] = detect_markup_issues(
                    raw or document.text)
            elif step == "annotate_host":
                _record_host(meta)
            elif step == "repair_markup":
                if page is not None:
                    meta["transcodable"] = page.transcodable
            elif skip:
                continue
            elif step == "extract_title":
                meta["title"] = page.title
            elif step == "extract_links":
                meta["outlinks"] = resolve_hrefs(
                    page.hrefs, meta.get("url", _UNKNOWN_BASE))
            else:  # remove_boilerplate
                document.text = detector.join_content(
                    detector.classify(page.blocks))
        return document
    return MapOperator("treat_web_documents_fused", treat,
                       cost_per_record=cost, memory_mb=memory_mb,
                       startup_seconds=startup, **ann)


@register("mime_filter", "wa", "Keep textual payloads (Tika-style sniff)")
def _mime_filter(**ann) -> Operator:
    def textual(document: Document) -> bool:
        payload = document.raw or document.text
        declared = document.meta.get("content_type", "")
        url = document.meta.get("url", "")
        return is_textual(sniff_mime(payload, url, declared))
    ann.setdefault("selectivity", 0.9)
    return FilterOperator(
        "mime_filter", textual,
        reads=frozenset({"raw", "text", "content_type", "url"}), **ann)


@register("language_filter", "wa", "Keep documents in the target language")
def _language_filter(identifier: LanguageIdentifier, target: str = "en",
                     **ann) -> Operator:
    def in_language(document: Document) -> bool:
        return identifier.detect(document.text) == target
    ann.setdefault("selectivity", 0.86)
    return FilterOperator("language_filter", in_language,
                          cost_per_record=2.0, reads=frozenset({"text"}),
                          **ann)


@register("length_filter", "wa", "Keep documents within a length band")
def _length_filter(min_chars: int = 250, max_chars: int = 20_000,
                   **ann) -> Operator:
    def in_band(document: Document) -> bool:
        return min_chars <= len(document.text) <= max_chars
    ann.setdefault("selectivity", 0.83)
    return FilterOperator("length_filter", in_band,
                          reads=frozenset({"text"}), **ann)


@register("annotate_host", "wa", "Record host and domain in meta")
def _annotate_host(**ann) -> Operator:
    def annotate(document: Document) -> Document:
        _record_host(document.meta)
        return document
    return MapOperator("annotate_host", annotate,
                       reads=frozenset({"url"}),
                       writes=frozenset({"host", "domain"}), **ann)


def _record_host(meta: dict) -> None:
    url = meta.get("url", "")
    meta["host"] = host_of(url)
    meta["domain"] = domain_of(url)


@register("outlinks_to_records", "wa", "Emit one edge record per outlink")
def _outlinks_to_records(**ann) -> Operator:
    def explode(document: Document) -> Iterable[dict]:
        source = document.meta.get("url", "")
        for target in document.meta.get("outlinks", []):
            yield {"source": source, "target": target}
    return FlatMapOperator("outlinks_to_records", explode,
                           reads=frozenset({"outlinks"}), **ann)


@register("dedup_by_url", "wa", "Drop documents with duplicate URLs")
def _dedup_by_url(**ann) -> Operator:
    from repro.dataflow.operators import UdfOperator

    def dedup(records):
        seen: set[str] = set()
        for document in records:
            url = document.meta.get("url", document.doc_id)
            if url in seen:
                continue
            seen.add(url)
            yield document
    return UdfOperator("dedup_by_url", dedup, selectivity=0.95, **ann)
