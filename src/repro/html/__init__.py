"""HTML treatment: parsing, repair, boilerplate removal, MIME sniffing.

The web-analytics (WA) part of the pipeline.  Real-world pages violate
the HTML standard ~95 % of the time (paper ref. [19]); the tolerant
parser and repairer here cope with the defect classes injected by
:mod:`repro.web.htmlgen`.  Every reader of a page — title, links and
the Boilerpipe-style text blocks (Kohlschütter et al.) — reads its
repaired form through one tokenizer pass,
:func:`repro.html.boilerplate.scan_page`; the DOM is built only where
repair and markup removal need it.
"""

from repro.html.dom import HtmlNode, parse_html
from repro.html.repair import repair_html, RepairReport
from repro.html.boilerplate import (
    BoilerplateDetector, TextBlock, extract_blocks, extract_content,
)
from repro.html.mime import sniff_mime, is_textual
from repro.html.neardup import MinHasher, NearDuplicateFilter, jaccard
from repro.html.mime_ml import MlMimeDetector, robust_is_textual

__all__ = [
    "MlMimeDetector",
    "robust_is_textual",
    "MinHasher",
    "NearDuplicateFilter",
    "jaccard",
    "HtmlNode",
    "parse_html",
    "repair_html",
    "RepairReport",
    "BoilerplateDetector",
    "TextBlock",
    "extract_blocks",
    "extract_content",
    "sniff_mime",
    "is_textual",
]
