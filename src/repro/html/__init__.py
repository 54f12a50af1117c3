"""HTML treatment: parsing, repair, boilerplate removal, MIME sniffing.

The web-analytics (WA) part of the pipeline.  Real-world pages violate
the HTML standard ~95 % of the time (paper ref. [19]); the tolerant
parser and repairer here cope with the defect classes injected by
:mod:`repro.web.htmlgen`.  There is one parse,
:func:`repro.html.dom.parse_stream`, and it builds no tree: it streams
preorder events into a sink.  Repair and markup removal are sinks, and
so is every reader of a page — title, links and the Boilerpipe-style
text blocks (Kohlschütter et al.) — which reads its repaired form
through :func:`repro.html.boilerplate.scan_page`.
"""

from repro.html.repair import repair_html, RepairReport
from repro.html.boilerplate import (
    BoilerplateDetector, TextBlock, extract_blocks, extract_content,
)
from repro.html.mime import sniff_mime, is_textual
from repro.html.neardup import MinHasher, NearDuplicateFilter, jaccard

__all__ = [
    "MinHasher",
    "NearDuplicateFilter",
    "jaccard",
    "repair_html",
    "RepairReport",
    "BoilerplateDetector",
    "TextBlock",
    "extract_blocks",
    "extract_content",
    "sniff_mime",
    "is_textual",
]
