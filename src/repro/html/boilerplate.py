"""Boilerplate detection with shallow text features (Boilerpipe analog).

Re-implements the densitometric approach of Kohlschütter et al. (paper
ref. [15]): segment a page into text blocks at block-level tag
boundaries, compute shallow features per block (word count, link
density, text density), and classify each block as content or
boilerplate with the classic ``NumWordsRules`` decision tree, taking
the previous and next blocks into account.

Like the original, it systematically under-extracts tables and lists —
short ``li``/``td`` blocks fall below the word-count thresholds — which
is exactly the recall failure the paper reports (98 % precision at 72 %
recall on crawled pages).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.html.dom import BLOCK_ELEMENTS, parse_attrs, parse_stream
from repro.html.repair import is_transcodable, repair_html

#: Characters per visual line, used for text density (Boilerpipe uses
#: a virtual 80-column wrap).
_WRAP_COLUMNS = 80


@dataclass(slots=True)
class TextBlock:
    """A contiguous run of text with shallow features."""

    text: str
    n_words: int
    n_anchor_words: int
    tag_path: str
    is_heading: bool = False
    in_list: bool = False
    is_content: bool | None = None

    @property
    def link_density(self) -> float:
        if self.n_words == 0:
            return 0.0
        return self.n_anchor_words / self.n_words

    @property
    def text_density(self) -> float:
        """Words per wrapped line (Kohlschütter's density measure)."""
        lines = max(1, len(self.text) // _WRAP_COLUMNS)
        return self.n_words / lines


class _Segmenter:
    """The page reader: accumulates text into blocks from the preorder
    parse events of a page, and collects its anchor hrefs and title."""

    #: Tags that put their contents "in a list" for block features.
    _LIST_TAGS = ("ul", "ol", "li", "table")

    def __init__(self) -> None:
        self.blocks: list[TextBlock] = []
        self._words: list[str] = []
        self._anchor_words = 0
        self._path: list[str] = []
        self._anchor_depth = 0
        #: Incremental mirrors of ``_path`` so flush() needs neither a
        #: join nor a scan: the joined path per depth, and how many
        #: open ancestors are list-ish tags.
        self._path_strs: list[str] = [""]
        self._list_depth = 0
        #: The raw ``href`` of every ``<a>`` in open order ('' if absent).
        self.hrefs: list[str] = []
        #: Text of the first ``<title>``; ``_open_titles`` counts the
        #: ``<title>``s open inside it, and is -1 once it has closed.
        self.title_parts: list[str] = []
        self._open_titles = 0

    def _push_block(self, tag: str) -> None:
        self._path.append(tag)
        joined = self._path_strs[-1]
        self._path_strs.append(f"{joined}>{tag}" if joined else tag)
        if tag in self._LIST_TAGS:
            self._list_depth += 1

    def _pop_block(self) -> None:
        tag = self._path.pop()
        self._path_strs.pop()
        if tag in self._LIST_TAGS:
            self._list_depth -= 1

    # The sink of ``dom.parse_stream``: the preorder of the parsed
    # tree.  A text event's runs are adjacent text nodes, which a parse
    # of the repaired string reads as one, so they are joined here.

    def enter(self, tag: str, attrs: str) -> None:
        if tag in BLOCK_ELEMENTS:
            self.flush()
            self._push_block(tag)
        elif tag == "a":
            self._anchor_depth += 1
            self.hrefs.append(parse_attrs(attrs).get("href", ""))
        elif tag == "title" and self._open_titles >= 0:
            self._open_titles += 1

    def text(self, runs: list[str]) -> None:
        text = "".join(runs)
        words = text.split()
        self._words.extend(words)
        if self._anchor_depth > 0:
            self._anchor_words += len(words)
        if self._open_titles > 0:
            self.title_parts.append(text.strip())

    def raw(self, text: str) -> None:
        # Script/style text is no block text; inside the title it is
        # title text.
        if self._open_titles > 0:
            text = text.strip()
            if text:
                self.title_parts.append(text)

    def exit(self, tag: str) -> None:
        if tag in BLOCK_ELEMENTS:
            self.flush()
            self._pop_block()
        elif tag == "a":
            self._anchor_depth -= 1
        elif tag == "title" and self._open_titles > 0:
            self._open_titles -= 1
            if not self._open_titles:
                self._open_titles = -1

    def flush(self) -> None:
        if not self._words:
            self._anchor_words = 0
            return
        text = " ".join(self._words)
        tag = self._path[-1] if self._path else ""
        self.blocks.append(TextBlock(
            text=text, n_words=len(self._words),
            n_anchor_words=self._anchor_words,
            tag_path=self._path_strs[-1],
            is_heading=tag.startswith("h") and len(tag) == 2,
            in_list=self._list_depth > 0))
        self._words = []
        self._anchor_words = 0


class ScannedPage(NamedTuple):
    """What every consumer of a web page reads off its repaired form:
    text blocks, raw anchor hrefs, title and the transcodable flag."""

    blocks: list[TextBlock]
    hrefs: list[str]
    title: str
    transcodable: bool


def scan_blocks(html: str) -> ScannedPage | None:
    """:func:`scan_page` in one parse; ``None`` on the rare page whose
    parse is not what a parse of its repaired string reads."""
    segmenter = _Segmenter()
    opened, sound = parse_stream(html, segmenter)
    if not sound:
        return None
    if not is_transcodable(html, opened):  # repaired to the empty document
        return ScannedPage([], [], "", False)
    segmenter.flush()
    return ScannedPage(segmenter.blocks, segmenter.hrefs,
                       " ".join(segmenter.title_parts), True)


def scan_page(html: str) -> ScannedPage:
    """Treat one *unrepaired* web page: exactly what a walk of the
    parsed ``repair_html(html)[0]`` would read.

    The one reader of a web page — the crawler's document stage, the
    dataflow's web operators and the boilerplate detector all call it.
    Almost every page takes the one-pass :func:`scan_blocks`; on the
    rare unsound parse it scans the repaired string instead, whose
    parse is sound and is the tree the repair's reader sees.
    """
    scanned = scan_blocks(html)
    if scanned is not None:
        return scanned
    repaired, report = repair_html(html)
    return scan_blocks(repaired)._replace(transcodable=report.transcodable)


def extract_blocks(html: str) -> list[TextBlock]:
    """Segment a page into text blocks (of its repaired form)."""
    return scan_page(html).blocks


class BoilerplateDetector:
    """NumWordsRules-style block classifier.

    The thresholds are Kohlschütter's published decision-tree values;
    they can be tuned for the precision/recall trade-off experiments.
    """

    def __init__(self, max_link_density: float = 1 / 3,
                 prev_link_density: float = 0.555556,
                 curr_words: int = 16, next_words: int = 15,
                 prev_words: int = 4, dense_curr_words: int = 40,
                 dense_next_words: int = 17) -> None:
        self.max_link_density = max_link_density
        self.prev_link_density = prev_link_density
        self.curr_words = curr_words
        self.next_words = next_words
        self.prev_words = prev_words
        self.dense_curr_words = dense_curr_words
        self.dense_next_words = dense_next_words

    def classify(self, blocks: list[TextBlock]) -> list[TextBlock]:
        """Label every block's ``is_content`` in place (and return them)."""
        for i, block in enumerate(blocks):
            prev_block = blocks[i - 1] if i > 0 else None
            next_block = blocks[i + 1] if i + 1 < len(blocks) else None
            block.is_content = self._is_content(prev_block, block, next_block)
        return blocks

    def _is_content(self, prev: TextBlock | None, curr: TextBlock,
                    next_: TextBlock | None) -> bool:
        if curr.link_density > self.max_link_density:
            return False
        prev_ld = prev.link_density if prev else 0.0
        prev_nw = prev.n_words if prev else 0
        next_nw = next_.n_words if next_ else 0
        if prev_ld <= self.prev_link_density:
            return (curr.n_words > self.curr_words
                    or next_nw > self.next_words
                    or prev_nw > self.prev_words)
        return (curr.n_words > self.dense_curr_words
                or next_nw > self.dense_next_words)

    def extract(self, html: str) -> str:
        """Repair, segment, classify, and join the content blocks."""
        return self.join_content(self.classify(scan_page(html).blocks))

    @staticmethod
    def join_content(blocks: list[TextBlock]) -> str:
        return " ".join(b.text for b in blocks if b.is_content)


def extract_content(html: str) -> str:
    """Extract net text with the default detector."""
    return BoilerplateDetector().extract(html)
