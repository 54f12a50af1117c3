"""Document pre-selection filters.

The chain the paper applies between parsing and classification
(Section 2.1 / 4.1): MIME-type filter (drops 9.5 % of documents),
n-gram language filter (14 %), and document-length filter (17 %).
Each filter records accept/reject counts so the crawl report can
reproduce those attrition figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.html.mime import is_textual, sniff_mime
from repro.nlp.language import LanguageIdentifier


@dataclass
class FilterStats:
    """Accept/reject counters for one filter."""

    name: str
    accepted: int = 0
    rejected: int = 0

    @property
    def seen(self) -> int:
        return self.accepted + self.rejected

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.seen if self.seen else 0.0

    def record(self, ok: bool) -> None:
        if ok:
            self.accepted += 1
        else:
            self.rejected += 1


class MimeFilter:
    """Keeps textual payloads only, via magic-byte + extension sniffing."""

    name = "mime"

    def accept(self, body: str, url: str, declared: str) -> bool:
        return is_textual(sniff_mime(body, url, declared))


class LanguageFilter:
    """Keeps documents whose detected language matches the target."""

    name = "language"

    def __init__(self, identifier: LanguageIdentifier,
                 target: str = "en") -> None:
        self.identifier = identifier
        self.target = target

    def accept(self, text: str) -> bool:
        return self.identifier.detect(text) == self.target


class LengthFilter:
    """Keeps documents within [min_chars, max_chars] of net text."""

    name = "length"

    def __init__(self, min_chars: int = 250,
                 max_chars: int = 20_000) -> None:
        self.min_chars = min_chars
        self.max_chars = max_chars

    def accept(self, text: str) -> bool:
        return self.min_chars <= len(text) <= self.max_chars


@dataclass
class FilterChain:
    """MIME -> language -> length, applied in the paper's order.

    The MIME filter runs on the raw payload; language and length run
    on extracted net text.  ``stats`` accumulates per-filter attrition.
    """

    mime: MimeFilter
    language: LanguageFilter
    length: LengthFilter
    stats: dict[str, FilterStats] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in (self.mime.name, self.language.name, self.length.name):
            self.stats.setdefault(name, FilterStats(name))

    def accept_text(self, text: str) -> tuple[bool, str]:
        """Run the text-level filters; returns (ok, rejecting_filter)."""
        ok, rejected_by = self.decide_text(text)
        self.record_text(rejected_by)
        return ok, rejected_by

    # -- pure decisions vs. stat recording ----------------------------------
    #
    # The decision half of every filter is a pure function of its
    # input; only the attrition counters are stateful.  Splitting the
    # two lets the parallel crawl pipeline compute decisions in worker
    # processes and replay the counter updates on the coordinator in
    # batch order, so the recorded stats are byte-identical to a
    # sequential run.

    def decide_payload(self, body: str, url: str, declared: str) -> bool:
        """MIME decision only — records nothing."""
        return self.mime.accept(body, url, declared)

    def decide_text(self, text: str) -> tuple[bool, str]:
        """Language+length decisions only; returns (ok, rejecting_filter)."""
        if not self.language.accept(text):
            return False, "language"
        if not self.length.accept(text):
            return False, "length"
        return True, ""

    def record_payload(self, ok: bool) -> None:
        self.stats["mime"].record(ok)

    def record_text(self, rejected_by: str) -> None:
        """Replay the counters :meth:`decide_text` would have recorded:
        language always saw the page; length only if language passed."""
        self.stats["language"].record(rejected_by != "language")
        if rejected_by != "language":
            self.stats["length"].record(rejected_by != "length")

    def attrition_report(self) -> dict[str, float]:
        """Per-filter rejection rates (the 9.5 % / 14 % / 17 % figures)."""
        return {name: stats.rejection_rate
                for name, stats in self.stats.items()}
