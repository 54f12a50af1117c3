"""Learned MIME-type detection (a Section 5 research gap).

The paper: "we are not aware of any robust tools or ongoing research
for reliable MIME-type detection; instead, detecting MIME-types
usually is carried out by regular expression matching on the file name
extension or by analyzing the first n bytes".  This module prototypes
the missing piece: a statistical detector over *content statistics* of
the whole payload — byte-class histograms, printability, tag density,
line structure — trained with Naïve Bayes over quantized features.

It catches what magic bytes structurally cannot: binary payloads whose
leading bytes were stripped or rewritten by a mislabeling server, and
text payloads with binary-looking prefixes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

TEXT_CLASS = "textual"
BINARY_CLASS = "binary"


@dataclass(frozen=True)
class PayloadFeatures:
    """Quantized content statistics of one payload."""

    printable_bucket: int      # 0-10 (fraction of printable chars)
    whitespace_bucket: int     # 0-10
    tag_density_bucket: int    # 0-10 ('<' per 100 chars, capped)
    digit_bucket: int          # 0-10
    high_byte_bucket: int      # 0-10 (chars above U+007F)
    entropy_bucket: int        # 0-10 (byte entropy, 0-8 bits scaled)

    def as_items(self) -> list[tuple[str, int]]:
        return [("printable", self.printable_bucket),
                ("whitespace", self.whitespace_bucket),
                ("tags", self.tag_density_bucket),
                ("digits", self.digit_bucket),
                ("high", self.high_byte_bucket),
                ("entropy", self.entropy_bucket)]


def extract_features(payload: str, sample_chars: int = 4096,
                     ) -> PayloadFeatures:
    """Content statistics over a payload sample (whole-body, not just
    the magic-byte prefix)."""
    sample = payload[:sample_chars]
    if not sample:
        return PayloadFeatures(0, 0, 0, 0, 0, 0)
    n = len(sample)
    printable = sum(1 for c in sample
                    if c.isprintable() or c in "\n\r\t")
    whitespace = sum(1 for c in sample if c.isspace())
    tags = sample.count("<")
    digits = sum(1 for c in sample if c.isdigit())
    high = sum(1 for c in sample if ord(c) > 0x7F)
    counts = Counter(sample)
    entropy = -sum((c / n) * math.log2(c / n) for c in counts.values())

    def bucket(fraction: float) -> int:
        return max(0, min(10, int(fraction * 10)))

    return PayloadFeatures(
        printable_bucket=bucket(printable / n),
        whitespace_bucket=bucket(whitespace / n),
        tag_density_bucket=bucket(min(1.0, tags / n * 25)),
        digit_bucket=bucket(digits / n),
        high_byte_bucket=bucket(high / n),
        entropy_bucket=max(0, min(10, int(entropy / 8 * 10))),
    )


class MlMimeDetector:
    """Naïve Bayes over quantized content statistics.

    Binary textual/binary decision; intended as a *second opinion*
    behind magic-byte sniffing (see :func:`robust_is_textual`).
    """

    def __init__(self, smoothing: float = 1.0) -> None:
        self.smoothing = smoothing
        self._counts: dict[str, Counter] = {TEXT_CLASS: Counter(),
                                            BINARY_CLASS: Counter()}
        self._class_totals = {TEXT_CLASS: 0, BINARY_CLASS: 0}

    def update(self, payload: str, textual: bool) -> None:
        label = TEXT_CLASS if textual else BINARY_CLASS
        self._class_totals[label] += 1
        for item in extract_features(payload).as_items():
            self._counts[label][item] += 1

    def fit(self, examples: list[tuple[str, bool]]) -> "MlMimeDetector":
        for payload, textual in examples:
            self.update(payload, textual)
        return self

    @property
    def trained(self) -> bool:
        return all(self._class_totals.values())

    def probability_textual(self, payload: str) -> float:
        if not self.trained:
            raise RuntimeError("detector needs examples of both classes")
        log_odds = math.log(self._class_totals[TEXT_CLASS]
                            / self._class_totals[BINARY_CLASS])
        for item in extract_features(payload).as_items():
            p_text = ((self._counts[TEXT_CLASS][item] + self.smoothing)
                      / (self._class_totals[TEXT_CLASS]
                         + 11 * self.smoothing))
            p_binary = ((self._counts[BINARY_CLASS][item] + self.smoothing)
                        / (self._class_totals[BINARY_CLASS]
                           + 11 * self.smoothing))
            log_odds += math.log(p_text / p_binary)
        if log_odds > 500:
            return 1.0
        if log_odds < -500:
            return 0.0
        return 1.0 / (1.0 + math.exp(-log_odds))

    def is_textual(self, payload: str) -> bool:
        return self.probability_textual(payload) >= 0.5


def build_default_detector(seed: int = 47,
                           n_examples: int = 60) -> MlMimeDetector:
    """A detector trained on synthetic textual and binary payloads."""
    from repro.corpora.profiles import IRRELEVANT, RELEVANT
    from repro.corpora.textgen import DocumentGenerator
    from repro.corpora.vocabulary import BiomedicalVocabulary
    from repro.util import seeded_rng
    from repro.web.htmlgen import PageRenderer

    rng = seeded_rng("mime-ml", seed)
    vocabulary = BiomedicalVocabulary(seed=seed, n_genes=60,
                                      n_diseases=50, n_drugs=50)
    renderer = PageRenderer(seed=seed)
    examples: list[tuple[str, bool]] = []
    for index in range(n_examples):
        profile = RELEVANT if index % 2 else IRRELEVANT
        generator = DocumentGenerator(vocabulary, profile, seed=seed + 1)
        text = generator.text(index)
        examples.append((text, True))
        examples.append((renderer.render(
            f"http://t{index}.example.org/", "t", text, []), True))
        binary = "".join(chr(rng.randint(0, 255))
                         for _ in range(rng.randint(400, 3000)))
        examples.append((binary, False))
    return MlMimeDetector().fit(examples)


def robust_is_textual(payload: str, url: str = "", declared: str = "",
                      detector: MlMimeDetector | None = None) -> bool:
    """Magic bytes first, learned content statistics as tie-breaker.

    Disagreements between prefix sniffing and whole-body statistics
    resolve toward the statistics — a stripped-prefix binary stays
    binary, a text file with a binary-looking first line stays text.
    """
    from repro.html.mime import is_textual, sniff_mime

    prefix_verdict = is_textual(sniff_mime(payload, url, declared))
    if detector is None or not detector.trained:
        return prefix_verdict
    content_verdict = detector.is_textual(payload)
    return content_verdict if prefix_verdict != content_verdict \
        else prefix_verdict
