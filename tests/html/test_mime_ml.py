"""Tests for the learned MIME detector (Section 5 gap)."""

import pytest

from benchmarks.arms.mime_ml import (
    MlMimeDetector, build_default_detector, extract_features,
    robust_is_textual,
)
from repro.util import seeded_rng


@pytest.fixture(scope="module")
def detector():
    return build_default_detector(n_examples=30)


def _binary(seed=1, length=1500):
    rng = seeded_rng("binblob", seed)
    return "".join(chr(rng.randint(0, 255)) for _ in range(length))


ENGLISH = ("The patients received the treatment and the response "
           "improved significantly across the cohort. ") * 20


class TestFeatures:
    def test_text_features_high_printability(self):
        features = extract_features(ENGLISH)
        assert features.printable_bucket >= 9
        assert features.high_byte_bucket == 0

    def test_binary_features_high_entropy(self):
        features = extract_features(_binary())
        assert features.entropy_bucket >= 8
        assert features.printable_bucket < 9

    def test_html_tag_density(self):
        html = "<div><p>x</p><p>y</p></div>" * 30
        assert extract_features(html).tag_density_bucket > \
            extract_features(ENGLISH).tag_density_bucket

    def test_empty_payload(self):
        features = extract_features("")
        assert features.printable_bucket == 0


class TestDetector:
    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            MlMimeDetector().probability_textual("x")

    def test_classifies_text_and_binary(self, detector):
        assert detector.is_textual(ENGLISH)
        assert not detector.is_textual(_binary())

    def test_probability_bounds(self, detector):
        for payload in (ENGLISH, _binary(), "<html><body>x</body></html>"):
            assert 0.0 <= detector.probability_textual(payload) <= 1.0

    def test_accuracy_over_samples(self, detector):
        correct = total = 0
        for seed in range(20):
            total += 2
            correct += not detector.is_textual(_binary(seed))
            correct += detector.is_textual(ENGLISH[seed:] + ENGLISH)
        assert correct / total > 0.9


class TestRobustDetection:
    def test_catches_stripped_prefix_binary(self, detector):
        """The pitfall case: binary payload whose magic bytes are gone
        and whose server header lies — prefix sniffing calls it text,
        content statistics do not."""
        payload = "<html>" + _binary(7, 2500)
        from repro.html.mime import is_textual, sniff_mime

        assert is_textual(sniff_mime(payload, "http://h/x.html",
                                     "text/html"))  # fooled
        assert not robust_is_textual(payload, "http://h/x.html",
                                     "text/html", detector)

    def test_agrees_on_clean_cases(self, detector):
        assert robust_is_textual("<html><body>" + ENGLISH, "", "",
                                 detector)
        assert not robust_is_textual("%PDF-1.4" + _binary(3), "", "",
                                     detector)

    def test_without_detector_falls_back_to_prefix(self):
        assert robust_is_textual("<html><body>hello</body></html>")
