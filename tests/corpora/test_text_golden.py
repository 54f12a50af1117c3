"""Golden text suite: pinned digests of the synthetic corpora's text.

Classifier training, language profiles, the simulated web's pages and
every end-to-end repeat digest are functions of these strings, so a
change to the generator's RNG draw order, its spacing rule, the
run-on page branch or the web's short / long page assembly must fail
here first.  The digests were computed when every page was rendered
through the gold-annotated path.

Run under ``PYTHONHASHSEED=0`` and ``1`` in CI: nothing here may depend
on set or dict order.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.corpora.profiles import IRRELEVANT, MEDLINE, PMC, RELEVANT
from repro.corpora.textgen import DocumentGenerator
from repro.web.webgraph import WebGraph, WebGraphConfig

N_DOCS = 16

GENERATOR_DIGESTS = {
    "relevant":
        "6e5c06fe6edddc5aaee03e81d3e1ef2015065259a4d4de79c0ab1946a64cecb3",
    "irrelevant":
        "9da8d4ef3823dc81ef8de0d130799ab958c52495d420e0864b2aa2e03c623d1c",
    "medline":
        "1f1e0de62aac4b52e823c440540b55a95c449543ec13d4937a2cd926358c5952",
    "pmc":
        "b41612b5d0096dd6e432fe179172f9cba5bf39588fec7a2270caf63e21a3e8d3",
}

WEB_DIGEST = (
    "f589d75143af014abdff716cb14fad5a642cd7b7f13c45036f7951c33f7ef06d")


def _digest(texts) -> str:
    return hashlib.sha256("\x00".join(texts).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden_web() -> WebGraph:
    """A small web holding every page class body_text renders."""
    return WebGraph(WebGraphConfig(
        n_hosts=26, pages_per_host_mean=6.0, trap_host_fraction=0.2,
        long_page_fraction=0.05, seed=13))


@pytest.mark.parametrize("profile", [RELEVANT, IRRELEVANT, MEDLINE, PMC],
                         ids=lambda p: p.name)
def test_generator_text_digest(vocabulary, profile):
    generator = DocumentGenerator(vocabulary, profile, seed=41,
                                  pathological_fraction=0.3)
    texts = [generator.document(i).text for i in range(N_DOCS)]
    assert any(generator.document(i).document.meta.get("pathological")
               for i in range(N_DOCS))
    assert _digest(texts) == GENERATOR_DIGESTS[profile.name]


@pytest.mark.parametrize("profile", [RELEVANT, IRRELEVANT, MEDLINE, PMC],
                         ids=lambda p: p.name)
def test_text_equals_document_text(vocabulary, profile):
    generator = DocumentGenerator(vocabulary, profile, seed=41,
                                  pathological_fraction=0.3)
    texts = [generator.text(i) for i in range(N_DOCS)]
    assert texts == [generator.document(i).text for i in range(N_DOCS)]
    assert _digest(texts) == GENERATOR_DIGESTS[profile.name]


def test_web_covers_every_page_class(golden_web):
    pages = golden_web.pages.values()
    assert any(p.kind == "front" for p in pages)
    assert any(p.kind == "trap" for p in pages)
    assert any(p.language != "en" for p in pages)
    assert any(p.content_type.startswith("application/") for p in pages)
    assert any(p.length_class == "short" for p in pages)
    assert any(p.length_class == "long" for p in pages)


def test_web_body_text_digest(golden_web):
    texts = [f"{url}\n{golden_web.body_text(url)}"
             for url in golden_web.urls()]
    assert _digest(texts) == WEB_DIGEST


def test_gold_document_text_is_body_text(golden_web):
    for url in golden_web.urls():
        gold = golden_web.gold_document(url)
        assert gold.text == golden_web.body_text(url), url
        for sentence in gold.sentences:
            assert gold.text[sentence.start:sentence.end] == sentence.text
        for entity in gold.entities:
            mention = entity.mention
            assert gold.text[mention.start:mention.end] == mention.text
