"""Gold-standard set builders for component evaluation.

The paper evaluates three components on gold data: the relevance
classifier (10-fold CV on Medline-vs-CommonCrawl, plus a 200-page
manually-checked crawl sample), the boilerplate detector (1,906-page
gold set), and the NER tools.  These builders produce the equivalent
labelled sets from the synthetic substrate.
"""

from __future__ import annotations

import dataclasses

from repro.corpora.profiles import IRRELEVANT, MEDLINE, CorpusProfile
from repro.corpora.textgen import DocumentGenerator, GoldDocument
from repro.corpora.vocabulary import BiomedicalVocabulary


def build_classifier_gold(
        vocabulary: BiomedicalVocabulary, n_per_class: int,
        seed: int = 23) -> list[tuple[str, bool]]:
    """Labelled (text, is_relevant) pairs for classifier training.

    Mirrors the paper's training design: relevant examples are
    Medline-style abstracts, irrelevant ones are generic web text.
    This reproduces the training-set bias the paper notes (a typical
    Medline abstract is quite different from a typical web page).
    The relevant profile is widened: real Medline contains plenty of
    clinical / public-health abstracts with little molecular
    vocabulary, which is where the paper loses recall (83 % in CV).
    """
    wide_medline = dataclasses.replace(
        MEDLINE, topic_purity_alpha=2.6, topic_purity_beta=1.0)
    fringe_web = dataclasses.replace(
        IRRELEVANT, topic_purity_alpha=6.0, topic_purity_beta=1.0)
    relevant = DocumentGenerator(vocabulary, wide_medline, seed=seed)
    irrelevant = DocumentGenerator(vocabulary, fringe_web, seed=seed + 1)
    pairs: list[tuple[str, bool]] = []
    for i in range(n_per_class):
        pairs.append((relevant.text(i), True))
        pairs.append((irrelevant.text(i), False))
    return pairs


def build_boilerplate_gold(n_pages: int, seed: int = 29,
                           vocabulary: BiomedicalVocabulary | None = None,
                           ) -> list[tuple[str, str]]:
    """(html, expected_net_text) pairs for boilerplate evaluation.

    The paper's gold set has 1,906 pages; pass ``n_pages=1906`` for the
    same size.  Pages mix relevant and irrelevant content and include
    the markup-defect classes injected by the HTML renderer.
    """
    # Imported here to avoid a package cycle (repro.web uses corpora).
    from repro.web.htmlgen import PageRenderer

    vocabulary = vocabulary or BiomedicalVocabulary(seed=seed)
    renderer = PageRenderer(seed=seed)
    profiles = _page_profiles()
    pairs: list[tuple[str, str]] = []
    for i in range(n_pages):
        profile = profiles[i % len(profiles)]
        generator = DocumentGenerator(vocabulary, profile, seed=seed + 3)
        text = generator.text(i)
        html = renderer.render(
            url=f"http://gold.example.org/page{i}.html",
            title=f"Gold page {i}", body_text=text, outlinks=[],
            page_index=i)
        pairs.append((html, text))
    return pairs


def build_ner_gold(vocabulary: BiomedicalVocabulary,
                   profile: CorpusProfile, n_docs: int,
                   seed: int = 31) -> list[GoldDocument]:
    """Gold-annotated documents for NER training and evaluation."""
    generator = DocumentGenerator(vocabulary, profile, seed=seed)
    return generator.documents(n_docs)


def _page_profiles() -> list[CorpusProfile]:
    from repro.corpora.profiles import IRRELEVANT, RELEVANT

    return [RELEVANT, IRRELEVANT]
