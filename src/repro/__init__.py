"""repro — reproduction of "Potential and Pitfalls of Domain-Specific
Information Extraction at Web Scale" (Rheinländer et al., SIGMOD 2016).

An end-to-end system for domain-specific text analytics on (a
synthetic stand-in for) the open web:

* a focused crawler with Naïve Bayes relevance classification
  (:mod:`repro.crawler`, :mod:`repro.classify`) over a deterministic
  synthetic web (:mod:`repro.web`);
* web-document treatment: HTML repair, boilerplate removal, MIME
  sniffing (:mod:`repro.html`);
* statistical NLP: sentence/token detection, HMM POS tagging, language
  identification, linguistic regex analysis (:mod:`repro.nlp`);
* named-entity recognition with fuzzy dictionaries (a word-unit trie) and
  linear-chain CRFs (:mod:`repro.ner`);
* a Stratosphere-style dataflow system: operator packages, Meteor
  scripts, SOFA optimization, parallel execution, and a simulated
  cluster for scalability studies (:mod:`repro.dataflow`);
* the consolidated analysis flows and the content analysis of the
  paper's evaluation (:mod:`repro.core`).

Quickstart::

    from repro.core import default_context
    ctx = default_context(corpus_docs=10, n_training_docs=25,
                          crf_iterations=20)
    crawl = ctx.crawl()
    print(f"harvest rate: {crawl.harvest_rate:.0%}")
    stats = ctx.corpus_stats()
    print({name: s.distinct_names('gene', 'ml') for name, s in stats.items()})
"""

from repro.annotations import (
    Document, EntityMention, LinguisticMention, Sentence, Span, Token,
)

__version__ = "1.0.0"

__all__ = [
    "Document",
    "EntityMention",
    "LinguisticMention",
    "Sentence",
    "Span",
    "Token",
    "__version__",
]
