"""The paper's primary contribution: consolidated web-scale text
analytics.

* :mod:`repro.core.pipeline` — one object bundling every trained tool
  (classifier, splitter, HMM tagger, six entity taggers, boilerplate
  detector, language identifier);
* :mod:`repro.core.flows` — the consolidated Fig. 2 data flow (the
  paper's 38 elementary operators plus the relation-records sink) and
  its linguistic / entity sub-flows;
* :mod:`repro.core.analysis` — the Section 4.3 content analysis
  (linguistic properties, entity statistics, overlaps, divergences);
* :mod:`repro.core.experiment` — a cached experiment context shared by
  examples and benchmarks.
"""

from repro.core.pipeline import TextAnalyticsPipeline
from repro.core.flows import (
    build_fig2_flow, build_linguistic_flow, build_entity_flow,
    run_flow, EXECUTION_MODES, FIG2_METEOR_SCRIPT,
)
from repro.core.analysis import (
    CorpusStats, analyze_corpus, compare_corpora, entity_overlap,
    jsd_between,
)
from repro.core.experiment import ReproductionContext, default_context

__all__ = [
    "TextAnalyticsPipeline",
    "build_fig2_flow",
    "build_linguistic_flow",
    "build_entity_flow",
    "run_flow",
    "EXECUTION_MODES",
    "FIG2_METEOR_SCRIPT",
    "CorpusStats",
    "analyze_corpus",
    "compare_corpora",
    "entity_overlap",
    "jsd_between",
    "ReproductionContext",
    "default_context",
]
