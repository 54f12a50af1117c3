"""Streaming fused execution benchmark.

The physical-execution half of the Section 4.2 war story, measured:
the executor materializing every edge against the same executor with
chain fusion on (in-process / fork processes), on the Fig. 2 flow over
a pipeline whose one dictionary trie is built from a large vocabulary.
All modes must produce byte-identical sink outputs.

Artifacts: ``out/BENCH_executor.json`` (machine-readable reports per
mode) and ``out/executor_fusion.txt``.

``BENCH_SMOKE=1`` shrinks every size for CI smoke runs; the
equivalence assertion always holds.
"""

from __future__ import annotations

import dataclasses
import json
import os

from reporting import OUT_DIR, format_table, write_report

from repro.core.flows import build_fig2_flow
from repro.corpora.vocabulary import BiomedicalVocabulary
from repro.dataflow.executor import EXECUTION_MODES, Executor
from repro.ner.dictionary import shared_dictionary
from repro.ner.taggers import build_dictionary_taggers
from repro.web.htmlgen import PageRenderer

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: Dictionary scale of the pipeline the flow runs.
N_GENES = 800 if SMOKE else 12_000
N_OTHER = 300 if SMOKE else 4_000
N_DOCS = 6 if SMOKE else 30
DOP = max(2, os.cpu_count() or 2)


def _flow_documents(ctx):
    renderer = PageRenderer(seed=7)
    documents = []
    for index, document in enumerate(
            ctx.corpus_documents("relevant")[:N_DOCS]):
        url = f"http://bench{index}.example.org/doc.html"
        document.raw = renderer.render(url, "t", document.text, [])
        document.meta.update({"url": url, "content_type": "text/html"})
        documents.append(document)
    return documents


def test_executor_fusion(ctx, benchmark):
    vocabulary = BiomedicalVocabulary(seed=11, n_genes=N_GENES,
                                      n_diseases=N_OTHER, n_drugs=N_OTHER)
    taggers = build_dictionary_taggers(vocabulary)
    dictionary = shared_dictionary(taggers.values())
    pipeline = dataclasses.replace(ctx.pipeline, dictionary_taggers=taggers)
    documents = _flow_documents(ctx)
    mode_reports: dict[str, object] = {}
    mode_outputs = {}
    for mode in EXECUTION_MODES:
        executor = Executor(mode, dop=DOP)
        plan = build_fig2_flow(pipeline)
        copies = [d.copy_shallow() for d in documents]
        if mode == "fused":
            outputs, report = benchmark.pedantic(
                lambda: executor.execute(plan, copies),
                rounds=1, iterations=1)
        else:
            outputs, report = executor.execute(plan, copies)
        mode_outputs[mode] = outputs
        mode_reports[mode] = report
    reference = mode_outputs["sequential"]
    for mode, outputs in mode_outputs.items():
        assert outputs == reference, f"{mode} diverged from sequential"

    rows = [[mode, f"{mode_reports[mode].total_seconds:.2f}",
             mode_reports[mode].n_fused_stages,
             f"{mode_reports[mode].total_records_per_second:.1f}"]
            for mode in EXECUTION_MODES]
    lines = [
        f"dictionaries: {dictionary.n_patterns} patterns "
        f"({N_GENES} genes, {N_OTHER} diseases, {N_OTHER} drugs), "
        f"built in {dictionary.build_seconds:.2f} s",
        "",
        *format_table(["mode", "exec s", "fused stages", "docs/s"], rows),
    ]
    write_report("executor_fusion", "Fused execution (war story, local)",
                 lines)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_executor.json").write_text(json.dumps({
        "smoke": SMOKE,
        "n_patterns": dictionary.n_patterns,
        "dictionary_build_seconds": dictionary.build_seconds,
        "dop": DOP,
        "modes": {mode: report.to_dict()
                  for mode, report in mode_reports.items()},
    }, indent=2))
