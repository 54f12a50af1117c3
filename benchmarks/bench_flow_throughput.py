"""Fused one-pass annotation stage vs the reference operator chain.

End-to-end document throughput of the entity flow (Section 4.2's
scalability subject: POS + six entity taggers), executed two ways over
identical inputs: the elementary ``annotate_sentences → annotate_tokens
→ annotate_pos → taggers`` chain, and the plan with the fused
``annotate_entities_fused`` stage substituted
(:func:`repro.dataflow.optimizer.fuse_annotation_stage`).  Runs are
interleaved (reference, fused, reference, ...) so drift hits both arms
equally, timed min-of-3, with annotation caches cold (the bench
pipeline attaches none) and the sink-output digest asserted identical
on every round.

Artifacts: repo-root ``BENCH_flow.json`` (machine-readable timings and
digests) and ``out/flow_throughput.txt``.

``BENCH_SMOKE=1`` shrinks the corpus and skips the ratio gate (CI
timings are noise); the digest-equality assertions always hold.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

from reporting import format_table, write_report

from repro.annotations import Document
from repro.core.flows import build_entity_flow, run_flow
from repro.dataflow.executor import Executor

SMOKE = bool(os.environ.get("BENCH_SMOKE"))
N_DOCS = 6 if SMOKE else 24
ROUNDS = 3

#: The gate the fused stage must clear on end-to-end throughput.
TARGET_SPEEDUP = 1.5

REPO_ROOT = Path(__file__).resolve().parent.parent


def _digest(outputs: dict) -> str:
    payload = json.dumps(outputs, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_flow_throughput(ctx):
    pipeline = ctx.pipeline
    texts = [document.text
             for document in ctx.corpus_documents("relevant")[:N_DOCS]]

    def run(fuse: bool) -> tuple[float, str, int]:
        plan = build_entity_flow(pipeline, web_input=False)
        documents = [Document(f"doc-{index}", text)
                     for index, text in enumerate(texts)]
        started = time.perf_counter()
        if fuse:
            outputs, _report = run_flow(plan, documents, mode="sequential")
        else:  # the plan as built: the elementary reference chain
            outputs, _report = Executor("sequential").execute(plan,
                                                              documents)
        seconds = time.perf_counter() - started
        return seconds, _digest(outputs), len(outputs["entities"])

    # One untimed warmup per arm compiles every lazy kernel (frozen
    # CRF weights, merged automaton, numpy buffers) for both paths.
    run(False)
    run(True)

    reference_times: list[float] = []
    fused_times: list[float] = []
    n_mentions = 0
    for _round in range(ROUNDS):
        seconds, reference_digest, n_mentions = run(False)
        reference_times.append(seconds)
        seconds, fused_digest, n_fused = run(True)
        fused_times.append(seconds)
        assert fused_digest == reference_digest, \
            "fused stage diverged from the reference chain"
        assert n_fused == n_mentions

    reference_best = min(reference_times)
    fused_best = min(fused_times)
    speedup = reference_best / fused_best if fused_best else 0.0
    rows = [
        ["reference", f"{reference_best:.3f}",
         f"{N_DOCS / reference_best:.1f}"],
        ["fused", f"{fused_best:.3f}", f"{N_DOCS / fused_best:.1f}"],
    ]
    write_report(
        "flow_throughput",
        "One-pass fused annotation stage vs reference chain",
        [f"{N_DOCS} documents, {n_mentions} mentions, "
         f"min of {ROUNDS} interleaved rounds, caches cold",
         "",
         *format_table(["chain", "seconds", "docs/s"], rows),
         "",
         f"speedup: {speedup:.2f}x (gate {TARGET_SPEEDUP}x"
         f"{', skipped: smoke' if SMOKE else ''})"])
    (REPO_ROOT / "BENCH_flow.json").write_text(json.dumps({
        "smoke": SMOKE,
        "n_documents": N_DOCS,
        "n_mentions": n_mentions,
        "rounds": ROUNDS,
        "reference_seconds": reference_times,
        "fused_seconds": fused_times,
        "reference_best_seconds": reference_best,
        "fused_best_seconds": fused_best,
        "reference_docs_per_second": N_DOCS / reference_best,
        "fused_docs_per_second": N_DOCS / fused_best,
        "speedup": speedup,
        "digest": reference_digest,
        "digests_identical": True,
    }, indent=2) + "\n")

    if not SMOKE:
        assert speedup >= TARGET_SPEEDUP, (
            f"fused stage only {speedup:.2f}x over the reference chain")
