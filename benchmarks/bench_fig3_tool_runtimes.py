"""Fig. 3: runtimes of IE tools vs. input length.

(a) POS tagging: linear in sentence length with large fluctuations and
crashes on pathological sentences; (b) entity annotation: dictionary
matching is essentially linear, CRF tagging is far slower — orders of
magnitude apart — and the BANNER-style quadratic feature set grows
superlinearly.  The BANNER analog is the test oracle
``tests/ner/banner_oracle.py``: the production taggers have no
quadratic template.

``test_kernel_throughput`` additionally measures the frozen annotator
kernels (docs/performance.md) against their reference implementations
(the test oracles ``tests/nlp/pos_oracle.py`` and
``tests/ner/crf_oracle.py``) and writes the numbers to repo-root
``BENCH_nlp.json``.
"""

import json
import os
import time
from pathlib import Path

import pytest
from reporting import format_table, write_report

from repro.annotations import Document
from repro.corpora.goldstandard import build_ner_gold
from repro.corpora.profiles import MEDLINE
from repro.ner.features import sentence_features
from repro.nlp.pos_hmm import TaggerCrash
from tests.ner.banner_oracle import BannerTagger
from tests.ner.crf_oracle import predict_reference
from tests.nlp.pos_oracle import tag_reference

BENCH_NLP_PATH = Path(__file__).resolve().parent.parent / "BENCH_nlp.json"


def _sentence_of(words: int) -> list[str]:
    base = ["the", "study", "shows", "a", "significant", "response",
            "in", "these", "patients", "with"]
    return [base[i % len(base)] for i in range(words)]


def test_fig3a_pos_runtime_vs_length(ctx, benchmark):
    tagger = ctx.pipeline.pos_tagger
    lengths = [10, 20, 40, 80, 160, 320, 500]
    rows = []
    timings = {}
    for length in lengths:
        words = _sentence_of(length)
        started = time.perf_counter()
        for _ in range(5):
            tagger.tag(words)
        elapsed = (time.perf_counter() - started) / 5
        timings[length] = elapsed
        rows.append([length, f"{elapsed * 1000:.2f} ms"])
    benchmark.pedantic(lambda: tagger.tag(_sentence_of(100)),
                       rounds=3, iterations=1)
    crashed = False
    try:
        tagger.tag(_sentence_of(700))
    except TaggerCrash:
        crashed = True
    rows.append([700, "CRASH (TaggerCrash)" if crashed else "ok"])
    lines = format_table(["sentence tokens", "tagging time"], rows)
    lines.append("")
    lines.append("paper Fig 3a: runtime linear in length with large "
                 "fluctuations; occasional crashes on very long "
                 "(>2000 char) sentences")
    write_report("fig3a_pos_runtime", "Fig. 3a — POS tagging runtime",
                 lines)
    # Linear-ish growth: 16x tokens => between 4x and 120x time.
    ratio = timings[320] / timings[20]
    assert 4 < ratio < 120
    assert crashed


def test_fig3b_dict_vs_ml_runtime(ctx, benchmark):
    """Dictionary automaton vs. the BANNER-analog CRF (quadratic
    feature machinery) on growing inputs."""
    pipeline = ctx.pipeline
    banner_like = BannerTagger.train(
        "gene", build_ner_gold(ctx.vocabulary, MEDLINE, 10, seed=6),
        max_iterations=8)
    document_sizes = [1, 2, 4, 8]
    base = ctx.corpus_documents("medline")
    rows = []
    gap_at_max = None
    for size in document_sizes:
        text = " ".join(d.text for d in base[:size])
        dict_doc = Document("d", text)
        started = time.perf_counter()
        pipeline.dictionary_taggers["gene"].annotate(dict_doc)
        dict_seconds = time.perf_counter() - started
        ml_doc = Document("m", text)
        pipeline.preprocess(ml_doc)
        started = time.perf_counter()
        banner_like.annotate(ml_doc)
        ml_seconds = time.perf_counter() - started
        rows.append([f"{len(text):,}", f"{dict_seconds * 1000:.1f} ms",
                     f"{ml_seconds * 1000:.1f} ms",
                     f"{ml_seconds / max(dict_seconds, 1e-9):.0f}x"])
        gap_at_max = ml_seconds / max(dict_seconds, 1e-9)
    benchmark.pedantic(
        lambda: pipeline.dictionary_taggers["gene"].annotate(
            Document("b", base[0].text)), rounds=3, iterations=1)
    lines = format_table(
        ["text chars", "dictionary", "ML (CRF)", "gap"], rows)
    lines.append("")
    lines.append("paper Fig 3b: dictionary- and ML-based methods differ "
                 "in runtime by up to three orders of magnitude")
    write_report("fig3b_ner_runtime",
                 "Fig. 3b — entity annotation runtime", lines)
    # ML decisively slower, growing with input. The paper measured
    # unoptimized tools; the frozen CRF kernel narrows the gap ~3x,
    # so the bound is correspondingly lower than three orders of
    # magnitude.
    assert gap_at_max > 8


@pytest.mark.slow
def test_fig3b_quadratic_feature_growth(ctx, benchmark):
    """BANNER-style quadratic context features: per-sentence tagging
    cost grows superlinearly with sentence length."""
    training = build_ner_gold(ctx.vocabulary, MEDLINE, 10, seed=5)
    tagger = benchmark.pedantic(
        lambda: BannerTagger.train("gene", training, max_iterations=8),
        rounds=1, iterations=1)

    def time_tagging(n_words: int) -> float:
        text = " ".join(_sentence_of(n_words)) + "."
        document = Document("q", text)
        started = time.perf_counter()
        tagger.annotate(document)
        return time.perf_counter() - started

    short = min(time_tagging(25) for _ in range(3))
    long = min(time_tagging(100) for _ in range(3))
    lines = [
        f"25-token sentence:  {short * 1000:.1f} ms",
        f"100-token sentence: {long * 1000:.1f} ms",
        f"4x tokens -> {long / short:.1f}x time "
        "(superlinear: quadratic feature extraction)",
    ]
    write_report("fig3b_quadratic",
                 "Fig. 3b — quadratic CRF feature growth", lines)
    assert long / short > 6.0


def _best_seconds(fn, rounds: int, before=None) -> float:
    """Best of ``rounds`` timings of ``fn``; ``before`` runs untimed
    ahead of each."""
    best = float("inf")
    for _ in range(rounds):
        if before is not None:
            before()
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _bench_sentences(ctx, max_sentences: int) -> list[list[str]]:
    """Tokenized medline sentences (realistic mix of known words and
    unknown entity names for the POS shape path)."""
    sentences: list[list[str]] = []
    for document in ctx.corpus_documents("medline"):
        ctx.pipeline.preprocess(document)
        for sentence in document.sentences:
            words = [t.text for t in sentence.tokens]
            if words:
                sentences.append(words)
            if len(sentences) >= max_sentences:
                return sentences
    return sentences


def test_kernel_throughput(ctx, benchmark):
    """Frozen vs. reference annotator kernels: POS (array Viterbi) and
    CRF decode (dense trellis).

    The ``crf_decode`` rows time ``predict_batch`` on *pre-extracted*
    features, so they never included building the feature strings —
    the larger half of what a tagger pays per sentence.  The
    ``crf_words_to_labels`` rows time the whole step a tagger runs,
    words in, labels out: the reference, the feature path
    (``sentence_features`` + ``predict_batch``) and the word-type
    table with the table emptied before every round (cold) and left
    filled (warm).

    Writes repo-root BENCH_nlp.json — the committed evidence for the
    >=3x POS / >=2x CRF kernel speedups and the type table's >=2x over
    the feature path even cold (asserted here outside smoke mode;
    BENCH_SMOKE=1 shrinks the workload below timer stability and only
    checks that the harness runs end to end).
    """
    smoke = os.environ.get("BENCH_SMOKE") == "1"
    rounds = 2 if smoke else 4
    sentences = _bench_sentences(ctx, 40 if smoke else 400)
    n_tokens = sum(len(words) for words in sentences)
    tagger = ctx.pipeline.pos_tagger
    assert tagger.frozen  # pipeline.build freezes after training

    # -- POS: reference dict Viterbi vs. frozen kernel -------------------
    pos_reference = _best_seconds(
        lambda: [tag_reference(tagger, words) for words in sentences],
        rounds)
    pos_frozen = _best_seconds(
        lambda: [tagger.tag(words) for words in sentences], rounds)

    # -- CRF decode: per-sentence reference vs. vectorized batch ----------
    crf = ctx.pipeline.ml_taggers["disease"].crf
    features = [sentence_features(words) for words in sentences]
    crf_reference = _best_seconds(
        lambda: [predict_reference(crf, sentence) for sentence in features],
        rounds)
    crf_frozen = _best_seconds(lambda: crf.predict_batch(features), rounds)

    # -- CRF, words -> labels: what a tagger pays per uncached sentence ---
    expected = [predict_reference(crf, sentence) for sentence in features]
    assert crf.predict_words(sentences) == expected
    words_reference = _best_seconds(
        lambda: [predict_reference(crf, sentence_features(words))
                 for words in sentences], rounds)
    words_features = _best_seconds(
        lambda: crf.predict_batch([sentence_features(words)
                                   for words in sentences]), rounds)
    words_table_cold = _best_seconds(
        lambda: crf.predict_words(sentences), rounds, before=crf.freeze)
    words_table_warm = _best_seconds(
        lambda: crf.predict_words(sentences), rounds)
    n_types = len({word for words in sentences for word in words})

    benchmark.pedantic(lambda: [tagger.tag(words) for words in sentences],
                       rounds=2, iterations=1)

    def tokens_per_second(seconds: float) -> float:
        return n_tokens / seconds if seconds > 0 else float("inf")

    results = {
        "config": {"n_sentences": len(sentences), "n_tokens": n_tokens,
                   "rounds": rounds, "smoke": smoke},
        "pos": {
            "reference_tokens_per_sec": tokens_per_second(pos_reference),
            "frozen_tokens_per_sec": tokens_per_second(pos_frozen),
            "speedup_frozen": pos_reference / pos_frozen,
        },
        "crf_decode": {
            "reference_tokens_per_sec": tokens_per_second(crf_reference),
            "frozen_tokens_per_sec": tokens_per_second(crf_frozen),
            "speedup_frozen": crf_reference / crf_frozen,
        },
        "crf_words_to_labels": {
            "n_types": n_types,
            "types_per_token": n_types / n_tokens,
            "reference_tokens_per_sec": tokens_per_second(words_reference),
            "feature_path_tokens_per_sec":
                tokens_per_second(words_features),
            "type_table_cold_tokens_per_sec":
                tokens_per_second(words_table_cold),
            "type_table_warm_tokens_per_sec":
                tokens_per_second(words_table_warm),
            "speedup_cold_vs_feature_path":
                words_features / words_table_cold,
            "speedup_warm_vs_feature_path":
                words_features / words_table_warm,
        },
    }
    # Smoke runs (CI) keep their tiny-input numbers out of the
    # committed repo-root artifact.
    out_path = (Path(__file__).resolve().parent / "out" / "BENCH_nlp.json"
                if smoke else BENCH_NLP_PATH)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    lines = format_table(
        ["kernel", "reference", "frozen"],
        [["POS (tokens/s)",
          f"{results['pos']['reference_tokens_per_sec']:,.0f}",
          f"{results['pos']['frozen_tokens_per_sec']:,.0f}"],
         ["CRF decode (tokens/s)",
          f"{results['crf_decode']['reference_tokens_per_sec']:,.0f}",
          f"{results['crf_decode']['frozen_tokens_per_sec']:,.0f}"]])
    words_row = results["crf_words_to_labels"]
    lines.append("")
    lines.extend(format_table(
        ["CRF words -> labels", "tokens/s"],
        [["reference", f"{words_row['reference_tokens_per_sec']:,.0f}"],
         ["feature path",
          f"{words_row['feature_path_tokens_per_sec']:,.0f}"],
         ["type table, cold",
          f"{words_row['type_table_cold_tokens_per_sec']:,.0f}"],
         ["type table, warm",
          f"{words_row['type_table_warm_tokens_per_sec']:,.0f}"]]))
    lines.append(f"({n_types} word types over {n_tokens} tokens)")
    write_report("kernel_throughput",
                 "Frozen annotator kernel throughput", lines)
    if not smoke:
        assert results["pos"]["speedup_frozen"] >= 3.0
        assert results["crf_decode"]["speedup_frozen"] >= 2.0
        assert words_row["speedup_cold_vs_feature_path"] >= 2.0


def test_component_runtime_shares(ctx, benchmark):
    """Section 4.2: entity extraction ~70 % and POS ~12 % of the
    complete flow's runtime (measured on a 10k-document sample there;
    a smaller sample here)."""
    from repro.core.flows import build_fig2_flow
    from repro.dataflow.executor import Executor
    from repro.web.htmlgen import PageRenderer

    renderer = PageRenderer(seed=77)
    documents = []
    for index, document in enumerate(ctx.corpus_documents("relevant")[:6]):
        url = f"http://bench{index}.example.org/a.html"
        document.raw = renderer.render(url, "t", document.text, [])
        document.meta.update({"url": url, "content_type": "text/html"})
        documents.append(document)
    plan = build_fig2_flow(ctx.pipeline)
    _outputs, report = benchmark.pedantic(
        lambda: Executor().execute(
            plan, [d.copy_shallow() for d in documents]),
        rounds=1, iterations=1)
    total = sum(s.seconds for s in report.operator_stats)
    entity = sum(s.seconds for s in report.operator_stats
                 if "_dict" in s.name or "_ml" in s.name)
    pos = report.seconds_of("annotate_pos")
    lines = format_table(
        ["component", "paper share", "repro share"],
        [["entity extraction", "70 %", f"{entity / total:.0%}"],
         ["POS tagging", "12 %", f"{pos / total:.0%}"],
         ["everything else", "18 %",
          f"{(total - entity - pos) / total:.0%}"]])
    lines.append("")
    lines.append("note: our pure-Python HMM is slow relative to the "
                 "3-label CRFs (whose emissions are a per-word-type "
                 "table lookup), so the POS/entity split shifts versus "
                 "the paper's Java tools; the calibrated cluster cost "
                 "model (repro.dataflow.cluster.DEFAULT_COSTS) encodes "
                 "the paper's measured 70 % / 12 % split and drives the "
                 "Fig. 4/5 reproduction")
    write_report("component_shares",
                 "Section 4.2 — component runtime shares", lines)
    # The two ML-heavy stages jointly dominate the flow, and entity
    # extraction is the single largest component, as in the paper.
    assert (entity + pos) / total > 0.5
    assert entity / total > 0.3
    assert entity > pos
