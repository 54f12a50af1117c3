"""Reusable extraction session: the state one server process keeps.

A :class:`ExtractionSession` wraps a trained
:class:`~repro.core.pipeline.TextAnalyticsPipeline` with the batch
entry points the serve layer needs: a whole coalesced batch of
requests runs through the cross-request kernels
(``pipeline.analyze_batch`` → the one-pass annotation engine's merged
dictionary scan, ``tag_batch``, and type-table ``predict_words``)
in one call.  Results are plain JSON-able dicts, and each request's
result is a pure function of its ``(op, text)`` — independent of what
else shares the batch — which is what makes batched responses
byte-identical to sequential single-request responses.

The session is built **once in the server parent**; forked workers
inherit the frozen kernels, automata, and cache pages copy-on-write.
:meth:`warm` forces every lazily-built structure into existence before
the fork so child processes never privately rebuild shared state.
"""

from __future__ import annotations

from typing import Sequence

from repro.annotations import Document
from repro.core.pipeline import TextAnalyticsPipeline
from repro.nlp.anno_cache import AnnotationCache

#: Round-trippable float precision for probabilities in responses.
_PROB_DIGITS = 12


class ExtractionSession:
    """Batch-capable extraction operations over one pipeline.

    ``annotation_cache`` (an AnnotationCache or directory path)
    optionally (re)wires the pipeline's POS/NER taggers to a cache for
    the session's lifetime — this and ``repro serve --anno-cache`` are
    the ways to enable the cache; :meth:`close` flushes it and
    restores the prior wiring.
    """

    def __init__(self, pipeline: TextAnalyticsPipeline,
                 annotation_cache: "AnnotationCache | str | None" = None,
                 ) -> None:
        self.pipeline = pipeline
        self._prior_caches: list = []
        if annotation_cache is not None:
            if not isinstance(annotation_cache, AnnotationCache):
                annotation_cache = AnnotationCache(annotation_cache)
            self._install_cache(annotation_cache)
            self.annotation_cache = annotation_cache
        else:
            self.annotation_cache = pipeline.pos_tagger.annotation_cache

    def _install_cache(self, cache: AnnotationCache) -> None:
        pipeline = self.pipeline
        taggers = [pipeline.pos_tagger,
                   *pipeline.ml_taggers.values()]
        self._prior_caches = [(tagger, tagger.annotation_cache)
                              for tagger in taggers]
        for tagger in taggers:
            tagger.annotation_cache = cache

    def close(self) -> None:
        """Flush the session cache and restore prior tagger wiring."""
        if self.annotation_cache is not None:
            self.annotation_cache.flush()
        for tagger, prior in self._prior_caches:
            tagger.annotation_cache = prior
        self._prior_caches = []

    def warm(self) -> None:
        """Build every lazy structure now (pre-fork).

        Fingerprints, frozen CRF weights, and the exact-match POS memo
        for common tokens are all computed on first use; doing that in
        the parent means forked workers share them copy-on-write
        instead of rebuilding per process.
        """
        pipeline = self.pipeline
        pipeline.pos_tagger.fingerprint()
        for tagger in pipeline.ml_taggers.values():
            tagger.fingerprint()  # freezes the CRF if it is not yet
        pipeline.classifier.precompute()
        # One tiny end-to-end run compiles whatever else is lazy
        # (automaton state, linguistics regexes, numpy buffers).
        self.run_batch([("extract", "Warmup sentence one."),
                        ("annotate", "Warmup sentence two."),
                        ("classify", "Warmup sentence three.")])

    # -- operations ----------------------------------------------------------

    def run_batch(self, requests: Sequence[tuple[str, str]],
                  ) -> list[dict]:
        """Execute one coalesced batch of ``(op, text)`` requests.

        Requests are grouped by op (preserving order within each op),
        each group runs through its batch kernel, and results return
        in the original request order.  A failed request yields an
        ``{"_error": ...}`` marker rather than poisoning the batch.
        """
        results: list[dict | None] = [None] * len(requests)
        groups: dict[str, list[int]] = {}
        for index, (op, _text) in enumerate(requests):
            groups.setdefault(op, []).append(index)
        for op, indices in groups.items():
            texts = [requests[index][1] for index in indices]
            try:
                handler = getattr(self, f"{op}_batch")
            except AttributeError:
                for index in indices:
                    results[index] = {"_error": f"unknown op {op!r}"}
                continue
            try:
                outputs = handler(texts)
            except Exception:  # noqa: BLE001 - batch isolation
                outputs = None
                for index, text in zip(indices, texts):
                    results[index] = self._run_single(op, text)
            if outputs is not None:
                for index, output in zip(indices, outputs):
                    results[index] = output
        return results  # type: ignore[return-value]

    def _run_single(self, op: str, text: str) -> dict:
        """Per-request fallback after a batch kernel raised: find the
        offender(s), give everyone else their normal result."""
        try:
            return getattr(self, f"{op}_batch")([text])[0]
        except Exception as exc:  # noqa: BLE001
            kind = type(exc).__name__
            return {"_error": f"{kind}: {exc}"}

    def extract_batch(self, texts: Sequence[str]) -> list[dict]:
        """Entity extraction (dictionary + ML) over a batch of texts."""
        documents = [Document(doc_id="serve", text=text)
                     for text in texts]
        self.pipeline.analyze_batch(documents)
        outputs = []
        for document in documents:
            entities = [{"text": m.text, "start": m.start,
                         "end": m.end, "type": m.entity_type,
                         "method": m.method}
                        for m in document.entities]
            outputs.append({
                "entities": entities,
                "sentences": len(document.sentences),
                "tokens": sum(len(s.tokens)
                              for s in document.sentences)})
        return outputs

    def annotate_batch(self, texts: Sequence[str]) -> list[dict]:
        """Sentence/token/POS annotation over a batch of texts."""
        documents = [Document(doc_id="serve", text=text)
                     for text in texts]
        self.pipeline.one_pass_annotator(
            methods=(), with_pos=True).annotate_batch(documents)
        outputs = []
        for document in documents:
            sentences = []
            for sentence in document.sentences:
                sentences.append({
                    "start": sentence.start, "end": sentence.end,
                    "tokens": [[token.text, token.pos]
                               for token in sentence.tokens]})
            output = {"sentences": sentences}
            crashes = document.meta.get("pos_crashes", 0)
            if crashes:
                output["pos_crashes"] = crashes
            outputs.append(output)
        return outputs

    def classify_batch(self, texts: Sequence[str]) -> list[dict]:
        """Relevance classification over a batch of texts."""
        classifier = self.pipeline.classifier
        outputs = []
        for text in texts:
            probability = classifier.probability(text)
            outputs.append({
                "relevant": probability >= classifier.decision_threshold,
                "probability": round(probability, _PROB_DIGITS)})
        return outputs
