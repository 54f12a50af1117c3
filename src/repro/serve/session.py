"""Reusable extraction session: the state one server process keeps.

A :class:`ExtractionSession` wraps a trained
:class:`~repro.core.pipeline.TextAnalyticsPipeline` with the batch
entry points the serve layer needs: a whole coalesced batch of
requests runs through the cross-request kernels (the one-pass
annotation engine's merged dictionary scan, ``tag_batch``, and
type-table ``predict_words``) in one call.  Results are plain JSON-able
dicts, and each request's result is a pure function of its
``(op, text)`` — independent of what else shares the batch — which is
what makes batched responses byte-identical to sequential
single-request responses.

Because a result is a pure function of ``(op, text)``, the session
keeps a :class:`ResponseMemo`: a request it has answered before skips
split, tokenize, POS, dictionary, CRF and classify and gets the same
result object back.  The memo belongs to the session instance, so each
forked worker fills its own copy and a new session starts empty.

The session is built **once in the server parent**; forked workers
inherit the frozen kernels and automata copy-on-write.  :meth:`warm`
forces every lazily-built structure into existence before the fork so
child processes never privately rebuild shared state.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Sequence

from repro.annotations import Document
from repro.core.pipeline import TextAnalyticsPipeline

#: Round-trippable float precision for probabilities in responses.
_PROB_DIGITS = 12

#: Bound on the total characters of request text the memo holds.
#: Results retain about 7 bytes per request character, so this caps a
#: worker's memo near 14 MiB.
MEMO_CHARS = 2_000_000


class ResponseMemo:
    """Least-recently-used ``(op, text) -> result`` map, bounded by the
    total characters of the memoized texts.

    ``hits`` counts requests answered without running a kernel (a
    repeat within one batch included), ``misses`` the distinct requests
    that ran.  Not thread-safe by itself: :meth:`ExtractionSession.run_batch`
    holds :attr:`lock` for the whole batch.
    """

    def __init__(self, max_chars: int = MEMO_CHARS) -> None:
        self.max_chars = max_chars
        self.chars = 0
        self.hits = 0
        self.misses = 0
        self.lock = threading.Lock()
        self._results: OrderedDict[tuple[str, str], dict] = OrderedDict()

    def __len__(self) -> int:
        return len(self._results)

    def get(self, key: tuple[str, str]) -> dict | None:
        result = self._results.get(key)
        if result is not None:
            self._results.move_to_end(key)
        return result

    def put(self, key: tuple[str, str], result: dict) -> None:
        size = len(key[1])
        if size > self.max_chars or key in self._results:
            return
        self._results[key] = result
        self.chars += size
        while self.chars > self.max_chars:
            (_op, text), _result = self._results.popitem(last=False)
            self.chars -= len(text)

    def clear(self) -> None:
        self._results.clear()
        self.chars = 0


class ExtractionSession:
    """Batch-capable extraction operations over one pipeline, with a
    per-session :class:`ResponseMemo` in front of them.

    ``annotation_cache`` is accepted and ignored, and
    :attr:`annotation_cache` is a read-only alias of :attr:`memo`: the
    per-sentence annotation cache they configured is gone, and both
    survive only because ``benchmarks/e2e`` still passes and reads
    them — remove them with ``ServeConfig.max_delay_ms`` in the next
    ``benchmark`` PR.
    """

    def __init__(self, pipeline: TextAnalyticsPipeline,
                 annotation_cache: object = None) -> None:
        self.pipeline = pipeline
        self.memo = ResponseMemo()

    @property
    def annotation_cache(self) -> ResponseMemo:
        return self.memo

    def close(self) -> None:
        """Release the memoized responses."""
        with self.memo.lock:
            self.memo.clear()

    def warm(self) -> None:
        """Build every lazy structure now (pre-fork).

        Frozen CRF weights, the classifier's tables and the
        exact-match POS memo for common tokens are all computed on
        first use; doing that in the parent means forked workers share
        them copy-on-write instead of rebuilding per process.
        """
        self.pipeline.classifier.precompute()
        # One tiny end-to-end run compiles whatever else is lazy (the
        # CRFs, automaton state, numpy buffers); it bypasses the memo,
        # which only real requests fill.
        self._execute([("extract", "Warmup sentence one."),
                       ("annotate", "Warmup sentence two."),
                       ("classify", "Warmup sentence three.")])

    # -- operations ----------------------------------------------------------

    def run_batch(self, requests: Sequence[tuple[str, str]],
                  ) -> list[dict]:
        """Execute one coalesced batch of ``(op, text)`` requests.

        Memoized requests are answered from the memo, and a request
        repeated within the batch runs once.  The rest are grouped by
        op (preserving order within each op), each group runs through
        its batch kernel, and results return in the original request
        order.  A failed request yields an ``{"_error": ...}`` marker
        rather than poisoning the batch, and is never memoized.

        Results are shared with the memo (and between repeats), so no
        caller may mutate them.  The memo's lock is held for the whole
        batch: it is taken once, and the kernels' lazily filled tables
        are not safe to fill from two threads either.
        """
        memo = self.memo
        with memo.lock:
            results: list[dict | None] = [None] * len(requests)
            pending: dict[tuple[str, str], list[int]] = {}
            for index, (op, text) in enumerate(requests):
                key = (op, text)
                result = memo.get(key)
                if result is None:
                    pending.setdefault(key, []).append(index)
                else:
                    results[index] = result
            memo.misses += len(pending)
            memo.hits += len(requests) - len(pending)
            for key, result in zip(pending, self._execute(list(pending))):
                for index in pending[key]:
                    results[index] = result
                if "_error" not in result:
                    memo.put(key, result)
        return results  # type: ignore[return-value]

    def _execute(self, requests: list[tuple[str, str]]) -> list[dict]:
        """Run distinct requests through their ops' batch kernels."""
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
                outputs = [self._run_single(op, text) for text in texts]
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
        """Entity extraction (dictionary + ML) over a batch of texts:
        the one-pass engine alone — the response carries no
        linguistic mentions, so the linguistics pass does not run."""
        documents = [Document(doc_id="serve", text=text)
                     for text in texts]
        self.pipeline.one_pass_annotator().annotate_batch(documents)
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
