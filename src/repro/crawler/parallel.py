"""Process-parallel, pipelined document stage for the focused crawler.

The crawl loop splits into three phases per frontier batch:

* **fetch** (coordinator, sequential) — robots checks, circuit
  breakers, politeness waits, retries, and SimulatedClock accounting.
  Every fetch outcome is a deterministic function of (seed, url,
  attempt, clock), and the clock trajectory depends only on fetch
  outcomes — never on document contents — so this phase fixes the
  entire simulated-time behaviour of the batch.
* **document** (this module, parallelizable) —
  :func:`process_document`: MIME sniffing, **one** repairing tokenizer
  pass feeding boilerplate segmentation + outlink extraction + title
  extraction, language/length predicates, and the relevance score.
  A pure function of (url, body, content_type) given a frozen
  classifier, so its outputs are identical no matter where or in what
  order it runs.
* **merge** (coordinator, sequential, batch order) — counters, filter
  stats, linkdb edges, corpus appends, and frontier updates are
  replayed in the order the sequential loop would have produced them.

:class:`CrawlWorkerPool` fans the document phase out over a fork-based
process pool.  Unlike the original blocking ``Pool.map`` design, the
pool is *pipelined*: the coordinator submits work chunks asynchronously
as pages are fetched (:meth:`CrawlWorkerPool.submit`), so workers chew
on the head of a frontier batch while the coordinator is still
fetching its tail; :meth:`CrawlWorkerPool.drain` then collects the
chunk results in submission order, which keeps the merged outcome
sequence exactly the sequential one.

Two more things keep the parallel tax low enough that fanning out
actually pays:

* **IPC diet** — tasks and outcomes cross the process boundary as
  compact ``marshal`` payloads of plain tuples (no pickled dataclass
  machinery), and an outcome only carries the fields the merge phase
  actually consumes: in particular, the extracted net text of a page
  the text filters rejected is never shipped back, because the merge
  never reads it.
* **GC discipline** — the package-wide one (:mod:`repro.workers`;
  docs/performance.md, "Worker processes"): the coordinator holds
  ``frozen_heap()`` for the life of the pool, each worker enters
  ``child_gc_regime()`` right after the fork, and both collect
  explicitly at chunk boundaries.

Chunk sizing is *adaptive*: instead of a fixed pages-per-chunk
constant, :func:`page_rule` sizes chunks from the page count and
payload bytes of the batch at hand.  The decision is a pure function
of deterministic inputs (body sizes, worker count, configured batch
size), so the chunking — and with it every volatile pool-attribution
metric of a given topology — is reproducible run to run.  Results
never depend on chunking at all: merges replay in batch order whatever
the chunk boundaries were.
"""

from __future__ import annotations

import gc
import marshal
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, field

from repro.crawler.filters import FilterChain
from repro.crawler.parser import resolve_hrefs
from repro.html.boilerplate import BoilerplateDetector, scan_page
from repro.obs.metrics import MetricsRegistry
from repro.workers import ChunkRule, child_gc_regime, fork_pool, frozen_heap

#: One task per successfully fetched page: (batch index, url, body,
#: declared content type).
PageTask = tuple[int, str, str, str]

#: Processing context inherited by forked pool workers (set immediately
#: before the pool is created so the fork snapshot contains it).
_WORKER_CONTEXT: "ProcessingContext | None" = None


@dataclass
class ProcessingContext:
    """Everything the pure document stage needs."""

    boilerplate: BoilerplateDetector
    filters: FilterChain
    classifier: object


@dataclass
class DocumentOutcome:
    """Result of the pure document stage for one fetched page.

    Carries every *decision* the sequential loop would have made plus
    the derived artifacts (net text, outlinks, title), but none of the
    state updates — the coordinator replays those in batch order.
    ``stage_seconds`` holds per-stage wall time measured where the work
    ran (inside the worker, in parallel mode), keyed by stage name;
    its key set is deterministic, its values are not.
    """

    mime_ok: bool
    transcodable: bool = False
    net_text: str = ""
    title: str = ""
    outlinks: list[str] = field(default_factory=list)
    #: "" when the text filters passed, else "language" / "length".
    rejected_by: str = ""
    #: None when the page never reached classification.
    relevant: bool | None = None
    stage_seconds: dict[str, float] = field(default_factory=dict)


def process_document(url: str, body: str, content_type: str,
                     context: ProcessingContext) -> DocumentOutcome:
    """Run the CPU-bound per-page pipeline on one fetched payload.

    Stages short-circuit exactly like the sequential loop: a MIME
    reject skips repair, an untranscodable page skips parsing, a text
    filter reject skips classification.
    """
    timings: dict[str, float] = {}
    started = time.perf_counter()
    mime_ok = context.filters.decide_payload(body, url, content_type)
    timings["filters"] = time.perf_counter() - started
    if not mime_ok:
        return DocumentOutcome(mime_ok=False, stage_seconds=timings)

    # One page scan, shared with the dataflow's fused web operator:
    # block segmentation, anchor hrefs and the title in one tokenizer
    # pass over the repaired page, with no DOM.
    started = time.perf_counter()
    blocks, hrefs, title, transcodable = scan_page(body)
    timings["repair"] = time.perf_counter() - started
    if not transcodable:
        return DocumentOutcome(mime_ok=True, stage_seconds=timings)

    started = time.perf_counter()
    outlinks = resolve_hrefs(hrefs, url)
    timings["parse"] = time.perf_counter() - started

    started = time.perf_counter()
    detector = context.boilerplate
    net_text = detector.join_content(detector.classify(blocks))
    timings["boilerplate"] = time.perf_counter() - started

    started = time.perf_counter()
    _ok, rejected_by = context.filters.decide_text(net_text)
    timings["filters"] += time.perf_counter() - started
    outcome = DocumentOutcome(
        mime_ok=True, transcodable=True, net_text=net_text, title=title,
        outlinks=outlinks, rejected_by=rejected_by, stage_seconds=timings)
    if rejected_by:
        return outcome

    started = time.perf_counter()
    outcome.relevant = context.classifier.predict(net_text)
    timings["classify"] = time.perf_counter() - started
    return outcome


# -- wire format ---------------------------------------------------------------
#
# Outcomes cross the worker -> coordinator pipe as marshal'd plain
# tuples.  Only the fields the merge phase consumes travel: the net
# text of a filter-rejected page is replaced by "" because
# ``_merge_entry`` never reads it (the page is dropped right after the
# filter counters are replayed).  The reconstructed DocumentOutcome is
# therefore *merge-equivalent* to the worker's, not field-identical.

def outcome_to_wire(outcome: DocumentOutcome) -> tuple:
    return (outcome.mime_ok, outcome.transcodable,
            "" if outcome.rejected_by else outcome.net_text,
            outcome.title, tuple(outcome.outlinks), outcome.rejected_by,
            outcome.relevant, outcome.stage_seconds)


def outcome_from_wire(wire: tuple) -> DocumentOutcome:
    (mime_ok, transcodable, net_text, title, outlinks, rejected_by,
     relevant, stage_seconds) = wire
    return DocumentOutcome(
        mime_ok=mime_ok, transcodable=transcodable, net_text=net_text,
        title=title, outlinks=list(outlinks), rejected_by=rejected_by,
        relevant=relevant, stage_seconds=stage_seconds)


def _worker_chunk(payload: bytes) -> bytes:
    """Process one marshal'd chunk of page tasks; returns marshal'd
    ``[(index, outcome_wire), ...]`` in task order."""
    context = _WORKER_CONTEXT
    assert context is not None, "crawl worker forked without its context"
    results = []
    for index, url, body, content_type in marshal.loads(payload):
        outcome = process_document(url, body, content_type, context)
        results.append((index, outcome_to_wire(outcome)))
    payload = marshal.dumps(results)
    # The only collection this worker runs (automatic collection is
    # off; the document stage builds no cycles, so the sweep only
    # frees the odd traceback's).
    gc.collect()
    return payload


# -- adaptive chunk sizing -----------------------------------------------------

#: A chunk's page target is bounded to this band ...
MIN_PAGES = 8
MAX_PAGES = 64
#: ... and a chunk closes early at this many payload bytes, so a run
#: of oversized pages cannot serialize into one worker (calibrated
#: from the measured per-page document cost of the throughput
#: benchmark: ~25-35 pages of average body size).
BYTE_TARGET = 192_000


def page_rule(workers: int, batch_hint: int | None = None) -> ChunkRule:
    """The crawl pool's chunk rule: the page target splits the
    configured frontier batch (``batch_hint``) across the workers, so
    every worker sees several chunks per batch.  Task counts and body
    sizes are deterministic crawl state, so two runs of the same crawl
    at the same worker count always chunk identically."""
    if workers < 1:
        raise ValueError("the crawl pool needs at least 1 worker")
    hint = batch_hint if batch_hint and batch_hint > 0 else \
        MAX_PAGES * workers
    return ChunkRule(ChunkRule.share(hint, workers, MIN_PAGES, MAX_PAGES),
                     BYTE_TARGET)


class CrawlWorkerPool:
    """A fork-based process pool running the document stage, pipelined.

    Created once per crawl (workers inherit the trained classifier and
    detector state as of fork time — which is why parallel mode and
    online learning are mutually exclusive) and reused across batches.

    The coordinator streams tasks in with :meth:`submit` *while it is
    still fetching the rest of the batch*; full chunks dispatch
    immediately via ``apply_async``, so document processing overlaps
    the fetch phase instead of waiting behind it.  :meth:`drain`
    flushes the partial tail chunk and collects every in-flight chunk
    in submission order.
    """

    def __init__(self, workers: int, context: ProcessingContext,
                 metrics: MetricsRegistry | None = None,
                 batch_hint: int | None = None) -> None:
        global _WORKER_CONTEXT
        if workers < 2:
            raise ValueError("CrawlWorkerPool needs at least 2 workers")
        self.workers = workers
        #: Pool attribution is *volatile* observability: chunk and
        #: dispatch counts depend on the worker count, so they are
        #: excluded from the deterministic export.  The deterministic
        #: per-page metrics ride back in ``DocumentOutcome`` (the
        #: ``stage_seconds`` delta each worker accumulates) and are
        #: merged by the coordinator in batch order.  Every counter
        #: below is incremented on the coordinator at submit time, so
        #: the totals stay correct no matter how chunks complete
        #: out of order inside the pool.
        self.metrics = metrics
        self.planner = page_rule(workers, batch_hint)
        self._pending: list[PageTask] = []
        self._inflight: list = []
        _WORKER_CONTEXT = context
        self._context = context
        self._done: dict[int, DocumentOutcome] = {}
        # The physical plan adapts to the machine; the *requested*
        # worker count always drives chunk planning, so chunk
        # boundaries — and every crawl output — stay a pure function
        # of the crawl config, not of the hardware:
        #
        # * >= 2 cores: fork worker processes, but never more than the
        #   machine has cores — on an oversubscribed box the surplus
        #   workers only add cache thrash and context switches
        #   (measured ~20 % extra CPU at 4 workers on 1 core);
        # * 1 core: run chunks inline on the coordinator.  Fork + IPC
        #   cannot pay for themselves without a second core to overlap
        #   on, but the pool's GC discipline (freeze the trained base,
        #   disable automatic collection, collect per chunk) still
        #   beats the sequential loop's automatic GC.
        cores = os.cpu_count() or 1
        self.processes = 0 if cores < 2 else max(2, min(workers, cores))
        # Freeze the coordinator's long-lived base (models, web graph,
        # caches) before forking, and give the coordinator the
        # workers' GC regime while the pool lives: the allocation-heavy
        # work happens out of process (or per-chunk inline) and builds
        # no cycles, so automatic collections here only steal CPU.
        # New coordinator garbage is collected at dispatch/drain
        # barriers, against the frozen base.  close() restores both.
        self._heap = ExitStack()
        self._heap.enter_context(frozen_heap())
        self._pool = None
        if self.processes:
            self._pool = fork_pool(self.processes,
                                   initializer=child_gc_regime)
        gc.disable()
        if metrics is not None:
            metrics.gauge("crawl.pool_workers", volatile=True).set(
                workers)
            metrics.gauge("crawl.pool_processes", volatile=True).set(
                self.processes)

    # -- pipelined interface -------------------------------------------------

    def submit(self, task: PageTask) -> None:
        """Queue one fetched page; dispatches a chunk when the adaptive
        planner says it is full."""
        self._pending.append(task)
        if self.planner.add(len(task[2])):
            self._dispatch()

    def flush(self) -> None:
        """Dispatch the partial tail chunk (end of the fetch phase)."""
        if self._pending:
            self.planner.reset()
            self._dispatch()

    def drain(self) -> dict[int, DocumentOutcome]:
        """Collect every in-flight chunk, in submission order; returns
        outcomes keyed by batch index."""
        self.flush()
        if not self._inflight and not self._done:
            return {}
        started = time.perf_counter()
        documents, self._done = self._done, {}
        for handle in self._inflight:
            for index, wire in marshal.loads(handle.get()):
                documents[index] = outcome_from_wire(wire)
        self._inflight.clear()
        gc.collect()
        if self.metrics is not None:
            self.metrics.counter("crawl.pool_wall_seconds",
                                 volatile=True).inc(
                                     time.perf_counter() - started)
        return documents

    def _dispatch(self) -> None:
        chunk, self._pending = self._pending, []
        if self._pool is None:
            # Inline plan (single-core box): run the chunk on the
            # coordinator, through the same wire round-trip as the
            # forked plan so the merge sees byte-identical outcomes,
            # then collect exactly like a worker.
            for index, url, body, content_type in chunk:
                outcome = process_document(url, body, content_type,
                                           self._context)
                self._done[index] = outcome_from_wire(
                    outcome_to_wire(outcome))
            gc.collect()
        else:
            payload = marshal.dumps(chunk)
            self._inflight.append(
                self._pool.apply_async(_worker_chunk, (payload,)))
        if self.metrics is not None:
            self.metrics.counter("crawl.pool_dispatches",
                                 volatile=True).inc()
            self.metrics.counter("crawl.pool_chunks",
                                 volatile=True).inc()
            self.metrics.counter("crawl.pool_pages",
                                 volatile=True).inc(len(chunk))

    # -- batch interface (tests / non-pipelined callers) ---------------------

    def process_batch(self, tasks: list[PageTask],
                      ) -> dict[int, DocumentOutcome]:
        """Submit a whole batch and collect it — the non-streaming
        entry point, equivalent to submit()* + drain()."""
        for task in tasks:
            self.submit(task)
        return self.drain()

    def close(self) -> None:
        global _WORKER_CONTEXT
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
        _WORKER_CONTEXT = None
        self._heap.close()
