"""Long-lived batched extraction serving.

The paper frames domain-specific information extraction as a service
for many users, but a batch CLI pays model training/loading, automaton
builds, and cache warmup on every invocation.  This package keeps all
of that resident: ``repro serve`` builds the pipeline once, forks
workers that share the frozen kernels copy-on-write, and amortizes
per-request overhead by coalescing concurrent requests into batches
that flow through the batch kernels (``HmmPosTagger.tag_batch``,
``LinearChainCrf.predict_words``) as a unit.

Layering (each module usable on its own):

* :mod:`repro.serve.protocol` — newline-delimited JSON wire format;
* :mod:`repro.serve.coalescer` — the thread-safe request queue that
  cuts batches with the deterministic chunk rule;
* :mod:`repro.serve.quotas` — per-tenant token buckets;
* :mod:`repro.serve.session` — reusable extraction session wrapping a
  trained pipeline with batch entry points per operation;
* :mod:`repro.serve.server` — the batch engine (admission → coalesce
  → dispatch to COW-forked workers) and its socket frontend;
* :mod:`repro.serve.loadgen` — closed-loop load generator used by the
  CI smoke job and ``benchmarks/bench_serve.py``.
"""

from repro.serve.coalescer import RequestCoalescer
from repro.serve.quotas import QuotaManager
from repro.serve.server import BatchEngine, ExtractionServer, ServeConfig
from repro.serve.session import ExtractionSession

__all__ = [
    "BatchEngine",
    "ExtractionServer",
    "ExtractionSession",
    "QuotaManager",
    "RequestCoalescer",
    "ServeConfig",
]
