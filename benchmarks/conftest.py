"""Benchmark fixtures: a shared reproduction context at bench scale.

Benchmarks both *time* the relevant kernels (pytest-benchmark) and
*regenerate* the paper's tables/figures, writing each as a text report
under ``benchmarks/out/`` and asserting the paper's qualitative shape.

Reference arms (the pre-optimisation kernels a benchmark times its
production kernel against) import the test oracles (``tests/*/
*_oracle.py``), so the repository root goes on ``sys.path`` whatever
directory the benchmarks run from.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.core.experiment import default_context

_REPO_ROOT = str(Path(__file__).resolve().parent.parent)
if _REPO_ROOT not in sys.path:
    sys.path.append(_REPO_ROOT)


@pytest.fixture(scope="session")
def ctx():
    """Bench-scale context: larger corpora than the unit-test one."""
    return default_context(corpus_docs=30, n_training_docs=50,
                           crf_iterations=40, n_hosts=70,
                           crawl_pages=1200, seed_scale=15)


@pytest.fixture(scope="session")
def stats(ctx):
    return ctx.corpus_stats()
