"""The crawl pool's chunk-target derivation, and shard hashing.

The chunk rule itself — contiguous exact cover, targets respected,
streaming ≡ offline, deterministic — is property-tested once, on
:class:`repro.workers.ChunkRule` (``tests/test_workers.py``); what is
left here is how the crawl pool derives its page target from the
configured frontier batch.  :func:`repro.crawler.shard.shard_of` must
be a stable, total assignment — the property that pins every host's
state to one shard at any topology.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crawler.parallel import (
    BYTE_TARGET, MAX_PAGES, MIN_PAGES, page_rule,
)
from repro.crawler.shard import shard_of


class TestAdaptiveChunkPartition:
    def test_page_target_bounds(self):
        assert page_rule(2, 40).count_target == 10
        assert page_rule(1, 4).count_target == MIN_PAGES
        assert page_rule(1, 10_000).count_target == MAX_PAGES
        # No hint: as if the batch held MAX_PAGES per worker.
        assert page_rule(3).count_target == MAX_PAGES // 2
        assert page_rule(2, 40).volume_target == BYTE_TARGET

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            page_rule(0)


class TestShardAssignment:
    @given(host=st.text(max_size=60),
           n_shards=st.integers(min_value=1, max_value=64))
    @settings(max_examples=300, deadline=None)
    def test_stable_and_total(self, host, n_shards):
        owner = shard_of(host, n_shards)
        assert 0 <= owner < n_shards
        assert owner == shard_of(host, n_shards)

    @given(hosts=st.lists(st.text(min_size=1, max_size=30),
                          min_size=1, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_single_shard_owns_everything(self, hosts):
        assert all(shard_of(host, 1) == 0 for host in hosts)

    def test_independent_of_hash_randomization(self):
        # Values pinned: a new interpreter (different PYTHONHASHSEED)
        # must route the same hosts to the same shards, or resume
        # would shatter.
        assert shard_of("medline-host-3.example", 5) == \
            shard_of("medline-host-3.example", 5)
        import pathlib
        import subprocess
        import sys

        import repro
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        code = (f"import sys; sys.path.insert(0, {src!r}); "
                "from repro.crawler.shard import shard_of; "
                "print(shard_of('medline-host-3.example', 5), "
                "shard_of('a', 7), shard_of('b', 7))")
        expected = (f"{shard_of('medline-host-3.example', 5)} "
                    f"{shard_of('a', 7)} {shard_of('b', 7)}")
        output = subprocess.run(
            [sys.executable, "-c", code], capture_output=True,
            text=True, env={"PYTHONHASHSEED": "123",
                            "PATH": "/usr/bin:/bin"}).stdout.strip()
        assert output == expected

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ValueError):
            shard_of("host", 0)
