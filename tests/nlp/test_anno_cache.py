"""Tests for the content-addressed annotation cache."""

import marshal
from pathlib import Path

import pytest

from repro.nlp.anno_cache import (
    CACHE_FORMAT_VERSION, AnnotationCache, sentence_key,
)

FP = "hmm:deadbeef"
WORDS = ["the", "patients", "improved"]
LABELS = ("DT", "NNS", "VBD")


@pytest.fixture
def cache(tmp_path):
    return AnnotationCache(tmp_path)


class TestSentenceKey:
    def test_deterministic(self):
        assert sentence_key(WORDS) == sentence_key(list(WORDS))

    def test_token_boundaries_matter(self):
        """Concatenation-equal but differently tokenized sentences must
        not collide (the NUL separator)."""
        assert sentence_key(["ab", "c"]) != sentence_key(["a", "bc"])

    def test_case_sensitive(self):
        assert sentence_key(["The"]) != sentence_key(["the"])


class TestMemoryTier:
    def test_miss_then_hit(self, cache):
        assert cache.lookup(FP, WORDS) is None
        cache.store(FP, WORDS, LABELS)
        assert cache.lookup(FP, WORDS) == LABELS
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1,
                                 "flushes": 0, "shards_written": 0}

    def test_models_are_isolated(self, cache):
        cache.store(FP, WORDS, LABELS)
        assert cache.lookup("crf:other-model", WORDS) is None

    def test_store_copies_to_tuple(self, cache):
        labels = ["DT", "NNS", "VBD"]
        cache.store(FP, WORDS, labels)
        labels[0] = "XX"
        assert cache.lookup(FP, WORDS) == LABELS


class TestDiskTier:
    def test_flush_and_reload(self, cache, tmp_path):
        cache.store(FP, WORDS, LABELS)
        assert cache.flush() == 1
        assert cache.flush() == 0  # nothing dirty anymore
        fresh = AnnotationCache(tmp_path)
        assert fresh.lookup(FP, WORDS) == LABELS
        assert fresh.misses == 0

    def test_corrupt_shard_is_a_miss(self, cache, tmp_path):
        cache.store(FP, WORDS, LABELS)
        cache.flush()
        for path in tmp_path.glob("anno-*.bin"):
            path.write_bytes(b"not marshal data")
        fresh = AnnotationCache(tmp_path)
        assert fresh.lookup(FP, WORDS) is None

    def test_version_mismatch_is_a_miss(self, cache, tmp_path):
        cache.store(FP, WORDS, LABELS)
        cache.flush()
        for path in tmp_path.glob("anno-*.bin"):
            payload = marshal.loads(path.read_bytes())
            payload["version"] = CACHE_FORMAT_VERSION + 1
            path.write_bytes(marshal.dumps(payload))
        fresh = AnnotationCache(tmp_path)
        assert fresh.lookup(FP, WORDS) is None

    def test_autosave_after_n_stores(self, tmp_path):
        cache = AnnotationCache(tmp_path, autosave_every=2)
        cache.store(FP, ["one"], ("A",))
        assert not list(tmp_path.glob("anno-*.bin"))
        cache.store(FP, ["two"], ("B",))
        assert list(tmp_path.glob("anno-*.bin"))

    def test_clear_drops_both_tiers(self, cache, tmp_path):
        cache.store(FP, WORDS, LABELS)
        cache.flush()
        assert cache.clear() >= 1
        assert cache.n_entries == 0
        assert not list(tmp_path.glob("anno-*.bin"))
        assert cache.lookup(FP, WORDS) is None


def _same_shard_sentences(n):
    """Distinct single-word sentences that all hash to one shard."""
    target = AnnotationCache._shard_of(sentence_key(["w0"]))
    found = [["w0"]]
    index = 1
    while len(found) < n:
        candidate = [f"w{index}"]
        if AnnotationCache._shard_of(sentence_key(candidate)) == target:
            found.append(candidate)
        index += 1
    return found


class TestCrossProcessFlush:
    def test_flush_merges_entries_already_on_disk(self, tmp_path):
        """Two cache instances (stand-ins for two processes) that both
        loaded a shard before either flushed must union their entries,
        not last-writer-wins."""
        first_words, second_words = _same_shard_sentences(2)
        first = AnnotationCache(tmp_path, autosave_every=None)
        second = AnnotationCache(tmp_path, autosave_every=None)
        first.store(FP, first_words, ("A",))
        second.store(FP, second_words, ("B",))
        assert first.flush() == 1
        assert second.flush() == 1
        fresh = AnnotationCache(tmp_path)
        assert fresh.lookup(FP, first_words) == ("A",)
        assert fresh.lookup(FP, second_words) == ("B",)
        assert fresh.misses == 0

    def test_flush_folds_sibling_entries_into_memory_tier(self,
                                                          tmp_path):
        """Entries merged in from disk during a flush serve later
        lookups in the flushing process without touching disk again."""
        first_words, second_words = _same_shard_sentences(2)
        first = AnnotationCache(tmp_path, autosave_every=None)
        second = AnnotationCache(tmp_path, autosave_every=None)
        second.store(FP, second_words, ("B",))
        first.store(FP, first_words, ("A",))
        first.flush()
        second.flush()
        assert second.lookup(FP, first_words) == ("A",)

    def test_own_entries_win_key_collisions(self, tmp_path):
        words = ["collide"]
        first = AnnotationCache(tmp_path, autosave_every=None)
        second = AnnotationCache(tmp_path, autosave_every=None)
        first.store(FP, words, ("OLD",))
        second.store(FP, words, ("NEW",))
        first.flush()
        second.flush()
        assert AnnotationCache(tmp_path).lookup(FP, words) == ("NEW",)

    def test_two_os_processes_flush_without_losing_entries(self,
                                                           tmp_path):
        """Regression: two real processes that both load an empty
        shard, then flush one entry each, must both survive."""
        import subprocess
        import sys
        import textwrap

        first_words, second_words = _same_shard_sentences(2)
        script = textwrap.dedent("""
            import sys, time
            from pathlib import Path
            from repro.nlp.anno_cache import AnnotationCache

            cache_dir, word, own_marker, other_marker = sys.argv[1:5]
            cache = AnnotationCache(cache_dir, autosave_every=None)
            cache.store("%s", [word], (word.upper(),))
            Path(own_marker).write_text("ready")
            deadline = time.monotonic() + 30
            while not Path(other_marker).exists():
                if time.monotonic() > deadline:
                    sys.exit(2)
                time.sleep(0.01)
            cache.flush()
        """ % FP)
        import os

        import repro

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        cache_dir = tmp_path / "cache"
        markers = [tmp_path / "m1", tmp_path / "m2"]
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(cache_dir), words[0],
                 str(own), str(other)],
                env={**os.environ, "PYTHONPATH": src_dir})
            for words, own, other in [
                (first_words, markers[0], markers[1]),
                (second_words, markers[1], markers[0])]
        ]
        for proc in procs:
            assert proc.wait(timeout=60) == 0
        fresh = AnnotationCache(cache_dir)
        assert fresh.lookup(FP, first_words) == (first_words[0].upper(),)
        assert fresh.lookup(FP, second_words) == \
            (second_words[0].upper(),)
