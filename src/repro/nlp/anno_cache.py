"""Content-addressed annotation cache for POS and NER kernels.

The paper's annotators (MedPost-style POS tagging, Mallet-CRF entity
tagging) dominate end-to-end extraction runtime by orders of magnitude
over dictionary matching (Fig. 3), and at web scale much of that work
is *repeated*: re-crawls fetch pages already annotated, near-duplicate
pages share most sentences, and boilerplate sentences recur across a
whole host.  This cache makes all of that free: annotation results
are keyed by ``(model fingerprint, normalized sentence hash)``, so a
sentence is POS-tagged or CRF-decoded once per model, ever.

Content addressing is what makes the cache safe:

* the **model fingerprint** hashes the trained model's parameters and
  counts (see ``HmmPosTagger.fingerprint`` /
  ``LinearChainCrf.fingerprint``) — retraining produces a new key
  space, so stale annotations can never be served;
* the **sentence hash** covers the exact token sequence.  Upstream
  normalization (whitespace collapsing, boilerplate removal,
  tokenization) already canonicalizes surface variation, so two
  near-duplicate pages that tokenize to the same sentence hit the
  same entry.

The design mirrors the two-tier memory/disk layout of
:mod:`repro.ner.cache` (the dictionary-automaton cache): an in-memory
dict serves repeat lookups in the same process, and marshal-serialized
shard files serve fresh processes.  Entries are grouped into
``anno-<model>-<shard>.bin`` files (sharded by sentence hash) so disk
I/O amortizes over many sentences instead of paying one file per
sentence.  Shards are a regenerable :mod:`repro.persist` format
("On-disk formats" in ``docs/robustness.md``) and shard writes are
*merging*: a flush unions its entries with whatever is on disk under
an advisory file lock, so two processes flushing the same shard union
their work instead of last-writer-wins.

The cache directory resolves, in order, to the explicit constructor
argument, ``$REPRO_ANNOTATION_CACHE``, or ``~/.cache/repro/annotations``.
All public methods are thread-safe (one lock), so ``repro serve``'s
client and dispatcher threads can share one cache instance.
"""

from __future__ import annotations

import hashlib
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

from repro.persist import FileFormat, Miss

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

#: Bump to invalidate every cached annotation on on-disk format change.
CACHE_FORMAT_VERSION = 1

_SHARD = FileFormat("annotation cache shard", CACHE_FORMAT_VERSION,
                    durable=False)

CACHE_DIR_ENV_VAR = "REPRO_ANNOTATION_CACHE"
DEFAULT_CACHE_DIR = "~/.cache/repro/annotations"

#: Disk files per model fingerprint.
N_SHARDS = 16


def sentence_key(words: Sequence[str]) -> str:
    """SHA-256 over the normalized token sequence.

    The token texts *are* the normal form: tokenization has already
    collapsed whitespace and markup differences, so content-identical
    sentences from different pages produce the same key.  Case is
    preserved — the models are case-sensitive (shape features)."""
    hasher = hashlib.sha256()
    hasher.update(f"anno:{CACHE_FORMAT_VERSION}".encode("utf-8"))
    hasher.update("\x00".join(words).encode("utf-8"))
    return hasher.hexdigest()


class AnnotationCache:
    """Two-tier (memory + disk shards) cache of per-sentence
    annotation results, keyed by (model fingerprint, sentence hash).

    Values are tuples of label strings (POS tags or BIO labels), one
    per token.  ``autosave_every`` flushes dirty shards to disk after
    that many stores; :meth:`flush` forces a write (the flow runner
    calls it after every execution).
    """

    def __init__(self, cache_dir: str | Path | None = None,
                 autosave_every: int | None = 2048) -> None:
        if cache_dir is None:
            cache_dir = os.environ.get(CACHE_DIR_ENV_VAR, DEFAULT_CACHE_DIR)
        self.cache_dir = Path(cache_dir).expanduser()
        self.autosave_every = autosave_every
        self.hits = 0
        self.misses = 0
        self.flushes = 0
        self.shards_written = 0
        self._lock = threading.Lock()
        #: (model_fp, shard) -> {sentence_key: tuple(labels)}
        self._shards: dict[tuple[str, int], dict[str, tuple]] = {}
        self._dirty: set[tuple[str, int]] = set()
        self._stores_since_save = 0

    def __repr__(self) -> str:
        return (f"<AnnotationCache {str(self.cache_dir)!r} "
                f"hits={self.hits} misses={self.misses}>")

    # -- addressing ----------------------------------------------------------

    @staticmethod
    def _shard_of(key: str) -> int:
        return int(key[:2], 16) % N_SHARDS

    def path_for(self, model_fingerprint: str, shard: int) -> Path:
        digest = hashlib.sha256(model_fingerprint.encode()).hexdigest()[:20]
        return self.cache_dir / f"anno-{digest}-{shard:02d}.bin"

    # -- lookup / store ------------------------------------------------------

    def lookup(self, model_fingerprint: str,
               words: Sequence[str]) -> tuple | None:
        """Cached labels for one sentence under one model, or None."""
        key = sentence_key(words)
        shard = self._shard_of(key)
        with self._lock:
            entries = self._shard_entries(model_fingerprint, shard)
            labels = entries.get(key)
            if labels is None:
                self.misses += 1
                return None
            self.hits += 1
            return labels

    def store(self, model_fingerprint: str, words: Sequence[str],
              labels: Sequence[str]) -> None:
        """Memoize one sentence's labels (memory tier; disk on flush)."""
        key = sentence_key(words)
        shard = self._shard_of(key)
        with self._lock:
            entries = self._shard_entries(model_fingerprint, shard)
            entries[key] = tuple(labels)
            self._dirty.add((model_fingerprint, shard))
            self._stores_since_save += 1
            autosave = (self.autosave_every is not None
                        and self._stores_since_save >= self.autosave_every)
        if autosave:
            self.flush()

    def _shard_entries(self, model_fingerprint: str,
                       shard: int) -> dict[str, tuple]:
        """Memory-tier dict for one shard, loading the disk tier on
        first access (caller holds the lock)."""
        slot = (model_fingerprint, shard)
        entries = self._shards.get(slot)
        if entries is None:
            entries = self._load_shard(model_fingerprint, shard)
            self._shards[slot] = entries
        return entries

    def _load_shard(self, model_fingerprint: str,
                    shard: int) -> dict[str, tuple]:
        try:
            payload = _SHARD.load(self.path_for(model_fingerprint, shard),
                                  model=model_fingerprint)
        except Miss:
            return {}
        entries = payload.get("entries")
        return entries if isinstance(entries, dict) else {}

    # -- persistence ---------------------------------------------------------

    def flush(self) -> int:
        """Write dirty shards to disk (atomic); returns shards written.

        Each shard is written read-merge-write under an exclusive file
        lock: entries another process flushed since this process loaded
        the shard are merged in (this process's entries win on key
        collisions — both sides decoded the same model, so values can
        only differ on a format change) rather than overwritten, and
        are folded back into the memory tier so they serve future
        lookups here too.  The visible write stays a single atomic
        temp-file replace.
        """
        with self._lock:
            dirty = [(slot, dict(self._shards[slot]))
                     for slot in sorted(self._dirty)]
            self._dirty.clear()
            self._stores_since_save = 0
        if not dirty:
            return 0
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        for (model_fingerprint, shard), entries in dirty:
            path = self.path_for(model_fingerprint, shard)
            with self._flush_lock(path):
                on_disk = self._load_shard(model_fingerprint, shard)
                if on_disk:
                    merged = on_disk
                    merged.update(entries)
                else:
                    merged = entries
                _SHARD.save(path, {"model": model_fingerprint,
                                   "entries": merged})
            if len(merged) > len(entries):
                with self._lock:
                    resident = self._shards.get((model_fingerprint,
                                                 shard))
                    if resident is not None:
                        for key, labels in merged.items():
                            resident.setdefault(key, labels)
        self.flushes += 1
        self.shards_written += len(dirty)
        return len(dirty)

    @contextmanager
    def _flush_lock(self, path: Path):
        """Exclusive advisory lock serializing concurrent flushes of
        one shard file across processes; a no-op where ``fcntl`` is
        unavailable (merge-on-flush still covers the sequential case
        there)."""
        if fcntl is None:
            yield
            return
        lock_path = path.with_name(f"{path.name}.lock")
        with open(lock_path, "w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def clear(self) -> int:
        """Drop both tiers; returns the number of disk files removed."""
        with self._lock:
            self._shards.clear()
            self._dirty.clear()
            self._stores_since_save = 0
        removed = 0
        if self.cache_dir.exists():
            for path in self.cache_dir.glob("anno-*.bin"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    # -- introspection -------------------------------------------------------

    @property
    def n_entries(self) -> int:
        """Entries currently resident in the memory tier."""
        with self._lock:
            return sum(len(entries) for entries in self._shards.values())

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": self.n_entries, "flushes": self.flushes,
                "shards_written": self.shards_written}
