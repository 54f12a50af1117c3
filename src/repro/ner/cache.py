"""Persistent dictionary-trie build cache.

The paper's sharpest operational number (Section 4.2): loading the
700K-entry gene dictionary took "approximately 20 minutes (!)" — and
every worker paid it again at every task start, lower-bounding task
runtime no matter how small the data chunk.  The deployed fix was to
build the automaton once and re-load the serialized form everywhere.

This module is that fix for the local engine: built
:class:`~repro.ner.automaton.WordTrie` instances are keyed by a content
hash of their ordered pattern list (any dictionary change produces a
new key, so stale entries can never be served) and stored as
``marshal``-serialized snapshots under a cache directory.  The trie's
frozen state is its flat arrays as ``(dtype, shape, bytes)``, its unit
strings and its payload table, so a warm load skips trie construction
entirely: marshal reads a few large ``bytes`` objects and the arrays
are read-only ``np.frombuffer`` views of them, with no per-node
object.  Nothing in an entry derives from ``hash()``, so an entry
written under one ``PYTHONHASHSEED`` serves every other.  Marshal's
format is Python-version-specific, which is fine for a local build
cache.

The cache is two-tier: a per-instance in-memory memo serves repeat
requests in the same process for free (tries are immutable once
built, so sharing the object is safe — this is the per-worker reuse
half of the paper's fix), and the disk layer serves fresh processes.

The cache directory resolves, in order, to the explicit constructor
argument, ``$REPRO_AUTOMATON_CACHE``, or ``~/.cache/repro/automata``.
Entries are a regenerable :mod:`repro.persist` format ("On-disk
formats" in ``docs/robustness.md``): concurrent workers racing on the
same key at worst both build, never read a torn file.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.ner.automaton import WordTrie
from repro.persist import FileFormat, Miss

#: Bump to invalidate every cached trie on on-disk format change.
#: 2 was the character-level automaton, 3 the word-unit trie of
#: per-node dicts; 4 is the same trie as flat arrays.
CACHE_FORMAT_VERSION = 4

_ENTRY = FileFormat("automaton cache entry", CACHE_FORMAT_VERSION,
                    durable=False)

CACHE_DIR_ENV_VAR = "REPRO_AUTOMATON_CACHE"
DEFAULT_CACHE_DIR = "~/.cache/repro/automata"


def content_key(patterns: Iterable[str], salt: str = "") -> str:
    """SHA-256 over the ordered pattern list (plus format version).

    Order-sensitive by design: pattern ids are positional, so callers
    must present patterns in a deterministic order (see
    :class:`~repro.ner.dictionary.EntityDictionary`, which sorts its
    surface expansions).
    """
    hasher = hashlib.sha256()
    hasher.update(f"aho:{CACHE_FORMAT_VERSION}:{salt}".encode("utf-8"))
    hasher.update("\x00".join(patterns).encode("utf-8"))
    return hasher.hexdigest()


def payload_salt(payloads: Sequence[Sequence[str]]) -> str:
    """Cache-key component for a per-pattern payload table.

    The merged multi-type trie is keyed by patterns *and*
    payloads: the same surface list annotated with different
    ``(entity_type, term_id, canonical)`` tuples (e.g. after a
    vocabulary re-identification) must never serve a stale table.
    """
    hasher = hashlib.sha256()
    for payload in payloads:
        hasher.update("\x1f".join(str(part) for part in payload)
                      .encode("utf-8"))
        hasher.update(b"\x00")
    return f"payload:{hasher.hexdigest()}"


class AutomatonCache:
    """Disk cache of built tries, keyed by pattern-content hash."""

    def __init__(self, cache_dir: str | Path | None = None) -> None:
        if cache_dir is None:
            cache_dir = os.environ.get(CACHE_DIR_ENV_VAR, DEFAULT_CACHE_DIR)
        self.cache_dir = Path(cache_dir).expanduser()
        self.hits = 0
        self.misses = 0
        self._memory: dict[str, WordTrie] = {}

    def __repr__(self) -> str:
        return (f"<AutomatonCache {str(self.cache_dir)!r} "
                f"hits={self.hits} misses={self.misses}>")

    def path_for(self, key: str) -> Path:
        return self.cache_dir / f"aho-{key[:40]}.bin"

    def load(self, key: str) -> WordTrie | None:
        """The cached trie for ``key``, or None (miss/corrupt)."""
        memo = self._memory.get(key)
        if memo is not None:
            return memo
        try:
            payload = _ENTRY.load(self.path_for(key), key=key)
            trie = WordTrie.from_state(payload["state"])
        except (Miss, KeyError, TypeError, ValueError):
            return None
        self._memory[key] = trie
        return trie

    def store(self, key: str, trie: WordTrie) -> Path:
        """Persist a built trie under ``key`` (atomic replace)."""
        self._memory[key] = trie
        return _ENTRY.save(self.path_for(key),
                           {"key": key, "state": trie.to_state()})

    def get_or_build(self, patterns: Sequence[str], salt: str = "",
                     payloads: Sequence[Any] | None = None,
                     ) -> tuple[WordTrie, bool]:
        """(trie, cache_hit) for an ordered pattern list.

        On a miss the trie is built, stored, and returned; on a hit
        the deserialized build is returned without touching the
        trie-construction path at all.

        ``payloads`` (one per pattern) attaches a payload table that
        rides along in the frozen form; the content key then covers the
        payload table too, so the same surfaces with different payloads
        occupy distinct cache entries.
        """
        if payloads is not None:
            payloads = list(payloads)
            salt = f"{salt}:{payload_salt(payloads)}"
        key = content_key(patterns, salt=salt)
        cached = self.load(key)
        if (cached is not None and len(cached) == len(patterns)
                and (payloads is None or cached.payloads is not None)):
            self.hits += 1
            return cached, True
        self.misses += 1
        trie = WordTrie.build(patterns, payloads)
        self.store(key, trie)
        return trie, False

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        self._memory.clear()
        removed = 0
        if self.cache_dir.exists():
            for path in self.cache_dir.glob("aho-*.bin"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed
