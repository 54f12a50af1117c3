"""Near-duplicate detection via shingling + MinHash.

Web corpora are highly redundant (mirrors, reposts, boilerplate-only
variants); exact content hashing (the DC package's ``dedup_content``)
misses near-copies.  This module implements the standard w-shingling /
MinHash estimator of Jaccard similarity and a corpus-level
near-duplicate filter.

Signatures are computed by one NumPy kernel: ``(a·x + b) mod (2^61 − 1)``
for every hash function and shingle at once.  A 61-bit × 61-bit
product overflows ``uint64``, so the multiplication is split into
32-bit limbs whose partial products fit, and reduced with the Mersenne
identities 2^61 ≡ 1 and 2^64 ≡ 8.  The result is bit-identical to the
exact integer arithmetic, so stored signatures keep their meaning.
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Iterable

import numpy as np

from repro.annotations import Document

_PRIME = (1 << 61) - 1
_P = np.uint64(_PRIME)
_LOW32 = np.uint64((1 << 32) - 1)
_LOW29 = np.uint64((1 << 29) - 1)
_S3, _S29, _S32, _S61 = (np.uint64(shift) for shift in (3, 29, 32, 61))
_U64_LIMIT = 1 << 64
#: Shingles per kernel pass; bounds the ``(n_hashes, block)``
#: temporaries on long pages.
_BLOCK = 4096


def shingles(text: str, width: int = 4) -> set[int]:
    """Hashed word w-shingles of a text."""
    words = text.lower().split()
    if len(words) < width:
        if not words:
            return set()
        return {_hash_shingle(" ".join(words))}
    return {_hash_shingle(" ".join(words[i:i + width]))
            for i in range(len(words) - width + 1)}


def _hash_shingle(shingle: str) -> int:
    digest = hashlib.blake2b(shingle.encode(), digest_size=8).digest()
    return struct.unpack(">Q", digest)[0]


class MinHasher:
    """MinHash signatures with ``n_hashes`` universal hash functions."""

    def __init__(self, n_hashes: int = 64, seed: int = 1) -> None:
        self.n_hashes = n_hashes
        from repro.util import seeded_rng

        rng = seeded_rng("minhash", seed)
        pairs = [(rng.randrange(1, _PRIME), rng.randrange(0, _PRIME))
                 for _ in range(n_hashes)]
        #: ``(n_hashes, 1)`` columns of the hash family ``a·x + b``.
        self._a = np.array([a for a, _ in pairs],
                           dtype=np.uint64).reshape(-1, 1)
        self._b = np.array([b for _, b in pairs],
                           dtype=np.uint64).reshape(-1, 1)

    def signature(self, shingle_set: set[int]) -> tuple[int, ...]:
        """Per hash function, the minimum of ``(a·x + b) mod (2^61 − 1)``
        over the shingle hashes ``x``.

        Shingle hashes are Python ints in ``[0, 2^64)``; anything else
        raises :class:`ValueError` naming the value.
        """
        if not shingle_set:
            return tuple([_PRIME] * self.n_hashes)
        try:
            x = np.fromiter(shingle_set, dtype=np.uint64,
                            count=len(shingle_set))
        except OverflowError:
            bad = next(value for value in shingle_set
                       if not 0 <= value < _U64_LIMIT)
            raise ValueError(f"shingle hash {bad} is not an unsigned "
                             "64-bit integer") from None
        x %= _P
        a_hi, a_lo = self._a >> _S32, self._a & _LOW32
        a_hi8 = a_hi << _S3
        best = None
        for start in range(0, len(x), _BLOCK):
            block = x[start:start + _BLOCK]
            x_hi, x_lo = block >> _S32, block & _LOW32
            # a·x = hh·2^64 + mid·2^32 + ll, every limb product below
            # 2^64; fold with 2^64 ≡ 8 and 2^61 ≡ 1 (mod p).
            mid = a_hi * x_lo
            mid += a_lo * x_hi                       # mid < 2^62
            ll = a_lo * x_lo                         # ll < 2^64
            total = a_hi8 * x_hi                     # 8·hh < 2^61
            total += mid >> _S29
            mid &= _LOW29
            mid <<= _S32
            total += mid
            total += ll >> _S61
            ll &= _P
            total += ll
            total += self._b                         # total < 2^64
            carry = total >> _S61
            total &= _P
            total += carry                           # total <= p + 7
            lowest = np.minimum(total, total - _P).min(axis=1)
            best = lowest if best is None else np.minimum(best, lowest)
        return tuple(best.tolist())

    @staticmethod
    def estimated_jaccard(signature_a: tuple[int, ...],
                          signature_b: tuple[int, ...]) -> float:
        if len(signature_a) != len(signature_b):
            raise ValueError("signatures have different lengths")
        matches = sum(1 for a, b in zip(signature_a, signature_b)
                      if a == b)
        return matches / len(signature_a)


def jaccard(a: set[int], b: set[int]) -> float:
    """Exact Jaccard similarity of two shingle sets."""
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


class NearDuplicateFilter:
    """Streaming near-duplicate filter over documents.

    Keeps the first of each near-duplicate cluster; a document is a
    near-duplicate when its estimated Jaccard similarity to any kept
    document exceeds ``threshold``.  Banding (LSH) keeps candidate
    lookups sub-linear.
    """

    def __init__(self, threshold: float = 0.8, n_hashes: int = 64,
                 bands: int = 16, seed: int = 1) -> None:
        if n_hashes % bands:
            raise ValueError("bands must divide n_hashes")
        self.threshold = threshold
        self.bands = bands
        self.n_hashes = n_hashes
        self.rows = n_hashes // bands
        self.seed = seed
        self._hasher = MinHasher(n_hashes=n_hashes, seed=seed)
        self._buckets: dict[tuple[int, tuple[int, ...]], list[int]] = {}
        self._signatures: list[tuple[int, ...]] = []
        self.dropped = 0
        #: Current epoch (recrawl round); bumped by :meth:`begin_epoch`.
        self.epoch = 0

    def __len__(self) -> int:
        return len(self._signatures)

    def reset(self) -> None:
        """Drop all registered signatures and buckets (the ``dropped``
        counter survives — it is a lifetime statistic)."""
        self._buckets.clear()
        self._signatures.clear()

    def begin_epoch(self, epoch: int, carry: bool = False) -> None:
        """Move to a new epoch.  By default the signature store is
        reset — each recrawl round deduplicates within itself, and the
        store cannot grow without bound across rounds.  ``carry=True``
        keeps the store (cross-round dedup) for callers that want it.
        """
        if epoch < self.epoch:
            raise ValueError(
                f"epoch may not move backwards ({self.epoch} -> {epoch})")
        if epoch != self.epoch and not carry:
            self.reset()
        self.epoch = epoch

    # -- checkpoint (de)serialization ----------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe snapshot of the mutable state.  Buckets are
        derivable from the signatures, so only signatures, the drop
        counter, and the epoch are stored."""
        return {
            "epoch": self.epoch,
            "dropped": self.dropped,
            "signatures": [list(sig) for sig in self._signatures],
        }

    def load_state(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot; dedup decisions after
        a kill+resume are identical to an uninterrupted run."""
        self.reset()
        self.epoch = int(payload.get("epoch", 0))
        self.dropped = int(payload.get("dropped", 0))
        for index, sig in enumerate(payload.get("signatures", [])):
            signature = tuple(int(v) for v in sig)
            if len(signature) != self.n_hashes:
                raise ValueError(
                    "near-dup signature length mismatch: checkpoint has "
                    f"{len(signature)} hashes, filter expects "
                    f"{self.n_hashes}")
            self._signatures.append(signature)
            for band in range(self.bands):
                chunk = signature[band * self.rows:(band + 1) * self.rows]
                self._buckets.setdefault((band, chunk), []).append(index)

    def is_duplicate(self, text: str) -> bool:
        """Check and register a text; True if it near-duplicates a
        previously seen one."""
        signature = self._hasher.signature(shingles(text))
        candidates: set[int] = set()
        keys = []
        for band in range(self.bands):
            chunk = signature[band * self.rows:(band + 1) * self.rows]
            key = (band, chunk)
            keys.append(key)
            candidates.update(self._buckets.get(key, ()))
        for candidate in candidates:
            similarity = MinHasher.estimated_jaccard(
                signature, self._signatures[candidate])
            if similarity >= self.threshold:
                self.dropped += 1
                return True
        index = len(self._signatures)
        self._signatures.append(signature)
        for key in keys:
            self._buckets.setdefault(key, []).append(index)
        return False

    def filter(self, documents: Iterable[Document]) -> list[Document]:
        """Keep only the first member of each near-duplicate cluster."""
        kept = []
        for document in documents:
            if not self.is_duplicate(document.text):
                kept.append(document)
        return kept
