"""Exact-integer MinHash signature — the test-only oracle.

This is the signature ``MinHasher.signature`` computed before it became
one NumPy kernel: a Python generator of bignum ``(a·x + b) % p`` per
hash function.  It is kept here, out of ``src/``, as the ground truth
the limb-split kernel in :mod:`repro.html.neardup` is held to
(``tests/html/test_minhash_kernel.py``); it rebuilds the hash family
from the seed itself and shares no arithmetic with the production
module.
"""

from __future__ import annotations

from repro.util import seeded_rng

PRIME = (1 << 61) - 1


def coefficients(n_hashes: int, seed: int) -> list[tuple[int, int]]:
    """The ``(a, b)`` pairs of ``MinHasher(n_hashes, seed)``."""
    rng = seeded_rng("minhash", seed)
    return [(rng.randrange(1, PRIME), rng.randrange(0, PRIME))
            for _ in range(n_hashes)]


def signature(shingle_set: set[int], n_hashes: int,
              seed: int) -> tuple[int, ...]:
    if not shingle_set:
        return tuple([PRIME] * n_hashes)
    return tuple(min((a * shingle + b) % PRIME for shingle in shingle_set)
                 for a, b in coefficients(n_hashes, seed))
