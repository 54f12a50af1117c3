"""The MinHash kernel against the exact-integer oracle.

``MinHasher.signature`` computes ``(a·x + b) mod (2^61 − 1)`` with a
32-bit limb split in ``uint64``; ``minhash_oracle`` computes it with
Python bignums.  Every signature must be bit-identical — stored
revision signatures (``PageMemory``, checkpoints) keep their meaning
only if the hash family's values never change.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import minhash_oracle
from repro.crawler.recrawl import (
    PageRecord, content_fingerprint, revision_signature,
)
from repro.html.neardup import _BLOCK, MinHasher, shingles

P = minhash_oracle.PRIME
U64_MAX = (1 << 64) - 1
#: Values at the edges of the two reductions (x mod p, then 2^61 ≡ 1).
EDGES = [0, 1, P - 1, P, P + 1, 2 * P, 2 * P + 1, 1 << 61, (1 << 32) - 1,
         1 << 32, 1 << 63, U64_MAX - 1, U64_MAX]

#: ``revision_signature`` of two fixed bodies, computed by the Python
#: generator this kernel replaced.
PAGE = ("<html><head><title>Health article 3</title></head><body><p>The "
        "patients received treatment with imatinib and the response of "
        "BRCA1 carriers improved significantly across the study cohort."
        "</p><p>Adverse events were rare and resolved without "
        "intervention.</p></body></html>")
PAGE_SIGNATURE = (
    76597705581101201, 79109269082215700, 87779116225384439,
    230206892266112717, 74999723948898381, 85179240668252414,
    3098285113034120, 16036566216995237, 2910708767913810,
    145627132374802153, 54375209722051707, 30759817653303954,
    292043466713586739, 10394989961973770, 7120093694204555,
    179578548595437023)
SHORT = "minor edit"
SHORT_SIGNATURE = (
    1454414522644244026, 1521518269111179521, 775562327885524263,
    502286857910234460, 933074731110280157, 141182291135175838,
    1444152002086392331, 883559833654597909, 1665813419495006555,
    2070731048633106872, 895080722315264274, 1100289869860085442,
    1426554498310508185, 2020258752972841019, 1456526353891264878,
    1118324276951001851)

uint64s = st.one_of(st.sampled_from(EDGES), st.integers(0, U64_MAX))


def random_set(size: int, seed: int) -> set[int]:
    rng = random.Random(seed)
    values = set(EDGES[:size])
    while len(values) < size:
        values.add(rng.getrandbits(64))
    return values


class TestOracleEquivalence:
    @given(values=st.sets(uint64s, min_size=1, max_size=300),
           n_hashes=st.sampled_from([1, 16, 64, 128]),
           seed=st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_small_sets(self, values, n_hashes, seed):
        hasher = MinHasher(n_hashes=n_hashes, seed=seed)
        assert hasher.signature(values) == minhash_oracle.signature(
            values, n_hashes, seed)

    @pytest.mark.parametrize("value", EDGES)
    @pytest.mark.parametrize("n_hashes", [1, 16, 64, 128])
    def test_single_edge_value(self, value, n_hashes):
        hasher = MinHasher(n_hashes=n_hashes, seed=3)
        assert hasher.signature({value}) == minhash_oracle.signature(
            {value}, n_hashes, 3)

    @pytest.mark.parametrize("size", [
        _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 10_000])
    @pytest.mark.parametrize("n_hashes,seed", [(16, 97), (64, 1)])
    def test_across_the_block_boundary(self, size, n_hashes, seed):
        values = random_set(size, seed=size)
        hasher = MinHasher(n_hashes=n_hashes, seed=seed)
        assert hasher.signature(values) == minhash_oracle.signature(
            values, n_hashes, seed)

    @given(size=st.integers(1, 10_000), seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_random_sizes(self, size, seed):
        values = random_set(size, seed)
        hasher = MinHasher(n_hashes=16, seed=seed)
        assert hasher.signature(values) == minhash_oracle.signature(
            values, 16, seed)

    @pytest.mark.parametrize("n_hashes,seed", [(1, 0), (16, 97), (64, 1)])
    def test_hashes_that_land_on_zero(self, n_hashes, seed):
        # x = −b·a⁻¹ (mod p) makes a·x + b a multiple of p: the folded
        # sum then reads exactly p and only the last reduction makes it
        # 0.  Shifting x by p (the x mod p reduction) must not matter.
        zeros = [(-b * pow(a, -1, P)) % P
                 for a, b in minhash_oracle.coefficients(n_hashes, seed)]
        values = set(zeros) | {z + P for z in zeros if z + P <= U64_MAX}
        values |= {z + 3 for z in zeros}
        signature = MinHasher(n_hashes=n_hashes, seed=seed).signature(values)
        assert signature == (0,) * n_hashes
        assert signature == minhash_oracle.signature(values, n_hashes, seed)

    def test_hash_family_unchanged(self):
        for n_hashes, seed in ((16, 97), (64, 1), (128, 5)):
            hasher = MinHasher(n_hashes=n_hashes, seed=seed)
            pairs = minhash_oracle.coefficients(n_hashes, seed)
            assert hasher._a.ravel().tolist() == [a for a, _ in pairs]
            assert hasher._b.ravel().tolist() == [b for _, b in pairs]

    def test_empty_set(self):
        assert MinHasher(n_hashes=8).signature(set()) == (P,) * 8


class TestRevisionSignature:
    def test_golden_signatures(self):
        assert revision_signature(PAGE) == PAGE_SIGNATURE
        assert revision_signature(SHORT) == SHORT_SIGNATURE

    def test_matches_oracle_on_shingles(self):
        assert revision_signature(PAGE) == minhash_oracle.signature(
            shingles(PAGE), 16, 97)

    def test_elements_are_plain_ints(self):
        for body in (PAGE, SHORT, ""):
            assert all(type(value) is int
                       for value in revision_signature(body))

    def test_page_record_survives_json(self):
        record = PageRecord(
            final_url="http://h.org/p", version=1,
            fingerprint=content_fingerprint(PAGE),
            signature=revision_signature(PAGE),
            outcome=(True, True, "net", "t", (), "", True, {}),
            body=PAGE, content_type="text/html")
        text = json.dumps(record.to_dict(), sort_keys=True)
        restored = PageRecord.from_dict(json.loads(text))
        assert restored.signature == PAGE_SIGNATURE
        assert json.dumps(restored.to_dict(), sort_keys=True) == text


class TestInputContract:
    @pytest.mark.parametrize("bad", [-1, -(1 << 70), 1 << 64, (1 << 64) + 5,
                                     1 << 100])
    def test_out_of_range_rejected_by_value(self, bad):
        hasher = MinHasher(n_hashes=4)
        with pytest.raises(ValueError, match=str(bad)):
            hasher.signature({1, 2, bad})

    def test_bounds_are_inclusive_exclusive(self):
        hasher = MinHasher(n_hashes=4)
        assert hasher.signature({0, U64_MAX}) == minhash_oracle.signature(
            {0, U64_MAX}, 4, 1)
