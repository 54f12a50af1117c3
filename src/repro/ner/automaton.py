"""Word-aligned multi-pattern matching over text units.

The dictionary taggers' engine: finds every word-aligned occurrence of
hundreds of thousands of patterns in one pass over a text.  Building
it is the "dictionary load" phase whose cost the paper measures at
~20 minutes for the 700K-entry gene dictionary, and whose footprint
drove the 6-20 GB per-worker memory that capped the cluster's degree
of parallelism (Section 4.2).

A *unit* is a maximal run of non-boundary characters or a single
boundary character (:data:`BOUNDARY_CHARS`).  A match is word-aligned
when a boundary character or the text edge sits on each side of it,
so it starts and ends on unit edges and its units are exactly the
pattern's units.  The patterns therefore go into a trie keyed by
unit, and a scan splits the text into units once and walks the trie
forward from every unit that starts some pattern: the same matches a
character-level Aho-Corasick automaton filtered for alignment would
report, with no failure links and no breadth-first build.

The trie is flat read-only NumPy arrays, built with no per-node
object: the distinct units' code points in the sorted order of their
own 64-bit hashes (:func:`_hashes`), so a text unit's id is where its
hash lands, confirmed by its code points; sorted ``parent * stride +
unit`` transition keys, numbered so that the child of ``keys[i]`` is
node ``i + 1``; and each node's pattern ids in CSR form.  A scan walks
a batch of texts one trie level at a time and reads no Python object
per node, unit or pattern, so a forked worker scans without writing a
page of the trie (a reference count is a write).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

#: Characters that end a word: a match must have one (or the text
#: edge) on each side.  Units depend on this set, so changing it
#: changes every trie's units and matches.
BOUNDARY_CHARS = frozenset(" \t\n\r.,;:!?()[]{}<>\"'`/\\|")
#: Joins the texts of a batch scan: a boundary character, so no unit
#: spans two texts, and one no pattern may contain, so no match does.
SEPARATOR = "\n"

#: ``_BOUNDARY.take(code, mode="clip")``: is the code point a boundary
#: character?  (All of them are ASCII.)
_BOUNDARY = np.zeros(129, dtype=bool)
_BOUNDARY[[ord(char) for char in BOUNDARY_CHARS]] = True
#: Units per block of the per-character kernels.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class Match:
    """One pattern occurrence: ``[start, end)`` and the pattern's id."""

    start: int
    end: int
    pattern_id: int


def _codes(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                         dtype=np.uint32)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts,
    lengths)])``."""
    ends = lengths.cumsum()
    return (np.arange(ends[-1] if len(ends) else 0, dtype=np.int32)
            + (starts - ends + lengths).astype(np.int32).repeat(lengths))


def _units(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The units of ``codes``: their starts, their lengths, and whether
    each is a boundary character."""
    boundary = _BOUNDARY.take(codes, mode="clip")
    first = boundary.copy()     # the first character of a unit
    first[1:] |= boundary[:-1]
    first[:1] = True
    starts = first.nonzero()[0]
    lengths = np.empty_like(starts)
    lengths[:-1] = starts[1:] - starts[:-1]
    lengths[-1:] = len(codes) - starts[-1:]
    return starts, lengths, boundary[starts]


def _same(codes: np.ndarray, starts: np.ndarray, other: np.ndarray,
          other_starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per unit, whether ``codes[start:start + length]`` equals
    ``other[other_start:other_start + length]``."""
    same = np.empty(len(lengths), dtype=bool)
    for block in _blocks(len(lengths)):
        size = lengths[block]
        at = _ranges(starts[block], size)
        shift = (starts[block] - other_starts[block]).astype(np.int32)
        same[block] = np.logical_and.reduceat(
            codes[at] == other[at - shift.repeat(size)],
            size.cumsum() - size)
    return same


def _hashes(codes: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
            salt: int) -> np.ndarray:
    """One 64-bit hash per unit ``codes[start:start + length]`` (the
    units tile ``codes``): the sum over its characters of splitmix64's
    finalizer applied to (code point, offset in the unit, ``salt``).
    Unlike ``hash()`` it does not change with ``PYTHONHASHSEED``."""
    hashes = np.empty(len(starts), dtype=np.uint64)
    for block in _blocks(len(starts)):
        base, size = starts[block][0], lengths[block]
        first = starts[block] - base
        mixed = np.arange(first[-1] + size[-1], dtype=np.uint64)
        mixed -= first.astype(np.uint64).repeat(size)
        mixed <<= np.uint64(21)
        mixed |= codes[base:base + len(mixed)]
        mixed |= np.uint64(salt) << np.uint64(42)
        for shift, factor in ((30, 0xBF58476D1CE4E5B9),
                              (27, 0x94D049BB133111EB)):
            mixed ^= mixed >> np.uint64(shift)
            mixed *= np.uint64(factor)
        mixed ^= mixed >> np.uint64(31)
        hashes[block] = np.add.reduceat(mixed, first)
    return hashes


def _blocks(count: int) -> Iterator[slice]:
    """Slices of at most ``_BLOCK`` units covering ``range(count)``,
    so per-character temporaries stay small however long the input."""
    for start in range(0, count, _BLOCK):
        yield slice(start, start + _BLOCK)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class WordTrie:
    """An immutable trie over the units of its patterns.

    Built in one call (:meth:`build`).  Matching is case-sensitive;
    callers wanting case-folding fold both sides.
    """

    def __init__(self, unit_codes: np.ndarray, unit_hashes: np.ndarray,
                 arrays: dict[str, np.ndarray], salt: int,
                 payloads: list[Any] | None = None) -> None:
        self._unit_codes = _frozen(unit_codes.astype(
            np.min_scalar_type(int(unit_codes.max(initial=0)))))
        self._unit_hashes, self._salt = _frozen(unit_hashes), salt
        self._unit_bounds, self._keys, self._out_bounds, self._out_ids = (
            _frozen(arrays[name]) for name in (
                "unit_bounds", "keys", "out_bounds", "out_ids"))
        # The root's child per unit (0 for none), so a walk's first
        # step is one gather, and the id of each one-character boundary
        # unit, so boundary units skip the hash lookup.
        first = self._keys[:self._keys.searchsorted(len(unit_hashes) + 1)]
        self._root = np.zeros(len(unit_hashes) + 1, dtype=np.int32)
        self._root[first] = np.arange(1, len(first) + 1)
        single = np.flatnonzero(np.diff(self._unit_bounds) == 1)
        code = self._unit_codes[self._unit_bounds[single]]
        boundary = _BOUNDARY.take(code, mode="clip")
        self._boundary_ids = np.full(129, len(unit_hashes), dtype=np.int64)
        self._boundary_ids[code[boundary]] = single[boundary]
        _frozen(self._root), _frozen(self._boundary_ids)
        self._payloads = payloads

    @classmethod
    def build(cls, patterns: Sequence[str],
              payloads: Sequence[Any] | None = None) -> "WordTrie":
        """A trie over ``patterns`` (pattern ids are positional), with
        one payload per pattern attached when ``payloads`` is given.
        Nodes are numbered one level at a time by sorting that level's
        ``(parent, unit)`` keys, so no per-node object is ever made."""
        patterns = list(patterns)
        if payloads is not None:
            payloads = list(payloads)
            if len(payloads) != len(patterns):
                raise ValueError(f"{len(payloads)} payloads for "
                                 f"{len(patterns)} patterns")
        if not all(patterns):
            raise ValueError("empty pattern")
        codes = _codes(SEPARATOR.join(patterns))
        starts, lengths, boundary = _units(codes)
        cut = boundary & (codes[starts] == ord(SEPARATOR))
        cuts = cut.nonzero()[0]
        if len(cuts) != max(len(patterns) - 1, 0):
            raise ValueError(f"a pattern contains {SEPARATOR!r}, the "
                             f"batch separator")
        sizes = np.diff(cuts, prepend=-1, append=len(starts)) - 1
        kept_starts, kept_lengths = starts[~cut], lengths[~cut]
        salt = 0
        while True:     # a salt under which equal hashes mean equal units
            hashes, first, ids = np.unique(
                _hashes(codes, starts, lengths, salt)[~cut],
                return_index=True, return_inverse=True)
            unit_starts, unit_lengths = kept_starts[first], kept_lengths[first]
            if ((unit_lengths[ids] == kept_lengths).all() and _same(
                    codes, kept_starts, codes, unit_starts[ids],
                    kept_lengths).all()):
                break
            salt += 1
        begin = np.cumsum(sizes) - sizes
        node = np.zeros(len(patterns), dtype=np.int64)
        levels = [np.empty(0, dtype=np.int64)]
        live = np.arange(len(patterns))
        depth = n_nodes = 1
        while len(live):
            level, child = np.unique(
                node[live] * (len(hashes) + 1) + ids[begin[live] + depth - 1],
                return_inverse=True)
            node[live] = n_nodes + child
            n_nodes += len(level)
            levels.append(level)
            live = live[sizes[live] > depth]
            depth += 1
        arrays = {"unit_bounds": np.zeros(len(hashes) + 1, dtype=np.int32),
                  "keys": np.concatenate(levels),
                  "out_bounds": np.zeros(n_nodes + 1, dtype=np.int32),
                  "out_ids": np.argsort(node, kind="stable")
                  .astype(np.int32)}
        np.cumsum(unit_lengths, out=arrays["unit_bounds"][1:])
        np.cumsum(np.bincount(node, minlength=n_nodes),
                  out=arrays["out_bounds"][1:])
        return cls(codes[_ranges(unit_starts, unit_lengths)], hashes,
                   arrays, salt, payloads)

    def __len__(self) -> int:
        return len(self._out_ids)

    @property
    def n_nodes(self) -> int:
        return len(self._keys) + 1

    @property
    def payloads(self) -> list[Any] | None:
        """The per-pattern payload table (parallel to patterns), if any.

        Multi-type dictionary scans attach ``(entity_type, term_id,
        canonical)`` tuples here so one matching pass can resolve every
        hit without a second lookup structure.
        """
        return self._payloads

    def find_aligned(self, text: str) -> list[Match]:
        """:meth:`find_aligned_batch` over a batch of one."""
        return self.find_aligned_batch([text])[0]

    def find_aligned_batch(self, texts: Sequence[str]) -> list[list[Match]]:
        """Every word-aligned occurrence of every pattern, per text.

        Each list is ordered by end, then longest first, then by
        pattern id — the order a character-level automaton emits them
        in — and its offsets index its own text.  One walk covers the
        batch joined by :data:`SEPARATOR`.
        """
        found: list[list[Match]] = [[] for _ in texts]
        joined = SEPARATOR.join(texts)
        if not joined or not len(self._keys):
            return found
        codes = _codes(joined)
        starts, lengths, boundary = _units(codes)
        edges = np.concatenate((starts, [len(codes)]))
        # A match starts at unit i when ``edge[i]`` (after a boundary
        # unit, or at the edge) and ends before unit j when
        # ``edge[j + 1]`` (a boundary unit, or the edge).
        edge = np.concatenate(([True], boundary, [True]))
        ids = self._unit_ids(codes, starts, lengths, edge[1:-1])
        node = self._root[ids[:-1]]
        origin = ((node > 0) & edge[:-2]).nonzero()[0]
        at, node = origin + 1, node[origin].astype(np.int64)
        keys, bounds, closes = self._keys, self._out_bounds, edge[1:]
        hits = []
        while len(at):
            done = (bounds[node + 1] > bounds[node]) & closes[at]
            hits.append((origin[done], at[done], node[done]))
            key = node * len(self._root) + ids[at]
            slot = np.minimum(keys.searchsorted(key), len(keys) - 1)
            step = keys[slot] == key
            origin, at, node = origin[step], at[step] + 1, slot[step] + 1
        if not hits:
            return found
        origin, at, node = (np.concatenate(part) for part in zip(*hits))
        counts = bounds[node + 1] - bounds[node]
        matches = sorted(zip(edges[at].repeat(counts).tolist(),
                             edges[origin].repeat(counts).tolist(),
                             self._out_ids[_ranges(bounds[node], counts)]
                             .tolist()))
        offsets = np.cumsum([len(text) + 1 for text in texts]).tolist()
        text = shift = 0
        for end, start, pattern_id in matches:
            while start >= offsets[text]:
                shift = offsets[text]
                text += 1
            found[text].append(Match(start - shift, end - shift, pattern_id))
        return found

    def _unit_ids(self, codes: np.ndarray, starts: np.ndarray,
                  lengths: np.ndarray, boundary: np.ndarray) -> np.ndarray:
        """Each unit's id, then an end sentinel (the unit count, which
        also stands for a unit the trie lacks).  A word unit's id is its
        hash's slot, kept when its length and code points agree."""
        table, bounds = self._unit_hashes, self._unit_bounds
        ids = np.concatenate((
            self._boundary_ids.take(codes[starts], mode="clip"), [len(table)]))
        word = (~boundary).nonzero()[0]
        hashes = _hashes(codes, starts, lengths, self._salt)[word]
        slot = np.minimum(table.searchsorted(hashes), len(table) - 1)
        hit = (table[slot] == hashes) & (
            bounds[slot + 1] - bounds[slot] == lengths[word])
        word, slot = word[hit], slot[hit]
        same = _same(codes, starts[word], self._unit_codes, bounds[slot],
                     lengths[word])
        ids[word[same]] = slot[same]
        return ids

    def approx_memory_bytes(self) -> int:
        """The bytes the trie holds: its arrays that grow with it and
        the payload table (each distinct payload once)."""
        total = sum(array.nbytes for array in (
            self._unit_codes, self._unit_hashes, self._root,
            self._unit_bounds, self._keys, self._out_bounds, self._out_ids))
        if self._payloads is not None:
            size = sys.getsizeof
            shared = {id(payload): payload for payload in self._payloads}
            total += size(self._payloads) + sum(map(size, shared.values()))
        return total
