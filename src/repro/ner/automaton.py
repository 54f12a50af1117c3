"""Aho-Corasick multi-pattern string matching.

The dictionary taggers' engine: matches hundreds of thousands of
patterns against text in a single linear pass.  Construction builds a
trie plus failure links (BFS) — this is the "dictionary load" phase
whose cost the paper measures at ~20 minutes for the 700K-entry gene
dictionary, and whose node fan-out drives the 6-20 GB per-worker
memory footprints that capped the cluster's degree of parallelism.

The trie is one flat ``{(node << 21) | ord(char): child}`` transition
dict from the first :meth:`~AhoCorasickAutomaton.add` on, with tuple
outputs per node (the empty tuple is an interned singleton) — smaller
than a dict per node, orders of magnitude faster to serialize and
re-load (the property the persistent build cache,
:mod:`repro.ner.cache`, depends on), and with nothing to convert at
:meth:`~AhoCorasickAutomaton.build` time, so construction never holds
much more than the automaton retains (16 MB peak for 13 MB on the
merged multi-type dictionary).

``approx_memory_bytes`` exposes a footprint estimate so the simulated
cluster can reason about worker memory the same way the real
deployment had to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

#: Bits reserved for the character codepoint in a flat transition key
#: (max codepoint 0x10FFFF needs 21 bits).
_CHAR_BITS = 21
_CHAR_MASK = (1 << _CHAR_BITS) - 1


@dataclass(frozen=True)
class Match:
    """One pattern occurrence: ``[start, end)`` and the pattern's id."""

    start: int
    end: int
    pattern_id: int


class AhoCorasickAutomaton:
    """Classic Aho-Corasick automaton over unicode characters.

    Patterns are added with :meth:`add` and the automaton is finalized
    with :meth:`build` (adding after build raises).  Matching is
    case-sensitive; callers wanting case-folding fold both sides.
    """

    def __init__(self) -> None:
        # Parallel arrays per node — fail link and output pattern ids
        # — plus the flat transition dict, which add() grows directly.
        self._fail: list[int] = [0]
        self._outputs: list[tuple[int, ...]] = [()]
        self._patterns: list[str] = []
        self._payloads: list[Any] | None = None
        self._edges: dict[int, int] = {}
        self._built = False

    def __len__(self) -> int:
        return len(self._patterns)

    @property
    def n_nodes(self) -> int:
        return len(self._fail)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def add(self, pattern: str) -> int:
        """Add a pattern; returns its pattern id."""
        if self._built:
            raise RuntimeError("cannot add patterns after build()")
        if not pattern:
            raise ValueError("empty pattern")
        edges = self._edges
        node = 0
        for char in pattern:
            key = (node << _CHAR_BITS) | ord(char)
            nxt = edges.get(key)
            if nxt is None:
                nxt = edges[key] = len(self._fail)
                self._fail.append(0)
                self._outputs.append(())
            node = nxt
        pattern_id = len(self._patterns)
        self._patterns.append(pattern)
        self._outputs[node] += (pattern_id,)
        return pattern_id

    def add_all(self, patterns: Iterable[str]) -> None:
        for pattern in patterns:
            self.add(pattern)

    def pattern(self, pattern_id: int) -> str:
        return self._patterns[pattern_id]

    @property
    def patterns(self) -> list[str]:
        """The ordered pattern list (pattern ids are positional)."""
        return self._patterns

    # -- per-pattern payloads ------------------------------------------------

    @property
    def payloads(self) -> list[Any] | None:
        """Optional per-pattern payload table (parallel to patterns).

        Multi-type dictionary scans attach ``(entity_type, term_id,
        canonical)`` tuples here so one matching pass can resolve every
        hit without a second lookup structure; the table rides along in
        the frozen serialized form (see :meth:`to_state`).
        """
        return self._payloads

    def set_payloads(self, payloads: Sequence[Any]) -> None:
        """Attach one payload per pattern (any marshal-able value)."""
        payloads = list(payloads)
        if len(payloads) != len(self._patterns):
            raise ValueError(
                f"{len(payloads)} payloads for {len(self._patterns)} "
                f"patterns")
        self._payloads = payloads

    def payload(self, pattern_id: int) -> Any:
        if self._payloads is None:
            raise RuntimeError("automaton has no payload table")
        return self._payloads[pattern_id]

    def build(self) -> None:
        """Compute failure links and merge outputs, shallow nodes
        first, then freeze.

        A node's failure target is always shallower than the node, and
        a child is always created after its parent, so one pass over
        the edges in creation order yields every node's depth and a
        stable sort by depth is a breadth-first order.
        """
        edges, fail, outputs = self._edges, self._fail, self._outputs
        depth = [0] * len(fail)
        for key, child in edges.items():
            depth[child] = depth[key >> _CHAR_BITS] + 1
        for key in sorted(edges, key=lambda key: depth[edges[key]]):
            child = edges[key]
            code = key & _CHAR_MASK
            state = fail[key >> _CHAR_BITS]
            while state and (state << _CHAR_BITS) | code not in edges:
                state = fail[state]
            target = edges.get((state << _CHAR_BITS) | code, 0)
            if target != child:
                fail[child] = target
                if outputs[target]:
                    outputs[child] += outputs[target]
        self._built = True

    def iter_matches(self, text: str) -> Iterator[Match]:
        """Yield all pattern occurrences in ``text`` (including
        overlapping ones), in end-position order."""
        if not self._built:
            raise RuntimeError("automaton not built; call build() first")
        edges = self._edges
        fail = self._fail
        outputs = self._outputs
        patterns = self._patterns
        node = 0
        for position, char in enumerate(text):
            code = ord(char)
            while node and (node << _CHAR_BITS) | code not in edges:
                node = fail[node]
            node = edges.get((node << _CHAR_BITS) | code, 0)
            for pattern_id in outputs[node]:
                length = len(patterns[pattern_id])
                yield Match(position - length + 1, position + 1, pattern_id)

    def find_all(self, text: str) -> list[Match]:
        return list(self.iter_matches(text))

    def find_aligned(self, text: str,
                     boundary_chars: frozenset[str]) -> list[Match]:
        """All matches whose span is word-aligned in ``text`` — no
        word character adjacent on either side.

        Same matches, in the same end-position order, as filtering
        :meth:`iter_matches` through an alignment check; inlined into
        one loop (no generator frames, the right-boundary test hoisted
        per position) because this is the merged dictionary scan's
        hot path.
        """
        if not self._built:
            raise RuntimeError("automaton not built; call build() first")
        edges = self._edges
        fail = self._fail
        outputs = self._outputs
        patterns = self._patterns
        n = len(text)
        node = 0
        found: list[Match] = []
        append = found.append
        for position, char in enumerate(text):
            code = ord(char)
            while node and (node << _CHAR_BITS) | code not in edges:
                node = fail[node]
            node = edges.get((node << _CHAR_BITS) | code, 0)
            out = outputs[node]
            if out:
                end = position + 1
                if end >= n or text[end] in boundary_chars:
                    for pattern_id in out:
                        start = end - len(patterns[pattern_id])
                        if start == 0 or text[start - 1] in boundary_chars:
                            append(Match(start, end, pattern_id))
        return found

    def approx_memory_bytes(self) -> int:
        """Rough resident-size estimate of the automaton: one flat
        transition dict (~80 B/edge including its boxed int key), the
        per-node fail link and output slot, and tuple outputs (the
        empty tuple is an interned singleton shared by the great
        majority of nodes) — ~115 B/node on trie-shaped data.
        """
        pattern_chars = sum(len(p) for p in self._patterns)
        n_output_refs = sum(len(o) for o in self._outputs)
        return (80 * len(self._edges) + 36 * self.n_nodes
                + 16 * n_output_refs + 60 * pattern_chars)

    # -- serialization (see repro.ner.cache) --------------------------------

    def to_state(self) -> dict[str, Any]:
        """Snapshot of a *built* automaton for persistent caching.

        The payload table (when attached) is part of the frozen form,
        so a warm cache load restores the full multi-type scan state
        without consulting the source dictionaries.
        """
        if not self._built:
            raise RuntimeError("automaton not built; call build() first")
        state = {"edges": self._edges, "fail": self._fail,
                 "outputs": self._outputs, "patterns": self._patterns}
        if self._payloads is not None:
            state["payloads"] = self._payloads
        return state

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "AhoCorasickAutomaton":
        """Rebuild an automaton from :meth:`to_state` output, skipping
        trie construction and the failure-link BFS entirely."""
        automaton = cls()
        automaton._edges = state["edges"]
        automaton._fail = state["fail"]
        automaton._outputs = state["outputs"]
        automaton._patterns = state["patterns"]
        automaton._payloads = state.get("payloads")
        automaton._built = True
        return automaton
