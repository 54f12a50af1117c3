"""Test oracle: character-level Aho-Corasick multi-pattern matching.

Production matches the dictionaries with
:class:`~repro.ner.automaton.WordTrie`, a trie over word units that
only ever reports word-aligned occurrences.  This is the structure it
replaced: a classic automaton over characters (a trie plus failure
links computed breadth-first) that reports *every* occurrence, from
which :meth:`AhoCorasickAutomaton.find_aligned` keeps the word-aligned
ones.  ``tests/ner/test_word_trie.py`` holds the trie to it, match for
match and in order.

The trie is one flat ``{(node << 21) | ord(char): child}`` transition
dict with tuple outputs per node, grown directly by :meth:`add`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.ner.automaton import Match

#: Bits reserved for the character codepoint in a flat transition key
#: (max codepoint 0x10FFFF needs 21 bits).
_CHAR_BITS = 21
_CHAR_MASK = (1 << _CHAR_BITS) - 1


class AhoCorasickAutomaton:
    """Classic Aho-Corasick automaton over unicode characters.

    Patterns are added with :meth:`add` and the automaton is finalized
    with :meth:`build` (adding after build raises).  Matching is
    case-sensitive.
    """

    def __init__(self) -> None:
        # Parallel arrays per node — fail link and output pattern ids
        # — plus the flat transition dict, which add() grows directly.
        self._fail: list[int] = [0]
        self._outputs: list[tuple[int, ...]] = [()]
        self._patterns: list[str] = []
        self._edges: dict[int, int] = {}
        self._built = False

    def __len__(self) -> int:
        return len(self._patterns)

    @property
    def n_nodes(self) -> int:
        return len(self._fail)

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
        overlapping ones): by end, then longest first, then by id."""
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
        """The matches of :meth:`iter_matches` whose span is
        word-aligned in ``text`` — a boundary character or the text
        edge on each side — in the same order."""
        n = len(text)
        return [match for match in self.iter_matches(text)
                if (match.start == 0
                    or text[match.start - 1] in boundary_chars)
                and (match.end == n or text[match.end] in boundary_chars)]
