"""Test oracle: the dictionary trie as one Python object per node.

The production :class:`repro.ner.automaton.WordTrie` keeps its trie
in flat read-only arrays.  This is the layout it replaced, moved here
unchanged: a child dict per internal node, an int tuple per terminal
node and a new string per unit.  It answers the same matches in the
same order, so it is the per-node arm of
``benchmarks/bench_dictionary_scaling.py`` (retained bytes, build
seconds, and the pages a forked scan writes through reference counts)
and a second reference beside ``aho_corasick_oracle``.
"""

from __future__ import annotations

import re
import sys
from itertools import accumulate
from typing import Any, Sequence

from repro.ner.automaton import BOUNDARY_CHARS, Match

_CLASS = "".join(re.escape(char) for char in sorted(BOUNDARY_CHARS))
#: ``findall`` splits a text into its units, in order.
_UNITS = re.compile(f"[^{_CLASS}]+|[{_CLASS}]")


class WordTrie:
    """An immutable trie over the units of its patterns.

    Built in one call (:meth:`build`) or restored from a cache entry
    (:meth:`from_state`).  Matching is case-sensitive; callers wanting
    case-folding fold both sides.
    """

    def __init__(self, children: list[dict[str, int] | None],
                 outputs: list[tuple[int, ...]], patterns: list[str],
                 payloads: list[Any] | None = None) -> None:
        self._children = children
        self._outputs = outputs
        self._patterns = patterns
        self._payloads = payloads

    @classmethod
    def build(cls, patterns: Sequence[str],
              payloads: Sequence[Any] | None = None) -> "WordTrie":
        """A trie over ``patterns`` (pattern ids are positional), with
        one payload per pattern attached when ``payloads`` is given."""
        patterns = list(patterns)
        if payloads is not None:
            payloads = list(payloads)
            if len(payloads) != len(patterns):
                raise ValueError(f"{len(payloads)} payloads for "
                                 f"{len(patterns)} patterns")
        children: list[dict[str, int] | None] = [None]
        outputs: list[tuple[int, ...]] = [()]
        for pattern_id, pattern in enumerate(patterns):
            if not pattern:
                raise ValueError("empty pattern")
            node = 0
            for unit in _UNITS.findall(pattern):
                table = children[node]
                if table is None:
                    table = children[node] = {}
                child = table.get(unit)
                if child is None:
                    child = table[unit] = len(children)
                    children.append(None)
                    outputs.append(())
                node = child
            outputs[node] += (pattern_id,)
        return cls(children, outputs, patterns, payloads)

    def __len__(self) -> int:
        return len(self._patterns)

    @property
    def n_nodes(self) -> int:
        return len(self._children)

    @property
    def payloads(self) -> list[Any] | None:
        """The per-pattern payload table (parallel to patterns), if any.

        Multi-type dictionary scans attach ``(entity_type, term_id,
        canonical)`` tuples here so one matching pass can resolve every
        hit without a second lookup structure; the table rides along in
        the frozen serialized form (see :meth:`to_state`).
        """
        return self._payloads

    def find_aligned(self, text: str) -> list[Match]:
        """Every word-aligned occurrence of every pattern in ``text``.

        Ordered by end, then longest first, then by pattern id — the
        order a character-level automaton emits them in.  A walk from
        a boundary unit, or to one, can meet a word character beside
        it, so each walk checks the character before its start and
        each hit the character after its end.
        """
        units = _UNITS.findall(text)
        root = self._children[0]
        if root is None:
            return []
        offsets = list(accumulate(map(len, units), initial=0))
        children = self._children
        outputs = self._outputs
        boundary = BOUNDARY_CHARS
        n_units = len(units)
        n = len(text)
        hits: list[tuple[int, int, int]] = []
        append = hits.append
        for first in [index for index, unit in enumerate(units)
                      if unit in root]:
            start = offsets[first]
            if start and text[start - 1] not in boundary:
                continue
            node = root[units[first]]
            index = first + 1
            while True:
                out = outputs[node]
                if out:
                    end = offsets[index]
                    if end == n or text[end] in boundary:
                        for pattern_id in out:
                            append((end, start, pattern_id))
                table = children[node]
                if table is None or index == n_units:
                    break
                node = table.get(units[index])
                if node is None:
                    break
                index += 1
        hits.sort()
        return [Match(start, end, pattern_id)
                for end, start, pattern_id in hits]

    def approx_memory_bytes(self) -> int:
        """The bytes the trie's containers occupy: the two per-node
        lists, every child dict and distinct unit key, every non-empty
        output tuple, the pattern strings and the payload table (each
        distinct payload once)."""
        size = sys.getsizeof
        tables = [table for table in self._children if table is not None]
        units = {id(unit): unit for table in tables for unit in table}
        total = (size(self._children) + sum(map(size, tables))
                 + sum(map(size, units.values()))
                 + size(self._outputs)
                 + sum(size(out) for out in self._outputs if out)
                 + size(self._patterns) + sum(map(size, self._patterns)))
        if self._payloads is not None:
            shared = {id(payload): payload for payload in self._payloads}
            total += size(self._payloads) + sum(map(size, shared.values()))
        return total

    # -- serialization (see repro.ner.cache) --------------------------------

    def to_state(self) -> dict[str, Any]:
        """Snapshot for persistent caching: primitives only.

        The payload table (when attached) is part of the frozen form,
        so a warm cache load restores the full multi-type scan state
        without consulting the source dictionaries.
        """
        state = {"children": self._children, "outputs": self._outputs,
                 "patterns": self._patterns}
        if self._payloads is not None:
            state["payloads"] = self._payloads
        return state

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "WordTrie":
        """A trie from :meth:`to_state` output, without rebuilding."""
        return cls(state["children"], state["outputs"], state["patterns"],
                   state.get("payloads"))
