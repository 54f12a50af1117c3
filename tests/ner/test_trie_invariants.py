"""What a forked scan and a second process may rely on in a built trie.

A built :class:`~repro.ner.automaton.WordTrie` hands out only
read-only arrays, so a forked worker that scans never writes one of
its pages, and nothing in a build derives from ``hash()``, so every
process builds the trie that finds the same matches whatever its
``PYTHONHASHSEED``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ner.automaton import WordTrie

PATTERNS = ["brca1", "brca2", "tp53", "tumor necrosis factor", "tnf"]


def test_arrays_are_read_only():
    """Nothing may write the arrays a forked worker shares."""
    trie = WordTrie.build(PATTERNS)
    arrays = [value for value in vars(trie).values()
              if isinstance(value, np.ndarray)]
    assert len(arrays) >= 7
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0


#: Builds a small trie and prints its matches on one text.
_MATCHES = """
from repro.ner.automaton import WordTrie
patterns = ["brca1", "tp53", "tumor necrosis factor", "tnf", "nf-kb",
            "(a)", "x.y"]
text = "tp53, brca1 and tumor necrosis factor (tnf) bind nf-kb (a) x.y"
trie = WordTrie.build(patterns)
print([(m.start, m.end, m.pattern_id) for m in trie.find_aligned(text)])
"""


def test_matches_do_not_depend_on_the_hash_seed():
    """A trie built under ``PYTHONHASHSEED=0`` and one built under
    ``PYTHONHASHSEED=1`` find the same matches."""
    source = str(Path(__file__).resolve().parents[2] / "src")
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [source, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", _MATCHES], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("(") > 5
