"""Offset-preserving tokenization.

Biomedical text needs tokenization that keeps hyphenated gene symbols
("GAD-67"), Greek-letter suffixes ("TNF-alpha"), decimal numbers, and
abbreviations intact, while splitting off sentence punctuation and
parentheses.  Tokens carry exact character offsets into the input so
downstream annotations compose.
"""

from __future__ import annotations

import re
from itertools import accumulate, repeat
from operator import sub
from sys import intern as _intern

from repro.annotations import Token

#: Order matters: longer, more specific patterns first.
_TOKEN_RE = re.compile(
    r"""
    [A-Za-z]+\.(?:[A-Za-z]+\.)+        # dotted abbreviations: e.g., i.v.
  | \d+(?:\.\d+)+                      # decimals / versions: 0.01, 1.4.2
  | [A-Za-z][A-Za-z0-9]*(?:-[A-Za-z0-9]+)+  # hyphen compounds: GAD-67
  | [A-Za-z]+'[a-z]+                   # contractions: don't
  | [A-Za-z][A-Za-z0-9]*               # plain words / alphanumerics
  | \d+                                # integers
  | [()\[\]{}]                         # brackets (kept individually)
  | [.,;:!?%&<>=+/*-]                  # punctuation and operators
  | \S                                 # anything else, one char at a time
    """,
    re.VERBOSE,
)


#: The same tokens, each with the whitespace run before it.  A token
#: never contains whitespace and every other character belongs to one
#: (the last alternative is ``\S``), so the pieces tile the text up to
#: its trailing whitespace: their running lengths are the token ends.
_PIECE_RE = re.compile(r"\s*(?:" + _TOKEN_RE.pattern + ")", re.VERBOSE)

_new_token = tuple.__new__


class Tokenizer:
    """Regex tokenizer with configurable token pattern."""

    def __init__(self, pattern: re.Pattern[str] = _TOKEN_RE) -> None:
        self.pattern = pattern

    def tokenize(self, text: str, base_offset: int = 0) -> list[Token]:
        """Tokenize ``text``; offsets are shifted by ``base_offset``."""
        return [
            Token(m.group(), base_offset + m.start(), base_offset + m.end())
            for m in self.pattern.finditer(text)
        ]


def tokenize(text: str, base_offset: int = 0) -> list[Token]:
    """Tokenize with the default pattern."""
    return tokenize_with_surfaces(text, base_offset)[0]


def tokenize_with_surfaces(text: str, base_offset: int = 0,
                           ) -> tuple[list[Token], list[str]]:
    """The default pattern's :class:`Token` list and the flat
    surface-string list, equal to one ``_TOKEN_RE.finditer`` pass.

    Downstream kernels (HMM decode, CRF features, dictionary
    alignment) consume plain word lists; materializing them here
    saves every consumer a ``[t.text for t in tokens]`` rebuild.
    Surfaces are ``sys.intern``-ed so the many dict probes keyed by
    token text (HMM vocabulary, CRF feature index, word-id tables)
    hash pointer-equal strings.

    Every step is a C-level pass: one ``findall`` of
    whitespace-prefixed pieces (stopping where the trailing whitespace
    starts, so no match attempt backtracks over it), ``accumulate``
    over their lengths for the ends, ``lstrip`` for the surfaces, and
    ``tuple.__new__`` for the tokens.  ``str.lstrip``/``rstrip`` and
    the regex whitespace class agree on every code point.
    """
    pieces = _PIECE_RE.findall(text, 0, len(text.rstrip()))
    ends = list(accumulate(map(len, pieces), initial=base_offset))
    del ends[0]
    surfaces = list(map(_intern, map(str.lstrip, pieces)))
    starts = map(sub, ends, map(len, surfaces))
    tokens = list(map(_new_token, repeat(Token),
                      zip(surfaces, starts, ends, repeat(""))))
    return tokens, surfaces
