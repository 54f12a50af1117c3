"""Tests for the offset-preserving tokenizer."""

from hypothesis import given, settings, strategies as st

from repro.annotations import Token
from repro.nlp.tokenize import (
    _TOKEN_RE, Tokenizer, tokenize, tokenize_with_surfaces,
)


class TestBasics:
    def test_simple_sentence(self):
        words = [t.text for t in tokenize("The cat sat.")]
        assert words == ["The", "cat", "sat", "."]

    def test_offsets_match_text(self):
        text = "BRCA1 inhibits the tumor (p < 0.01)."
        for token in tokenize(text):
            assert text[token.start:token.end] == token.text

    def test_hyphen_compound_kept(self):
        assert [t.text for t in tokenize("GAD-67 rises")][0] == "GAD-67"

    def test_greek_suffix_compound(self):
        assert tokenize("TNF-alpha")[0].text == "TNF-alpha"

    def test_decimal_number(self):
        assert tokenize("p = 0.01")[2].text == "0.01"

    def test_parentheses_split(self):
        words = [t.text for t in tokenize("(see Fig)")]
        assert words[0] == "(" and words[-1] == ")"

    def test_contraction(self):
        assert "don't" in [t.text for t in tokenize("we don't know")]

    def test_dotted_abbreviation(self):
        assert tokenize("given i.v. daily")[1].text == "i.v."

    def test_base_offset_shift(self):
        tokens = tokenize("a b", base_offset=100)
        assert tokens[0].start == 100
        assert tokens[1].start == 102

    def test_empty_text(self):
        assert tokenize("") == []

    def test_percent_and_comparison(self):
        words = [t.text for t in tokenize("95 % CI < 2")]
        assert "%" in words and "<" in words

    def test_custom_pattern(self):
        import re

        words_only = Tokenizer(re.compile(r"[a-z]+"))
        assert [t.text for t in words_only.tokenize("ab, cd!")] == \
            ["ab", "cd"]


@given(st.text(max_size=300))
@settings(max_examples=150, deadline=None)
def test_property_offsets_always_consistent(text):
    for token in tokenize(text):
        assert text[token.start:token.end] == token.text


@given(st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"),
                                      whitelist_characters=" .-"),
               max_size=200))
@settings(max_examples=100, deadline=None)
def test_property_tokens_ordered_and_nonoverlapping(text):
    tokens = tokenize(text)
    for previous, current in zip(tokens, tokens[1:]):
        assert current.start >= previous.end


@given(st.text(alphabet="abcDEF0123 .,-()", max_size=200))
@settings(max_examples=100, deadline=None)
def test_property_non_whitespace_coverage(text):
    """Every non-space character lands inside some token."""
    covered = set()
    for token in tokenize(text):
        covered.update(range(token.start, token.end))
    for index, char in enumerate(text):
        if not char.isspace():
            assert index in covered


#: Every whitespace class the columns path must agree with the regex
#: on: ASCII, the C0 separators, NEL, NBSP and the ideographic space.
_WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2009\u3000"


def _finditer_tokens(text, base_offset):
    return [Token(m.group(), base_offset + m.start(), base_offset + m.end())
            for m in _TOKEN_RE.finditer(text)]


@given(text=st.text(alphabet=st.one_of(
           st.sampled_from(_WHITESPACE),
           st.sampled_from("aZ09.,-()'%/é漢"),
           st.characters()), max_size=120),
       base_offset=st.integers(0, 10_000))
@settings(max_examples=400, deadline=None)
def test_columns_equal_one_finditer_pass(text, base_offset):
    tokens, surfaces = tokenize_with_surfaces(text, base_offset)
    assert tokens == _finditer_tokens(text, base_offset)
    assert surfaces == [token.text for token in tokens]
    assert all(type(token) is Token and token.pos == ""
               for token in tokens)


def test_columns_on_empty_and_whitespace_only_text():
    assert tokenize_with_surfaces("") == ([], [])
    assert tokenize_with_surfaces(_WHITESPACE * 3, 7) == ([], [])
    text = _WHITESPACE + "GAD-67" + _WHITESPACE + "(x)" + _WHITESPACE
    tokens, surfaces = tokenize_with_surfaces(text, 5)
    assert surfaces == ["GAD-67", "(", "x", ")"]
    assert tokens == _finditer_tokens(text, 5)
    assert text[tokens[0].start - 5:tokens[0].end - 5] == "GAD-67"


def test_long_trailing_whitespace_is_linear():
    """The match loop stops where the trailing whitespace starts, so
    no attempt backtracks over it (quadratic otherwise)."""
    text = "a" + " " * 200_000
    assert tokenize(text) == [Token("a", 0, 1)]
