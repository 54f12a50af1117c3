"""Tests for n-gram language identification."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpora.foreign import generate_foreign_text
from repro.nlp.language import LanguageIdentifier, default_identifier
from tests.nlp.language_oracle import detect_reference


@pytest.fixture(scope="module")
def identifier():
    return default_identifier(seed=3)


class TestDefaultIdentifier:
    def test_detects_english(self, identifier, medline_generator):
        assert identifier.detect(medline_generator.document(0).text) == "en"

    def test_detects_german(self, identifier):
        text = generate_foreign_text("de", 800, random.Random(2))
        assert identifier.detect(text) == "de"

    def test_detects_french(self, identifier):
        text = generate_foreign_text("fr", 800, random.Random(2))
        assert identifier.detect(text) == "fr"

    def test_detects_spanish(self, identifier):
        text = generate_foreign_text("es", 800, random.Random(2))
        assert identifier.detect(text) == "es"

    def test_is_english_helper(self, identifier, medline_generator):
        assert identifier.is_english(medline_generator.document(1).text)
        text = generate_foreign_text("de", 800, random.Random(3))
        assert not identifier.is_english(text)

    def test_accuracy_over_many_samples(self, identifier,
                                        relevant_generator):
        rng = random.Random(5)
        correct = total = 0
        for i in range(10):
            if identifier.detect(relevant_generator.document(i).text) == "en":
                correct += 1
            total += 1
        for language in ("de", "fr", "es"):
            for _ in range(5):
                text = generate_foreign_text(language, 600, rng)
                if identifier.detect(text) == language:
                    correct += 1
                total += 1
        assert correct / total > 0.9


class TestIdentifierMechanics:
    def test_untrained_returns_empty(self):
        assert LanguageIdentifier().detect("hello world") == ""

    def test_empty_text_returns_empty(self, identifier):
        assert identifier.detect("   ") == ""

    def test_languages_listed(self, identifier):
        assert set(identifier.languages) >= {"en", "de", "fr", "es"}

    def test_custom_training(self):
        ident = LanguageIdentifier(profile_size=50)
        ident.train("aa", "aaa aab aba baa " * 50)
        ident.train("bb", "bbb bba bab abb " * 50)
        assert ident.detect("aaa aab aaa") == "aa"
        assert ident.detect("bbb bba bbb") == "bb"


# -- the array kernel must decide exactly like the reference --------------------

#: ASCII, Latin-1, CJK, astral planes, and every kind of whitespace
#: ``str.split`` collapses (ASCII controls, NEL, NBSP, Ogham, en/em
#: spaces, line/paragraph separators, ideographic space).
_ALPHABET = st.one_of(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    st.characters(min_codepoint=0xA1, max_codepoint=0xFF),
    st.characters(min_codepoint=0x4E00, max_codepoint=0x4E40),
    st.characters(min_codepoint=0x1F600, max_codepoint=0x1F640),
    st.sampled_from("\t\n\x0b\x0c\r\x1c\x1f \x85\xa0\u1680\u2002\u2003"
                    "\u2028\u2029\u3000\U0010ffff\U00010000"),
)


class TestDetectEqualsReference:
    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet=_ALPHABET, max_size=400))
    def test_any_text(self, identifier, text):
        assert identifier.detect(text) == detect_reference(identifier, text)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(
        ["the", "and", "der", "und", "les", "des", "que", "los", "of",
         "gène", "straße", "año", "基因", "😀", " ", "\u3000", "\n"]),
        max_size=120))
    def test_word_soup_near_the_decision_boundary(self, identifier, words):
        text = " ".join(words)
        assert identifier.detect(text) == detect_reference(identifier, text)

    @pytest.mark.parametrize("text", [
        "", " ", "\n\t\u3000 ", "a", "ab", "abc", " a ", "İ", "ß\u0130",
        "\ud800 lone \udfff surrogates",
        "the the the and and of",
    ])
    def test_fixed_cases(self, identifier, text):
        assert identifier.detect(text) == detect_reference(identifier, text)

    def test_profile_cut_inside_a_run_of_equal_counts(self):
        """20 distinct letters, each trigram exactly once apart from
        the padding: a 12-gram profile must keep the *first-seen* ones
        of the tied grams, in order."""
        ident = LanguageIdentifier(profile_size=12)
        ident.train("head", "abcdefghijkl")
        ident.train("tail", "lkjihgfedcba tsrqponm")
        for text in ("abcdefghijklmnopqrst", "tsrqponmlkjihgfedcba",
                     "abc abc xyz xyz abd abd klm kln"):
            assert ident.detect(text) == detect_reference(ident, text)
        assert ident.detect("abcdefghijklmnopqrst") == "head"

    def test_ties_rank_by_first_not_last_occurrence(self):
        """Six grams tie at two occurrences; the a-grams are seen first
        but the b-grams are *completed* first."""
        ident = LanguageIdentifier(profile_size=3)
        ident.train("b-first", "bbb")
        ident.train("a-first", "aaa")
        assert (ident.detect("aaa bbb bbb aaa")
                == detect_reference(ident, "aaa bbb bbb aaa") == "a-first")

    _WORDS = st.lists(st.sampled_from(["aaa", "bbb", "aba", "bab", "ab",
                                       "ba", "a", "b"]), max_size=12)

    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 8), st.lists(_WORDS, min_size=1, max_size=4),
           _WORDS)
    def test_tiny_profiles_make_every_rank_decisive(self, size, training,
                                                    words):
        ident = LanguageIdentifier(profile_size=size)
        for index, sample in enumerate(training):
            ident.train(f"lang{index}", " ".join(sample))
        text = " ".join(words)
        assert ident.detect(text) == detect_reference(ident, text)

    def test_train_after_detect_changes_the_answer(self):
        ident = LanguageIdentifier(profile_size=50)
        ident.train("aa", "aaa aab aba baa " * 50)
        assert ident.detect("bbb bba bbb") == "aa"   # builds the table
        ident.train("bb", "bbb bba bab abb " * 50)
        assert ident.detect("bbb bba bbb") == "bb"
        ident.train("aa", "bbb bba bab abb bbb " * 50)  # retrain in place
        assert (ident.detect("bbb bba bbb")
                == detect_reference(ident, "bbb bba bbb") == "aa")

    def test_untrained_and_empty_profiles(self):
        ident = LanguageIdentifier()
        assert ident.detect("hello") == detect_reference(ident, "hello") == ""
        ident.train("void", "")       # a profile with no grams at all
        assert ident.detect("hello") == detect_reference(ident, "hello")

    def test_more_distinct_characters_than_64_bits_can_pack(self, identifier):
        """~75 k distinct code points: the packed gram key outgrows
        uint64 and the kernel carries on in Python integers."""
        exotic = "".join(map(chr, [*range(0x4E00, 0xA000),
                                   *range(0xAC00, 0xD7A4),
                                   *range(0x20000, 0x2A6E0)]))
        text = "the patients and the treatment of the disease " * 40 + exotic
        assert identifier.detect(text) == detect_reference(identifier, text)
