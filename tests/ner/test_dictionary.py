"""Tests for fuzzy dictionary tagging."""

import pytest

from repro.annotations import Document
from repro.corpora.vocabulary import TermEntry
from repro.ner.dictionary import (
    DictionaryTagger, EntityDictionary, MultiTypeDictionary, expand_term,
    surface_table,
)


def _tagger(*entries, entity_type="drug", fuzzy=True):
    """A tagger over an automaton compiled from one type's entries."""
    dictionary = EntityDictionary(entity_type,
                                  surface_table(entries, fuzzy=fuzzy))
    return DictionaryTagger(MultiTypeDictionary([dictionary]), entity_type)


ASPIRIN = TermEntry("Aspirin", ("Aspirin hydrochloride",), "DRUG:000001")
GAD = TermEntry("GAD-67", (), "GENE:000002")


class TestExpandTerm:
    def test_case_folding(self):
        assert "aspirin" in expand_term("Aspirin")

    def test_plural(self):
        assert "aspirins" in expand_term("Aspirin")

    def test_hyphen_space_alternation(self):
        variants = expand_term("GAD-67")
        assert "gad 67" in variants
        assert "gad67" in variants

    def test_space_to_hyphen(self):
        assert "chronic-pain" in expand_term("chronic pain")


class TestMatching:
    def test_exact_match(self):
        document = Document("d", "We prescribed Aspirin daily.")
        mentions = _tagger(ASPIRIN).annotate(document)
        assert len(mentions) == 1
        assert mentions[0].text == "Aspirin"
        assert mentions[0].term_id == "DRUG:000001"
        assert mentions[0].method == "dictionary"

    def test_case_variant_match(self):
        document = Document("d", "take ASPIRIN now")
        assert _tagger(ASPIRIN).annotate(document)

    def test_plural_variant_match(self):
        document = Document("d", "two aspirins later")
        assert _tagger(ASPIRIN).annotate(document)

    def test_hyphen_variant_match(self):
        document = Document("d", "levels of GAD 67 rose")
        assert _tagger(GAD, entity_type="gene").annotate(document)

    def test_word_boundary_respected(self):
        document = Document("d", "superaspirinx is not a drug")
        assert not _tagger(ASPIRIN).annotate(document)

    def test_longest_match_wins(self):
        entries = [TermEntry("chronic pain", (), "DIS:1"),
                   TermEntry("pain", (), "DIS:2")]
        document = Document("d", "suffering from chronic pain daily")
        mentions = _tagger(*entries, entity_type="disease").annotate(
            document)
        assert len(mentions) == 1
        assert mentions[0].text == "chronic pain"

    def test_non_fuzzy_misses_variants(self):
        document = Document("d", "two aspirins later")
        assert not _tagger(ASPIRIN, fuzzy=False).annotate(document)

    def test_mentions_appended_to_document(self):
        document = Document("d", "Aspirin and Aspirin.")
        _tagger(ASPIRIN).annotate(document)
        assert len(document.entities) == 2

    def test_annotate_offsets_exact(self):
        text = "He took Aspirin (hydrochloride form)."
        document = Document("d", text)
        for mention in _tagger(ASPIRIN).annotate(document):
            assert text[mention.start:mention.end] == mention.text

    def test_dotted_capital_i_keeps_offsets(self):
        """U+0130 (İ) lower-cases to two characters; a mention after
        it must still cover the matched word, not a shifted slice."""
        text = "İstanbul patients took aspirin daily."
        mentions = _tagger(ASPIRIN).annotate(Document("d", text))
        assert [(m.text, m.start, m.end) for m in mentions] == [
            ("aspirin", 23, 30)]

    def test_dotted_capital_i_folds_to_i(self):
        entry = TermEntry("Imatinib", (), "DRUG:000003")
        mentions = _tagger(entry).annotate(
            Document("d", "IMATİNİB and İmatinib."))
        assert [(m.text, m.start) for m in mentions] == [
            ("IMATİNİB", 0), ("İmatinib", 13)]


class TestOperationalProperties:
    def test_build_time_recorded(self):
        dictionary = _tagger(ASPIRIN, GAD).dictionary
        assert dictionary.build_seconds > 0

    def test_startup_seconds_from_tagger(self):
        tagger = _tagger(ASPIRIN)
        assert tagger.startup_seconds() == tagger.dictionary.build_seconds

    def test_memory_grows_with_entries(self, vocabulary):
        small = _tagger(*vocabulary.genes[:10], entity_type="gene")
        large = _tagger(*vocabulary.genes, entity_type="gene")
        assert large.shared.memory_share("gene") > \
            small.shared.memory_share("gene")

    def test_pattern_count_exceeds_entry_count(self, vocabulary):
        """Fuzzy expansion inflates the automaton — the memory cost the
        paper attributes to regex-to-NFA conversion."""
        dictionary = EntityDictionary("gene",
                                      surface_table(vocabulary.genes[:50]))
        assert dictionary.n_patterns > 50

    def test_recall_on_gold(self, vocabulary, relevant_generator):
        tagger = _tagger(*vocabulary.genes, entity_type="gene")
        found = total = 0
        for i in range(10):
            gold = relevant_generator.document(i)
            document = gold.document.copy_shallow()
            mentions = {(m.start, m.end)
                        for m in tagger.annotate(document)}
            for entity in gold.entities:
                if entity.mention.entity_type != "gene":
                    continue
                if entity.in_dictionary:
                    total += 1
                    span = (entity.mention.start, entity.mention.end)
                    if span in mentions:
                        found += 1
        assert total > 0
        assert found / total > 0.8
