"""Tests for entity normalization and cross-scheme merging."""

import tracemalloc

import pytest

from normalize_oracle import build_index, resolve_reference
from repro.annotations import Document, EntityMention
from repro.corpora.vocabulary import BiomedicalVocabulary, TermEntry
from repro.ner.dictionary import expand_term, fold_case, vocabulary_surfaces
from repro.ner.normalize import EntityNormalizer, merge_by_term
from repro.store import EntityStore

TYPES = ("gene", "drug", "disease")


@pytest.fixture(scope="module")
def normalizer(vocabulary):
    return EntityNormalizer(vocabulary)


def _hand_built() -> BiomedicalVocabulary:
    """Surfaces shared across types ("malexia") and across two entries
    of one type ("ABC-1" / "ABC 1"), short and stopword surfaces the
    trie drops ("p5", "IT", "was"), a mixed hyphen/space name that
    only the hyphen-collapsed probe reaches, and U+0130 (İ).  The
    entries are set before any table is built."""
    vocabulary = BiomedicalVocabulary(seed=1, n_genes=1, n_diseases=1,
                                      n_drugs=1)
    vocabulary.genes = [
        TermEntry("ABC-1", ("p5",), "GENE:1"),
        TermEntry("ABC 1", ("IT",), "GENE:2"),
        TermEntry("Malexia", (), "GENE:3"),
        TermEntry("NF-kB pathway", ("İkaros",), "GENE:4"),
    ]
    vocabulary.diseases = [
        TermEntry("malexia", ("chronic pain-relief",), "DIS:1"),
        TermEntry("Malexias", (), "DIS:2"),
    ]
    vocabulary.drugs = [TermEntry("zintamab", ("was", "ZA"), "DRUG:1")]
    return vocabulary


def _probes(vocabulary: BiomedicalVocabulary):
    """(type, surface) for every variant of every name of every type,
    its first space read as a hyphen, and each name in upper case and
    under every other type."""
    for entity_type in TYPES:
        for entry in vocabulary.entries(entity_type):
            for name in entry.all_names():
                for other in TYPES:
                    yield other, name
                yield entity_type, name.upper()
                for variant in expand_term(name):
                    yield entity_type, variant
                    yield entity_type, variant.replace(" ", "-", 1)


@pytest.fixture(scope="module", params=["fixture", "default", "scale30",
                                        "hand-built"])
def any_vocabulary(request, vocabulary):
    return {"fixture": lambda: vocabulary,
            "default": BiomedicalVocabulary,
            "scale30": lambda: BiomedicalVocabulary(scale=30),
            "hand-built": _hand_built}[request.param]()


class TestOracleEquivalence:
    """``resolve`` returns the very entry the per-store index did."""

    def test_every_variant_resolves_as_the_oracle(self, any_vocabulary):
        normalizer = EntityNormalizer(any_vocabulary)
        index = build_index(any_vocabulary)
        assert sum(map(len, (vocabulary_surfaces(any_vocabulary, etype)
                             for etype in TYPES))) == len(index)
        for entity_type, surface in _probes(any_vocabulary):
            assert normalizer.resolve(entity_type, surface) is \
                resolve_reference(index, entity_type, surface), surface

    def test_hand_built_reaches_every_rule(self):
        vocabulary = _hand_built()
        normalizer, index = EntityNormalizer(vocabulary), build_index(
            vocabulary)
        genes, diseases = vocabulary.genes, vocabulary.diseases
        assert normalizer.resolve("gene", "abc 1") is genes[0]
        assert normalizer.resolve("gene", "ABC-1s") is genes[0]
        assert normalizer.resolve("gene", "malexia") is genes[2]
        assert normalizer.resolve("disease", "malexias") is diseases[0]
        assert normalizer.resolve("gene", "P5") is genes[0]
        assert normalizer.resolve("gene", "it") is genes[1]
        assert normalizer.resolve("drug", "Was") is vocabulary.drugs[0]
        assert normalizer.resolve("gene", "İKAROS") is genes[3]
        # Not a table surface; its hyphen read as a space is.
        assert ("disease", "chronic-pain relief") not in index
        assert normalizer.resolve("disease", "Chronic-pain relief") is \
            diseases[0]
        assert normalizer.resolve("chemical", "malexia") is None

    def test_resolves_the_surfaces_the_trie_drops(self, pipeline):
        """Short and stopword surfaces are no trie patterns, yet the
        normalizer still resolves them."""
        normalizer = EntityNormalizer(pipeline.vocabulary)
        index = build_index(pipeline.vocabulary)
        dropped = [(etype, surface)
                   for etype, tagger in pipeline.dictionary_taggers.items()
                   for surface in tagger.dictionary.surfaces.keys()
                   - set(tagger.dictionary.patterns)]
        assert len(dropped) >= 10
        for entity_type, surface in dropped:
            assert normalizer.resolve(entity_type, surface) is \
                index[entity_type, surface]


class TestOneTablePerVocabulary:
    def test_a_store_after_the_first_costs_almost_nothing(self,
                                                          vocabulary):
        EntityStore(vocabulary=vocabulary)
        tracemalloc.start()
        try:
            EntityStore(vocabulary=vocabulary)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_stores_share_the_vocabulary_tables(self, vocabulary):
        first = EntityStore(vocabulary=vocabulary)._normalizer
        second = EntityStore(vocabulary=vocabulary)._normalizer
        for entity_type in TYPES:
            assert first._tables[entity_type] is \
                second._tables[entity_type] is \
                vocabulary_surfaces(vocabulary, entity_type)

    def test_the_pipeline_trie_reads_the_same_tables(self, pipeline):
        normalizer = EntityNormalizer(pipeline.vocabulary)
        for entity_type, tagger in pipeline.dictionary_taggers.items():
            assert tagger.dictionary.surfaces is \
                normalizer._tables[entity_type]

    def test_another_vocabulary_object_builds_its_own(self, vocabulary):
        twin = BiomedicalVocabulary(seed=7, n_genes=150, n_diseases=80,
                                    n_drugs=80)
        assert twin == vocabulary
        mine = EntityNormalizer(vocabulary)._tables["gene"]
        theirs = EntityNormalizer(twin)._tables["gene"]
        assert theirs is not mine
        assert list(theirs.items()) == list(mine.items())


class TestResolve:
    def test_canonical_resolves(self, normalizer, vocabulary):
        entry = vocabulary.drugs[0]
        assert normalizer.resolve("drug", entry.canonical) is entry

    def test_case_insensitive(self, normalizer, vocabulary):
        entry = vocabulary.drugs[0]
        assert normalizer.resolve("drug",
                                  entry.canonical.upper()) is entry

    def test_synonym_resolves_to_entry(self, normalizer, vocabulary):
        entry = next(e for e in vocabulary.genes if e.synonyms)
        assert normalizer.resolve("gene", entry.synonyms[0]) is not None

    def test_plural_variant(self, normalizer, vocabulary):
        name = vocabulary.drugs[1].canonical
        assert normalizer.resolve("drug", name + "s") is not None

    def test_wrong_type_does_not_resolve(self, normalizer, vocabulary):
        assert normalizer.resolve("disease",
                                  vocabulary.drugs[0].canonical) is None

    def test_unknown_surface(self, normalizer):
        assert normalizer.resolve("gene", "zzznotagene") is None


class TestNormalizeDocument:
    def test_links_ml_mentions(self, normalizer, vocabulary):
        name = vocabulary.diseases[0].canonical
        text = f"Patients with {name} recovered."
        document = Document("d", text)
        start = text.index(name)
        document.entities = [EntityMention(name, start,
                                           start + len(name),
                                           "disease", method="ml")]
        stats = normalizer.normalize(document)
        assert stats.linked == 1
        assert document.entities[0].term_id.startswith("DIS:")

    def test_novel_names_stay_unlinked(self, normalizer):
        document = Document("d", "zzznovelosis spread.")
        document.entities = [EntityMention("zzznovelosis", 0, 12,
                                           "disease", method="ml")]
        stats = normalizer.normalize(document)
        assert stats.unlinked == 1
        assert document.entities[0].term_id == ""

    def test_existing_ids_untouched(self, normalizer):
        document = Document("d", "x")
        document.entities = [EntityMention("x", 0, 1, "gene",
                                           method="dictionary",
                                           term_id="GENE:000042")]
        stats = normalizer.normalize(document)
        assert stats.already_linked == 1
        assert document.entities[0].term_id == "GENE:000042"

    def test_link_rate_on_pipeline_output(self, normalizer, pipeline,
                                          relevant_generator):
        """Most ML mentions on relevant text resolve to the dictionary;
        the novel remainder is the paper's new-knowledge signal."""
        stats_total = 0
        linked_total = 0
        for i in range(100, 108):
            document = relevant_generator.document(i) \
                .document.copy_shallow()
            for tagger in pipeline.ml_taggers.values():
                tagger.annotate(document)
            stats = normalizer.normalize(document)
            stats_total += stats.linked + stats.unlinked
            linked_total += stats.linked
        assert stats_total > 0
        assert 0.2 < linked_total / stats_total < 1.0


class TestMergeByTerm:
    def test_same_term_same_span_collapses(self):
        document = Document("d", "Aspirin")
        document.entities = [
            EntityMention("Aspirin", 0, 7, "drug", method="dictionary",
                          term_id="DRUG:1"),
            EntityMention("Aspirin", 0, 7, "drug", method="ml",
                          term_id="DRUG:1"),
        ]
        merged = merge_by_term(document)
        assert len(merged) == 1
        assert merged[0].method == "dictionary"

    def test_unlinked_mentions_kept_separately(self):
        document = Document("d", "Aspirin novelol")
        document.entities = [
            EntityMention("Aspirin", 0, 7, "drug", method="dictionary",
                          term_id="DRUG:1"),
            EntityMention("novelol", 8, 15, "drug", method="ml"),
        ]
        assert len(merge_by_term(document)) == 2

    def test_different_spans_not_merged(self):
        document = Document("d", "Aspirin and Aspirin")
        document.entities = [
            EntityMention("Aspirin", 0, 7, "drug", term_id="DRUG:1",
                          method="dictionary"),
            EntityMention("Aspirin", 12, 19, "drug", term_id="DRUG:1",
                          method="ml"),
        ]
        assert len(merge_by_term(document)) == 2
