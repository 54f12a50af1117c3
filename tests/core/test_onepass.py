"""One-pass annotation engine: parity with the reference path.

``pipeline.analyze`` is the one-step-at-a-time reference;
``pipeline.analyze_batch`` runs the fused engine.  Beyond the mention
equivalence covered in ``test_core``, these tests pin warm-kernel
parity and the serve layer's digest parity against the reference
chain.
"""

import pytest

from repro.annotations import Document
from repro.core.flows import build_fig2_flow
from repro.core.pipeline import TextAnalyticsPipeline
from repro.corpora.vocabulary import BiomedicalVocabulary
from repro.crawler.consolidated import EntityAwareClassifier
from repro.dataflow.optimizer import fuse_annotation_stage
from repro.ner.automaton import WordTrie
from repro.ner.onepass import OnePassAnnotator
from repro.ner.taggers import build_dictionary_taggers
from repro.serve.session import ExtractionSession


@pytest.fixture(scope="module")
def texts(relevant_generator):
    return [relevant_generator.document(i).text for i in range(4)]


class TestCacheParity:
    def test_warm_cache_results_identical_to_cold(self, pipeline,
                                                  texts):
        """A second batch over the same texts runs on warm kernels
        (the CRF word-type tables filled by the first) and must
        annotate identically."""
        cold = [Document(f"c{i}", t) for i, t in enumerate(texts)]
        warm = [Document(f"w{i}", t) for i, t in enumerate(texts)]
        pipeline.analyze_batch(cold, with_pos=True)
        pipeline.analyze_batch(warm, with_pos=True)
        for cold_doc, warm_doc in zip(cold, warm):
            assert warm_doc.entities == cold_doc.entities
            for cold_sent, warm_sent in zip(cold_doc.sentences,
                                            warm_doc.sentences):
                assert warm_sent.tokens == cold_sent.tokens


class TestServeDigestParity:
    def test_extract_batch_matches_reference_chain(self, pipeline,
                                                   texts):
        session = ExtractionSession(pipeline)
        outputs = session.run_batch([("extract", text)
                                     for text in texts])
        for text, output in zip(texts, outputs):
            reference = pipeline.analyze(Document("serve", text))
            expected = [{"text": m.text, "start": m.start,
                         "end": m.end, "type": m.entity_type,
                         "method": m.method}
                        for m in reference.entities]
            assert output["entities"] == expected
            assert output["sentences"] == len(reference.sentences)
        assert any(output["entities"] for output in outputs)

    def test_batched_equals_singletons(self, pipeline, texts):
        session = ExtractionSession(pipeline)
        batched = session.extract_batch(texts)
        singles = [session.extract_batch([text])[0] for text in texts]
        assert batched == singles


class TestEngineConstruction:
    def test_engines_share_one_merged_automaton(self, pipeline):
        plain = pipeline.one_pass_annotator()
        with_pos = pipeline.one_pass_annotator(with_pos=True)
        assert plain.merged is with_pos.merged
        assert with_pos.pos_tagger is pipeline.pos_tagger
        assert plain.pos_tagger is None

    def test_every_holder_has_the_one_automaton(self, pipeline,
                                                monkeypatch):
        """The three taggers, the one-pass engines, the fused flow
        operator, the serve session and the entity-aware classifier
        all hold the pipeline's single automaton."""
        taggers = pipeline.dictionary_taggers.values()
        shared = pipeline.dictionary_taggers["gene"].shared
        assert all(tagger.shared is shared for tagger in taggers)
        assert pipeline.one_pass_annotator().merged is shared
        assert pipeline.one_pass_annotator(with_pos=True).merged is shared
        plan = build_fig2_flow(pipeline)
        (node,) = fuse_annotation_stage(plan)
        assert node.operator.fused_annotator.merged is shared
        held = []
        annotate_batch = OnePassAnnotator.annotate_batch

        def recording(engine, documents):
            held.append(engine.merged)
            return annotate_batch(engine, documents)
        monkeypatch.setattr(OnePassAnnotator, "annotate_batch", recording)
        ExtractionSession(pipeline).extract_batch(["BRCA1 binds TP53."])
        assert held and all(merged is shared for merged in held)
        assert EntityAwareClassifier(pipeline.classifier,
                                     pipeline.dictionary_taggers
                                     ).dictionary is shared

    def test_pipeline_build_compiles_one_automaton(self, monkeypatch,
                                                   tmp_path):
        """One ``WordTrie.build`` per pipeline, none per engine, flow
        or session; a warm cache builds none and the cache directory
        holds one entry."""
        builds = []
        build = WordTrie.build

        def counting(patterns, payloads=None):
            builds.append(len(patterns))
            return build(patterns, payloads)
        monkeypatch.setattr(WordTrie, "build", staticmethod(counting))
        vocabulary = BiomedicalVocabulary(seed=7, n_genes=40,
                                          n_diseases=20, n_drugs=20)
        options = dict(vocabulary=vocabulary, n_training_docs=6,
                       n_classifier_docs=20, crf_iterations=2)
        built = TextAnalyticsPipeline.build(dictionary_cache=tmp_path,
                                            **options)
        assert len(builds) == 1
        assert len(list(tmp_path.glob("aho-*.bin"))) == 1
        for methods in (("dictionary", "ml"), ("dictionary",), ("ml",)):
            for with_pos in (False, True):
                built.analyze_batch([Document("d", "BRCA1 and TP53.")],
                                    methods=methods, with_pos=with_pos)
        fuse_annotation_stage(build_fig2_flow(built))
        ExtractionSession(built).run_batch([("extract", "BRCA1."),
                                            ("annotate", "TP53.")])
        EntityAwareClassifier(built.classifier,
                              built.dictionary_taggers).evidence("BRCA1")
        assert len(builds) == 1
        warm = TextAnalyticsPipeline.build(dictionary_cache=tmp_path,
                                           **options)
        assert len(builds) == 1
        assert warm.dictionary_taggers["gene"].shared.cache_hit

    def test_mixed_automata_rejected(self, vocabulary):
        first = build_dictionary_taggers(vocabulary)
        second = build_dictionary_taggers(vocabulary)
        with pytest.raises(ValueError):
            OnePassAnnotator([first["gene"], second["drug"]])
        with pytest.raises(ValueError):
            EntityAwareClassifier(None, {"gene": first["gene"],
                                         "drug": second["drug"]})
        assert OnePassAnnotator([first["gene"], first["drug"]]).merged \
            is first["gene"].shared

    def test_dictionary_only_engine(self, pipeline, texts):
        engine = pipeline.one_pass_annotator(methods=("dictionary",))
        document = Document("d", texts[0])
        engine.annotate(document)
        reference = pipeline.analyze(Document("d", texts[0]),
                                     methods=("dictionary",))
        assert document.entities == reference.entities

    def test_ml_only_engine_has_no_merged_dictionary(self, pipeline):
        engine = pipeline.one_pass_annotator(methods=("ml",))
        assert engine.merged is None
