"""The volume cut behind every whole-document annotation caller.

:func:`repro.ner.onepass.volume_chunks` decides how many documents
share one ``annotate_batch`` call.  Hypothesis drives arbitrary text
lengths through it and checks what the callers depend on — the chunks
are contiguous, order-preserving and cover every document exactly
once; no chunk exceeds the budget unless it is a single document; the
cut is greedy; and cutting a stream as it arrives gives the boundaries
an offline partition of the lengths gives.  A recording engine then
pins the same bound where it matters: on what ``annotate_batch``
actually receives from store ingest and from the fused flow operator.
"""

from __future__ import annotations

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.annotations import Document
from repro.dataflow.packages import make_operator
from repro.ner.onepass import (
    CHUNK_CHARS, CHUNK_DOCS, OnePassAnnotator, volume_chunks,
)
from repro.ner.taggers import ENTITY_TYPES
from repro.store import EntityStore, ingest_documents

lengths_strategy = st.lists(
    st.one_of(st.integers(min_value=0, max_value=40),
              st.integers(min_value=0, max_value=2 * CHUNK_CHARS),
              st.sampled_from([CHUNK_CHARS - 1, CHUNK_CHARS,
                               CHUNK_CHARS + 1, CHUNK_CHARS // 2])),
    max_size=3 * CHUNK_DOCS)


def _documents(lengths):
    return [Document(doc_id=str(index), text="x" * length)
            for index, length in enumerate(lengths)]


def _offline_bounds(lengths):
    """The cut as a partition of a length list: half-open ranges."""
    bounds, start, chars = [], 0, 0
    for index, length in enumerate(lengths):
        if index > start and chars + length > CHUNK_CHARS:
            bounds.append((start, index))
            start, chars = index, 0
        chars += length
        if chars >= CHUNK_CHARS or index + 1 - start >= CHUNK_DOCS:
            bounds.append((start, index + 1))
            start, chars = index + 1, 0
    if start < len(lengths):
        bounds.append((start, len(lengths)))
    return bounds


class TestVolumeCut:
    @given(lengths=lengths_strategy)
    @example(lengths=[CHUNK_CHARS])
    @example(lengths=[20_000, CHUNK_CHARS - 20_000, 1])
    @example(lengths=[1, CHUNK_CHARS + 1, 1])
    @example(lengths=[0] * (2 * CHUNK_DOCS + 1))
    @settings(max_examples=200, deadline=None)
    def test_contiguous_order_preserving_exact_cover(self, lengths):
        documents = _documents(lengths)
        chunks = list(volume_chunks(documents))
        assert all(chunks)
        flat = [document for chunk in chunks for document in chunk]
        assert len(flat) == len(documents)
        assert all(a is b for a, b in zip(flat, documents))

    @given(lengths=lengths_strategy)
    @example(lengths=[CHUNK_CHARS, CHUNK_CHARS + 1, CHUNK_CHARS - 1, 1])
    @settings(max_examples=200, deadline=None)
    def test_only_a_single_document_may_exceed_the_budget(self, lengths):
        for chunk in volume_chunks(_documents(lengths)):
            assert len(chunk) <= CHUNK_DOCS
            chars = sum(len(document.text) for document in chunk)
            assert chars <= CHUNK_CHARS or len(chunk) == 1

    @given(lengths=lengths_strategy)
    @settings(max_examples=200, deadline=None)
    def test_cut_is_greedy(self, lengths):
        """A chunk closes only when full: the next document would not
        have fit, or a cap was reached."""
        chunks = list(volume_chunks(_documents(lengths)))
        for chunk, following in zip(chunks, chunks[1:]):
            chars = sum(len(document.text) for document in chunk)
            assert (chars + len(following[0].text) > CHUNK_CHARS
                    or chars >= CHUNK_CHARS or len(chunk) == CHUNK_DOCS)

    @given(lengths=lengths_strategy)
    @example(lengths=[20_000, CHUNK_CHARS - 20_000, 0, 5])
    @settings(max_examples=200, deadline=None)
    def test_streaming_matches_offline(self, lengths):
        """Chunks come out of a generator input as the documents
        arrive — a closed chunk never waits on more than the one
        document that closed it — and bound the lengths exactly as
        the offline partition does."""
        pulled = 0

        def arriving():
            nonlocal pulled
            for document in _documents(lengths):
                pulled += 1
                yield document

        bounds, start = [], 0
        for chunk in volume_chunks(arriving()):
            bounds.append((start, start + len(chunk)))
            start += len(chunk)
            assert pulled <= start + 1
        assert bounds == _offline_bounds(lengths)


class RecordingAnnotator(OnePassAnnotator):
    """An engine that annotates nothing and records what each
    ``annotate_batch`` call was handed — and how many documents its
    feeder (which bumps ``pulled``) had given up by then."""

    def __init__(self) -> None:
        super().__init__([])
        self.batches: list[list[Document]] = []
        self.pulled = 0
        self.pulled_at_call: list[int] = []

    def annotate_batch(self, documents):
        self.batches.append(list(documents))
        self.pulled_at_call.append(self.pulled)
        for document in documents:
            document.sentences = []
        return documents


def _assert_within_budget(batches, n_documents) -> None:
    assert sum(len(batch) for batch in batches) == n_documents
    assert len(batches) > 1
    for batch in batches:
        chars = sum(len(document.text) for document in batch)
        assert chars <= CHUNK_CHARS or len(batch) == 1
        assert len(batch) <= CHUNK_DOCS


#: Pages of every size class: many small, a run landing exactly on
#: the budget, one over it, and a tail of empties past the count cap.
PAGE_LENGTHS = ([3_000] * 25 + [20_000, CHUNK_CHARS - 20_000]
                + [CHUNK_CHARS + 5_000] + [7_000] * 9
                + [0] * (CHUNK_DOCS + 3))


class TestEngineNeverSeesMoreThanTheBudget:
    def test_store_ingest(self, pipeline, vocabulary):
        engine = RecordingAnnotator()
        stubbed = dataclasses.replace(pipeline)

        def one_pass_annotator(methods, entity_types, with_pos):
            assert (tuple(methods), tuple(entity_types), with_pos) == (
                ("dictionary", "ml"), ENTITY_TYPES, False)
            return engine
        stubbed.one_pass_annotator = one_pass_annotator
        pages = _documents(PAGE_LENGTHS)

        def harvest():
            for page in pages:
                engine.pulled += 1
                yield page

        store = EntityStore(vocabulary=vocabulary)
        assert ingest_documents(store, harvest(),
                                pipeline=stubbed) == len(pages)
        _assert_within_budget(engine.batches, len(pages))
        # Lazy: when a batch reaches the engine, nothing past the one
        # page that closed it has been pulled from the harvest.
        annotated = 0
        for batch, pulled in zip(engine.batches, engine.pulled_at_call):
            annotated += len(batch)
            assert pulled <= annotated + 1
        # Copies went through the engine; the originals are untouched.
        assert all(page.sentences is None for page in pages)
        assert [copy.doc_id for batch in engine.batches
                for copy in batch] == [page.doc_id for page in pages]

    def test_fused_flow_operator(self):
        engine = RecordingAnnotator()
        operator = make_operator("annotate_entities_fused",
                                 annotator=engine)
        pages = _documents(PAGE_LENGTHS)
        assert list(operator.process(iter(pages))) == pages
        _assert_within_budget(engine.batches, len(pages))
