"""One-scan web-treatment substitution (fuse_web_stage).

The pass replaces ``[detect_markup_errors]? repair_markup (extract_title
| extract_links | annotate_host)* remove_boilerplate`` with one
``treat_web_documents_fused`` operator over ``scan_page``, the page scan
the crawler's document stage runs.  Structural tests pin where it fires
and where it must decline (anything downstream that could observe the
unrepaired ``raw``); equivalence tests pin that every sink is
byte-identical to the elementary chain's in every execution mode, and
that the flow and the crawler read the same title, outlinks and net
text off every page as the tree oracle does.
"""

import pytest

from repro.annotations import Document
from repro.core.flows import (
    EXECUTION_MODES, FlowSession, build_entity_flow, build_fig2_flow,
    build_linguistic_flow, run_flow,
)
from repro.crawler.parallel import ProcessingContext, process_document
from repro.dataflow.executor import Executor
from repro.dataflow.operators import FlatMapOperator
from repro.dataflow.optimizer import (
    SofaOptimizer, fuse_annotation_stage, fuse_physical_stages,
    fuse_web_stage,
)
from repro.dataflow.packages import make_operator
from repro.dataflow.plan import LogicalPlan
from repro.html.boilerplate import BoilerplateDetector
from repro.web.faults import FaultConfig
from repro.web.htmlgen import PageRenderer
from repro.web.server import SimulatedWeb
from repro.web.webgraph import WebGraph, WebGraphConfig

from tests.html.boilerplate_oracle import (
    extract_from_tree, extract_links_from_tree, extract_title_from_tree,
    repair_document,
)
from tests.html.test_parse_once import HAZARD, TRICKY

#: The longest fusable run, in Fig. 2's order.
WEB_RUN = ("detect_markup_errors", "repair_markup", "extract_title",
           "extract_links", "annotate_host", "remove_boilerplate")
FUSED = "treat_web_documents_fused"


def _names(plan):
    return [node.operator.name for node in plan.nodes]


def _operator(name, detector):
    if name == "remove_boilerplate":
        return make_operator(name, detector=detector)
    return make_operator(name)


def _fields(document):
    """Everything the web run may write, as one record (meta as an item
    list, so key order is compared too)."""
    yield {"doc_id": document.doc_id, "text": document.text,
           "meta": list(document.meta.items())}


def web_plan(names=WEB_RUN, after=(), detector=None):
    """``names`` then ``after`` as one chain, ending in a record sink."""
    detector = detector or BoilerplateDetector()
    plan = LogicalPlan()
    tail = plan.chain([_operator(name, detector)
                       for name in (*names, *after)])
    plan.mark_sink("fields",
                   plan.add(FlatMapOperator("web_fields", _fields), tail))
    return plan


# -- inputs -------------------------------------------------------------------

def _rendered(texts, seed=3):
    renderer = PageRenderer(seed=seed)
    return [renderer.render(f"http://host{i}.example.org/p{i}.html",
                            f"Title {i}", text,
                            [f"http://host{i}.example.org/p{i + 1}.html",
                             "/relative.html"], page_index=i)
            for i, text in enumerate(texts)]


@pytest.fixture(scope="module")
def texts(relevant_generator):
    return [relevant_generator.document(i).text for i in range(4)]


@pytest.fixture(scope="module")
def edge_documents(texts):
    """Every edge case the fused operator must reproduce."""
    pages = [
        HAZARD, *TRICKY,
        "plain words without any markup " * 10,  # untranscodable
        "<!-- only a comment -->",                 # repairs to ""
        "%PDF-1.4\n%\xe2\xe3\xcf\xd3\n1 0 obj << /Type /Catalog >>",
        *_rendered(texts),
    ]
    documents = []
    for index, raw in enumerate(pages):
        url = f"http://edge{index}.example.org/doc.html"
        documents.append(Document(
            f"doc-{index}", f"gold text {index}", raw=raw,
            meta={"url": url, "content_type": "text/html",
                  "title": "kept unless written"}))
    documents.append(Document("empty-raw", "text stays", raw="",
                              meta={"url": "http://e.example.org/",
                                    "title": "stays"}))
    documents.append(Document("no-url", "x", raw=_rendered(texts)[0]))
    documents.append(Document("duplicate", "y", raw=_rendered(texts)[0],
                              meta={"url": "http://dup.example.org/"}))
    return documents


def _copies(documents):
    return [document.copy_shallow() for document in documents]


# -- structure ----------------------------------------------------------------

class TestSubstitution:
    def test_fig2_is_39_logical_nodes_until_fused(self, pipeline):
        plan = build_fig2_flow(pipeline)
        assert len(plan) == 39
        fused = fuse_physical_stages(plan)
        names = _names(plan)
        assert [node.operator.name for node in fused] == [
            FUSED, "annotate_entities_fused"]
        assert names.count(FUSED) == 1
        assert names.count("annotate_entities_fused") == 1
        assert not set(WEB_RUN) & set(names)
        assert len(plan) == 39 - 5 - 6
        assert set(plan.sinks) == {"sentences", "linguistics", "entities",
                                   "entity_frequencies", "edges",
                                   "relations"}
        plan.topological_order()

    def test_fused_operator_aggregates_the_run(self, pipeline):
        plan = build_fig2_flow(pipeline)
        replaced = [node.operator for node in plan.nodes
                    if node.operator.name in WEB_RUN]
        (node,) = fuse_web_stage(plan)
        fused = node.operator
        assert fused.cost_per_record == pytest.approx(
            sum(op.cost_per_record for op in replaced))
        assert fused.reads == {"raw", "url"}
        assert fused.writes == {"markup_issues", "raw", "transcodable",
                                "title", "outlinks", "host", "domain",
                                "text"}

    def test_idempotent(self, pipeline):
        plan = build_fig2_flow(pipeline)
        assert len(fuse_web_stage(plan)) == 1
        assert fuse_web_stage(plan) == []
        assert len(fuse_annotation_stage(plan)) == 1
        assert fuse_physical_stages(plan) == []

    @pytest.mark.parametrize("build", [build_linguistic_flow,
                                       build_entity_flow])
    def test_separate_flows_fuse_their_two_operator_run(self, pipeline,
                                                        build):
        plan = build(pipeline)
        (node,) = fuse_web_stage(plan)
        assert node.inputs[0].operator.name == "filter_long_documents"
        names = _names(plan)
        assert "repair_markup" not in names
        assert "remove_boilerplate" not in names

    def test_still_fuses_after_sofa(self, pipeline):
        plan = build_fig2_flow(pipeline)
        assert SofaOptimizer().optimize(plan).n_swaps == 0
        assert len(fuse_web_stage(plan)) == 1

    def test_fuses_the_bare_chain(self):
        assert len(fuse_web_stage(web_plan())) == 1
        assert len(fuse_web_stage(web_plan(
            ("repair_markup", "remove_boilerplate")))) == 1

    def test_declines_when_raw_is_read_downstream(self):
        plan = web_plan(after=("strip_control_chars", "remove_markup"))
        assert fuse_web_stage(plan) == []
        assert FUSED not in _names(plan)

    def test_declines_with_a_sink_on_the_run_tail(self):
        plan = web_plan()
        tail = next(node for node in plan.nodes
                    if node.operator.name == "remove_boilerplate")
        plan.mark_sink("documents", tail)
        assert fuse_web_stage(plan) == []

    def test_declines_with_a_document_sink_downstream(self):
        plan = web_plan(after=("strip_control_chars",))
        tail = next(node for node in plan.nodes
                    if node.operator.name == "strip_control_chars")
        plan.mark_sink("documents", tail)
        assert fuse_web_stage(plan) == []

    def test_declines_with_a_foreign_operator_inside_the_run(self):
        plan = web_plan(("repair_markup", "extract_title",
                         "strip_control_chars", "remove_boilerplate"))
        assert fuse_web_stage(plan) == []

    def test_unmarked_leaves_are_sinks(self):
        plan = LogicalPlan()
        plan.chain([make_operator("repair_markup"),
                    make_operator("remove_boilerplate")])
        assert fuse_web_stage(plan) == []


# -- equivalence --------------------------------------------------------------

class TestEquivalence:
    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_web_fields_identical(self, edge_documents, mode):
        plan = web_plan()
        reference, _ = Executor("sequential").execute(
            plan, _copies(edge_documents))
        fused, _ = run_flow(plan, _copies(edge_documents), mode=mode,
                            dop=2)
        assert fused == reference
        assert len(reference["fields"]) == len(edge_documents)
        assert _names(plan) == [*WEB_RUN, "web_fields"]  # caller's plan

    def test_edge_cases_are_exercised(self, edge_documents):
        """The reference chain really takes every branch the fused
        operator special-cases."""
        plan = web_plan(("repair_markup", "extract_title",
                         "remove_boilerplate"))
        (rows,) = Executor("sequential").execute(
            plan, _copies(edge_documents))[0].values()
        by_id = {row["doc_id"]: dict(row["meta"]) | {"text": row["text"]}
                 for row in rows}
        untranscodable = by_id[f"doc-{len(TRICKY) + 1}"]
        assert untranscodable["transcodable"] is False
        assert untranscodable["title"] == untranscodable["text"] == ""
        comment_only = by_id[f"doc-{len(TRICKY) + 2}"]
        assert comment_only["transcodable"] is True
        assert comment_only["title"] == "kept unless written"
        assert comment_only["text"] == f"gold text {len(TRICKY) + 2}"
        assert by_id["empty-raw"]["text"] == "text stays"
        assert "transcodable" not in by_id["empty-raw"]

    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_fig2_sinks_identical(self, pipeline, edge_documents, mode):
        reference, _ = Executor("sequential").execute(
            build_fig2_flow(pipeline), _copies(edge_documents))
        fused, _ = run_flow(build_fig2_flow(pipeline),
                            _copies(edge_documents), mode=mode, dop=2)
        assert fused == reference
        assert reference["entities"] and reference["edges"]

    def test_flow_session_runs_the_fused_plan(self, pipeline,
                                              edge_documents):
        reference, _ = Executor("sequential").execute(
            build_fig2_flow(pipeline), _copies(edge_documents))
        session = FlowSession(pipeline, mode="fused")
        assert session.fused_stages == 2
        assert FUSED in _names(session.plan)
        outputs, _ = session.run(_copies(edge_documents))
        assert outputs == reference


# -- the crawler and the flow treat a page identically ------------------------

@pytest.fixture(scope="module")
def fetched_pages(vocabulary):
    graph = WebGraph(WebGraphConfig(n_hosts=12, seed=9),
                     vocabulary=vocabulary)
    web = SimulatedWeb(graph, seed=17,
                       faults=FaultConfig.preset("heavy", seed=18))
    pages = [web.fetch(url, now=0.0) for url in sorted(graph.pages)]
    return [page for page in pages if page.body]


def test_crawler_and_flow_read_the_same_page(context, fetched_pages):
    processing = ProcessingContext(
        boilerplate=BoilerplateDetector(),
        filters=context.build_filter_chain(),
        classifier=context.pipeline.classifier)
    documents = [Document(page.url, "", raw=page.body,
                          meta={"url": page.url})
                 for page in fetched_pages]
    plan = web_plan(("repair_markup", "extract_title", "extract_links",
                     "remove_boilerplate"),
                    detector=processing.boilerplate)
    reference, _ = Executor("sequential").execute(plan, _copies(documents))
    fused, _ = run_flow(plan, _copies(documents), mode="fused")
    assert fused == reference
    compared = 0
    for page, row in zip(fetched_pages, fused["fields"]):
        outcome = process_document(page.url, page.body, page.content_type,
                                   processing)
        if not outcome.transcodable:
            continue
        meta = dict(row["meta"])
        tree, _report = repair_document(page.body)
        assert (meta["title"], meta["outlinks"], row["text"]) == (
            outcome.title, outcome.outlinks, outcome.net_text) == (
            extract_title_from_tree(tree),
            extract_links_from_tree(tree, page.url),
            extract_from_tree(processing.boilerplate, tree))
        compared += 1
    assert compared > 100
