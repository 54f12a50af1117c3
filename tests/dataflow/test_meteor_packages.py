"""Tests for the Meteor front-end and the operator packages."""

import pytest

from repro.annotations import Document
from repro.dataflow.executor import Executor
from repro.dataflow.meteor import MeteorError, parse_meteor
from repro.dataflow.packages import (
    OPERATOR_REGISTRY, make_operator, operators_in_package,
)


class TestRegistry:
    def test_more_than_60_operators(self):
        """The paper's system ships >60 operators in four packages."""
        assert len(OPERATOR_REGISTRY) >= 57

    def test_four_packages(self):
        packages = {spec.package for spec in OPERATOR_REGISTRY.values()}
        assert packages == {"base", "ie", "wa", "dc"}

    def test_each_package_nonempty(self):
        for package in ("base", "ie", "wa", "dc"):
            assert len(operators_in_package(package)) >= 8

    def test_make_operator_unknown(self):
        with pytest.raises(KeyError, match="unknown operator"):
            make_operator("does_not_exist")

    def test_descriptions_present(self):
        for spec in OPERATOR_REGISTRY.values():
            assert spec.description


class TestBaseOperators:
    def test_projection(self):
        operator = make_operator("projection", fields=["a"])
        assert list(operator.process([{"a": 1, "b": 2}])) == [{"a": 1}]

    def test_distinct(self):
        operator = make_operator("distinct")
        assert list(operator.process([1, 2, 1, 3, 2])) == [1, 2, 3]

    def test_distinct_by_key(self):
        operator = make_operator("distinct", key=lambda r: r["k"])
        records = [{"k": 1, "v": "a"}, {"k": 1, "v": "b"}]
        assert len(list(operator.process(records))) == 1

    def test_limit(self):
        operator = make_operator("limit", n=2)
        assert list(operator.process(range(10))) == [0, 1]

    def test_sort(self):
        operator = make_operator("sort", key=lambda r: r, reverse=True)
        assert list(operator.process([1, 3, 2])) == [3, 2, 1]

    def test_count(self):
        operator = make_operator("count")
        assert list(operator.process(range(7))) == [{"count": 7}]

    def test_group_by(self):
        operator = make_operator("group_by", key=lambda r: r % 2)
        groups = {g["key"]: g["value"]
                  for g in operator.process(range(10))}
        assert groups == {0: 5, 1: 5}

    def test_join(self):
        tag_left = make_operator("tag_side", side="left")
        tag_right = make_operator("tag_side", side="right")
        left = list(tag_left.process([{"k": 1, "a": "x"}]))
        right = list(tag_right.process([{"k": 1, "b": "y"},
                                        {"k": 2, "b": "z"}]))
        join = make_operator("join", key=lambda r: r["k"])
        merged = list(join.process(left + right))
        assert merged == [{"k": 1, "a": "x", "b": "y"}]

    def test_explode(self):
        operator = make_operator("explode", field="items")
        out = list(operator.process([{"items": [1, 2]}]))
        assert [r["items"] for r in out] == [1, 2]

    def test_sample_rate(self):
        operator = make_operator("sample", rate=0.5, seed=1)
        kept = list(operator.process(range(1000)))
        assert 350 < len(kept) < 650


class TestWaDcOperators:
    def _web_doc(self):
        return Document(
            "d", "", raw=("<html><body><div id='c'><p>Net article text "
                          "with enough words to count as content for the "
                          "extraction thresholds used here, clearly more "
                          "than forty words of flowing prose that any "
                          "boilerplate detector should keep as the main "
                          "body of this little page we built.</p></div>"
                          '<a href="http://x.com/next.html">next</a>'
                          "</body></html>"),
            meta={"url": "http://h.com/page.html",
                  "content_type": "text/html"})

    def test_remove_markup(self):
        document = list(make_operator("remove_markup").process(
            [self._web_doc()]))[0]
        assert "<" not in document.text
        assert "Net article text" in document.text

    def test_remove_boilerplate(self):
        document = list(make_operator("remove_boilerplate").process(
            [self._web_doc()]))[0]
        assert "Net article text" in document.text

    def test_extract_links_into_meta(self):
        document = list(make_operator("extract_links").process(
            [self._web_doc()]))[0]
        assert document.meta["outlinks"] == ["http://x.com/next.html"]

    def test_mime_filter_drops_binary(self):
        binary = Document("b", "", raw="%PDF-1.4 xxxx",
                          meta={"url": "http://h/a.pdf",
                                "content_type": "text/html"})
        kept = list(make_operator("mime_filter").process(
            [self._web_doc(), binary]))
        assert len(kept) == 1

    def test_annotate_host(self):
        document = list(make_operator("annotate_host").process(
            [self._web_doc()]))[0]
        assert document.meta["host"] == "h.com"

    def test_dedup_content(self):
        a = Document("1", "same text")
        b = Document("2", "same text")
        c = Document("3", "other text")
        kept = list(make_operator("dedup_content").process([a, b, c]))
        assert [d.doc_id for d in kept] == ["1", "3"]

    def test_normalize_whitespace(self):
        document = Document("d", "a   b\t\tc ")
        out = list(make_operator("normalize_whitespace").process(
            [document]))[0]
        assert out.text == "a b c"

    def test_scrub_pii_preserves_length_budget(self):
        document = Document("d", "mail me at someone@example.com today")
        out = list(make_operator("scrub_pii").process([document]))[0]
        assert "someone@example.com" not in out.text
        assert "<EMAIL>" in out.text

    def test_truncate_documents(self):
        document = Document("d", "x" * 200)
        out = list(make_operator("truncate_documents",
                                 max_chars=50).process([document]))[0]
        assert len(out.text) == 50
        assert out.meta["truncated"] is True

    def test_validate_offsets_drops_stale(self):
        from repro.annotations import EntityMention

        document = Document("d", "hello world")
        document.entities = [
            EntityMention("hello", 0, 5, "gene"),
            EntityMention("bogus", 3, 8, "gene"),
        ]
        out = list(make_operator("validate_offsets").process([document]))[0]
        assert [m.text for m in out.entities] == ["hello"]


class TestIeOperators:
    def test_annotate_sentences_and_tokens(self):
        document = Document("d", "First one here. Second one there.")
        chain_ops = [make_operator("annotate_sentences"),
                     make_operator("annotate_tokens")]
        records = [document]
        for operator in chain_ops:
            records = list(operator.process(records))
        assert len(records[0].sentences) == 2
        assert records[0].sentences[0].tokens

    def test_annotate_linguistic_categories_compose(self):
        document = Document("d", "They did not come (sadly).")
        for name in ("annotate_negation", "annotate_pronouns",
                     "annotate_parentheses"):
            document = list(make_operator(name).process([document]))[0]
        categories = {m.category for m in document.linguistics}
        assert categories == {"negation", "pronoun", "parenthesis"}

    def test_entities_to_records(self, pipeline):
        document = Document("d", "Patients received kesumabtidine today.")
        document.sentences = pipeline.splitter.split(document.text)
        pipeline.dictionary_taggers["drug"].annotate(document)
        records = list(make_operator("entities_to_records").process(
            [document]))
        for record in records:
            assert record["doc_id"] == "d"
            assert record["entity_type"] == "drug"

    def test_merge_annotations_dedups(self):
        from repro.annotations import EntityMention

        document = Document("d", "BRCA1")
        mention = EntityMention("BRCA1", 0, 5, "gene", method="dictionary")
        document.entities = [mention, mention]
        out = list(make_operator("merge_annotations").process([document]))[0]
        assert len(out.entities) == 1


class TestMeteor:
    CONTEXT_SCRIPT = """
    -- tiny linguistic flow
    $docs = read();
    $sent = annotate_sentences($docs);
    $tok  = annotate_tokens($sent);
    $neg  = annotate_negation($tok);
    $out  = linguistics_to_records($neg);
    write($out, 'ling');
    """

    def test_parse_and_execute(self):
        plan = parse_meteor(self.CONTEXT_SCRIPT)
        documents = [Document("d", "They did not come. Nor did we.")]
        outputs, _report = Executor().execute(plan, documents)
        assert {r["category"] for r in outputs["ling"]} == {"negation"}

    def test_context_values(self, pipeline):
        script = """
        $docs = read();
        $sent = annotate_sentences($docs);
        $tok = annotate_tokens($sent);
        $genes = annotate_genes_dict($tok, tagger=@gene_dict);
        $out = entities_to_records($genes);
        write($out, 'genes');
        """
        plan = parse_meteor(script, context={
            "gene_dict": pipeline.dictionary_taggers["gene"]})
        gene = pipeline.vocabulary.genes[0].canonical
        outputs, _ = Executor().execute(
            plan, [Document("d", f"Expression of {gene} rose.")])
        assert outputs["genes"]

    def test_literal_parsing(self):
        script = """
        $docs = read();
        $cut = truncate_documents($docs, max_chars=7);
        write($cut, 'out');
        """
        plan = parse_meteor(script)
        outputs, _ = Executor().execute(plan, [Document("d", "x" * 50)])
        assert len(outputs["out"][0].text) == 7

    def test_missing_sink_rejected(self):
        with pytest.raises(MeteorError, match="no write"):
            parse_meteor("$docs = read();")

    def test_undefined_variable_rejected(self):
        with pytest.raises(MeteorError, match="undefined variable"):
            parse_meteor("$a = annotate_sentences($nope);\nwrite($a, 'x');")

    def test_unknown_operator_rejected(self):
        with pytest.raises(MeteorError, match="unknown operator"):
            parse_meteor("$d = read();\n$x = frobnicate($d);\n"
                         "write($x, 'x');")

    def test_missing_context_rejected(self):
        with pytest.raises(MeteorError, match="missing context value"):
            parse_meteor("$d = read();\n"
                         "$x = annotate_pos($d, tagger=@missing);\n"
                         "write($x, 'x');")

    def test_write_of_source_rejected(self):
        with pytest.raises(MeteorError, match="raw source"):
            parse_meteor("$d = read();\nwrite($d, 'x');")

    def test_comments_ignored(self):
        plan = parse_meteor("""
        -- comment line
        $d = read();  -- trailing comment
        $x = drop_empty_documents($d);
        write($x, 'out');
        """)
        assert len(plan) == 1
