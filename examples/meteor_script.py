#!/usr/bin/env python
"""Author an analysis flow in the Meteor-like declarative language,
optimize it, and execute it — the Stratosphere workflow of Section 3.

Run:  python examples/meteor_script.py
"""

from repro.core import default_context
from repro.dataflow.executor import Executor
from repro.dataflow.meteor import parse_meteor
from repro.dataflow.optimizer import SofaOptimizer
from repro.web.htmlgen import PageRenderer

SCRIPT = """
-- biomedical web analysis, declaratively
$docs      = read();
$textual   = mime_filter($docs);
$short     = filter_long_documents($textual, max_chars=200000);
$repaired  = repair_markup($short);
$nettext   = remove_boilerplate($repaired);
$clean     = normalize_whitespace($nettext);
$nonempty  = drop_empty_documents($clean);
$sentences = annotate_sentences($nonempty);
$tokens    = annotate_tokens($sentences);

$negation  = annotate_negation($tokens);
$pronouns  = annotate_pronouns($negation);
$parens    = annotate_parentheses($pronouns);
$ling      = linguistics_to_records($parens);
write($ling, 'linguistics');

$pos       = annotate_pos($tokens, tagger=@pos_tagger);
$drugs_d   = annotate_drugs_dict($pos, tagger=@drug_dict);
$drugs     = annotate_drugs_ml($drugs_d, tagger=@drug_ml);
$merged    = merge_annotations($drugs);
$records   = entities_to_records($merged);
write($records, 'drug_mentions');
"""


def main() -> None:
    ctx = default_context(corpus_docs=10, n_training_docs=30,
                          crf_iterations=25, n_hosts=40, crawl_pages=300)
    pipeline = ctx.pipeline

    print("-- parsing the Meteor script --------------------------------")
    plan = parse_meteor(SCRIPT, context={
        "pos_tagger": pipeline.pos_tagger,
        "drug_dict": pipeline.dictionary_taggers["drug"],
        "drug_ml": pipeline.ml_taggers["drug"],
    })
    print(f"logical plan: {len(plan)} operators, "
          f"sinks: {sorted(plan.sinks)}")

    print("\n-- logical optimization (SOFA) ------------------------------")
    report = SofaOptimizer().optimize(plan)
    print(f"{report.n_swaps} operator swaps, estimated speedup "
          f"{report.estimated_speedup:.2f}x")
    for left, right in report.swaps:
        print(f"  moved {right!r} before {left!r}")

    print("\n-- execution -------------------------------------------------")
    renderer = PageRenderer(seed=5)
    documents = []
    for index, document in enumerate(ctx.corpus_documents("relevant")[:5]):
        url = f"http://meteor{index}.example.org/article.html"
        document.raw = renderer.render(url, "Article", document.text, [])
        document.meta.update({"url": url, "content_type": "text/html"})
        documents.append(document)
    outputs, execution = Executor().execute(plan, documents)
    print(f"executed in {execution.total_seconds:.2f} s")
    print(f"linguistic mentions: {len(outputs['linguistics'])}")
    print(f"drug mention records: {len(outputs['drug_mentions'])}")
    print("\nmost expensive operators:")
    for name, seconds in execution.dominant_operators(5):
        print(f"  {name:<28} {seconds:.3f} s")
    print("\nsample drug mentions:")
    for record in outputs["drug_mentions"][:5]:
        print(f"  {record['method']:<10} {record['text']!r} "
              f"in {record['doc_id']}")


if __name__ == "__main__":
    main()
