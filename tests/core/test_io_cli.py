"""Tests for the command-line interface."""

import pytest


class TestCli:
    def test_parser_subcommands(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["crawl", "--pages", "10"])
        assert args.command == "crawl" and args.pages == 10
        args = parser.parse_args(["--seed", "7", "seeds", "--scale", "40"])
        assert args.seed == 7 and args.scale == 40

    def test_requires_subcommand(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_seeds_command_runs(self, capsys):
        from repro.cli import main

        assert main(["--seed", "19", "seeds", "--scale", "40"]) == 0
        output = capsys.readouterr().out
        assert "seed URLs" in output
        assert "gene" in output

    def test_scalability_command_runs(self, capsys):
        from repro.cli import main

        assert main(["scalability"]) == 0
        output = capsys.readouterr().out
        assert "DoP" in output
        assert "infeasible" in output  # entity flow at DoP 1

    def test_facts_command_exports(self, tmp_path, capsys):
        from repro.cli import main
        from repro.store import EntityStore

        out_dir = tmp_path / "facts"
        assert main(["--seed", "19", "facts", "--out", str(out_dir),
                     "--pages", "40"]) == 0
        for name in ("store.json", "entities.jsonl", "facts.jsonl"):
            assert (out_dir / name).exists()
        # The JSONL files are the persisted store's canonical export
        # (the lines its digest hashes).
        exported = EntityStore.load(out_dir).export_lines()
        for artifact, lines in exported.items():
            assert (out_dir / f"{artifact}.jsonl").read_text(
                ).splitlines() == lines
        output = capsys.readouterr().out
        assert "store: " in output


class TestCliCrawlAnalyze:
    def test_crawl_and_analyze_commands(self, capsys):
        """Both commands share one memoized context (same seed/sizes),
        so the pipeline is trained once."""
        from repro.cli import main

        assert main(["--seed", "19", "crawl", "--pages", "60",
                     "--hosts", "40"]) == 0
        crawl_output = capsys.readouterr().out
        assert "harvest" in crawl_output
        assert main(["--seed", "19", "analyze", "--docs", "4"]) == 0
        analyze_output = capsys.readouterr().out
        assert "medline" in analyze_output
