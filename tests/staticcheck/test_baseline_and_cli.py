"""The gate, report formats, and the ``repro staticcheck`` CLI."""

from __future__ import annotations

import json
from pathlib import Path
from textwrap import dedent

from repro.cli import main
from repro.staticcheck.base import StaticCheckConfig
from repro.staticcheck.model import Program
from repro.staticcheck.output import to_sarif
from repro.staticcheck.runner import run_on_program, run_staticcheck
from repro.staticcheck import rule_catalog

_BAD_BUDGET = dedent("""
    def charge(amount: int):
        return amount / 2
""").lstrip("\n")


#: The rules the audit in docs/static-analysis.md keeps, and their ids.
KEPT_RULES = ("no-float", "unseeded-random", "event-registry",
              "all-consistency", "interval-internals", "float-taint",
              "determinism", "budget-range", "invariant-safety",
              "alias-escape")
KEPT_RULE_IDS = ("no-float", "unseeded-random", "event-registry",
                 "all-consistency", "interval-internals", "float-taint",
                 "float-taint-arg", "unordered-iteration", "id-ordering",
                 "env-read", "time-read", "budget-negative", "budget-int",
                 "budget-call", "invariant-safety", "interval-alias",
                 "interval-escape")


def _bad_findings():
    program = Program.from_sources({"src/repro/mm/budget.py": _BAD_BUDGET})
    return run_on_program(program, StaticCheckConfig())


class TestRunStaticcheckGate:
    def _write_bad_tree(self, root: Path) -> Path:
        bad = root / "src" / "repro" / "mm"
        bad.mkdir(parents=True)
        (bad / "budget.py").write_text(_BAD_BUDGET, encoding="utf-8")
        return root

    def test_findings_fail_the_gate(self, tmp_path):
        root = self._write_bad_tree(tmp_path)
        result = run_staticcheck([root / "src"], root=root)
        assert result.exit_code == 1
        assert [f.rule for f in result.findings] == ["no-float"]

    def test_syntax_errors_are_findings(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def oops(:\n", encoding="utf-8")
        result = run_staticcheck([target], root=tmp_path)
        assert result.exit_code == 1
        assert [f.rule for f in result.findings] == ["syntax-error"]
        assert result.findings[0].fingerprint


class TestSarif:
    def test_structure_and_fingerprints(self):
        findings = _bad_findings()
        document = json.loads(to_sarif(findings, rule_catalog(),
                                       Path("/virtual")))
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-staticcheck"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert rule_ids == set(KEPT_RULE_IDS)
        tiers = {rule["id"]: rule["properties"]["tier"]
                 for rule in run["tool"]["driver"]["rules"]
                 if "properties" in rule}
        assert tiers["unordered-iteration"] == "interprocedural"
        assert tiers["budget-negative"] == "dataflow"
        assert tiers["interval-escape"] == "dataflow"
        assert tiers["float-taint"] == "interprocedural"
        assert tiers["no-float"] == "lexical"
        results = run["results"]
        assert len(results) == len(findings)
        for record in results:
            assert record["fingerprints"]["repro-staticcheck/v1"]
            assert record["locations"][0]["physicalLocation"][
                "artifactLocation"]["uri"].endswith("budget.py")

    def test_fingerprints_survive_line_shifts(self):
        shifted = Program.from_sources({
            "src/repro/mm/budget.py": "# a comment\n\n" + _BAD_BUDGET,
        })
        original = {f.fingerprint for f in _bad_findings()}
        moved = {f.fingerprint
                 for f in run_on_program(shifted, StaticCheckConfig())}
        assert original == moved


class TestCli:
    def _bad_file(self, tmp_path: Path) -> Path:
        target = tmp_path / "snippet.py"
        target.write_text("import random\n\nx = random.random()\n",
                          encoding="utf-8")
        return target

    def test_clean_run_exits_zero(self, capsys):
        status = main(["staticcheck", "src/repro", "tools"])
        output = capsys.readouterr().out
        assert status == 0, output
        assert "OK:" in output

    def test_findings_exit_one(self, tmp_path, capsys):
        target = self._bad_file(tmp_path)
        status = main(["staticcheck", str(target)])
        output = capsys.readouterr().out
        assert status == 1
        assert "unseeded-random" in output

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["staticcheck", "--rules", "no-such-rule"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule" in err
        # The error is actionable: the full catalog is printed.
        assert "available rules:" in err
        for name in KEPT_RULES:
            assert name in err

    def test_rule_filter_runs_only_that_rule(self, tmp_path, capsys):
        target = self._bad_file(tmp_path)
        status = main(["staticcheck", str(target),
                       "--rules", "all-consistency"])
        assert status == 0
        assert "0 findings" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        target = self._bad_file(tmp_path)
        main(["staticcheck", str(target), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["finding_count"] == 1
        assert payload["findings"][0]["rule"] == "unseeded-random"

    def test_sarif_output_file(self, tmp_path, capsys):
        target = self._bad_file(tmp_path)
        out = tmp_path / "report.sarif"
        status = main(["staticcheck", str(target),
                       "--format", "sarif", "--output", str(out)])
        assert status == 1
        assert "FAIL" in capsys.readouterr().out
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["runs"][0]["results"]

    def test_list_rules_covers_passes_and_lint(self, capsys):
        assert main(["staticcheck", "--list-rules"]) == 0
        output = capsys.readouterr().out
        listed = [line.split()[0] for line in output.splitlines()
                  if line.startswith("  ") and not line.startswith("    ")]
        assert sorted(listed) == sorted(KEPT_RULES)

    def test_list_rules_groups_by_tier(self, capsys):
        assert main(["staticcheck", "--list-rules"]) == 0
        output = capsys.readouterr().out
        headers = [line for line in output.splitlines()
                   if line.endswith(" tier:")]
        assert headers == ["lexical tier:", "interprocedural tier:",
                           "dataflow tier:"]
        # Every catalog entry sits under its tier header.
        assert output.index("dataflow tier:") < output.index(
            "budget-range [program]")
        assert output.index("interprocedural tier:") < output.index(
            "float-taint [program]") < output.index("dataflow tier:")
        assert output.index("no-float [module]") < output.index(
            "interprocedural tier:")
