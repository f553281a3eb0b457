"""Tests for the repository lint: the lexical rules of ``repro staticcheck``.

The lexical tier (:mod:`repro.staticcheck.rules_lint`) is the part of the
analyzer that needs one parsed file and nothing else.  These tests lint
synthetic files the way ``repro staticcheck --rules <lexical rules>``
does and pin each rule's edges: pragmas, scopes, conditional bindings,
and the exit status of the command.
"""

from __future__ import annotations

from pathlib import Path

from repro.cli import main
from repro.staticcheck import rule_catalog
from repro.staticcheck.base import StaticCheckConfig
from repro.staticcheck.model import Program
from repro.staticcheck.runner import run_on_program, run_staticcheck

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

#: Every lexical rule, in catalog order.
LEXICAL_RULES = [spec.name for spec in rule_catalog()
                 if spec.tier == "lexical"]

_CONFIG = StaticCheckConfig()


def _findings(tmp_path, source: str, *, relpath: str = "snippet.py"):
    """Lint one synthetic file and return its finding rules."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    result = run_staticcheck([target], root=tmp_path, rules=LEXICAL_RULES)
    return [finding.rule for finding in result.findings]


def _rule_on(relpath: str, source: str, rule: str):
    """Run one rule on an in-memory module laid out at ``relpath``."""
    program = Program.from_sources({relpath: source})
    return run_on_program(program, _CONFIG, rules=[rule])


class TestNoFloatRule:
    def _lint_scoped(self, source: str):
        """Run just the no-float rule on a budget-critical file."""
        return [f.rule for f in _rule_on("src/repro/mm/budget.py", source,
                                         "no-float")]

    def test_flags_float_literal_division_and_cast(self):
        source = "x = 0.5\ny = a / b\nz = float(a)\n"
        assert self._lint_scoped(source) == ["no-float"] * 3

    def test_pragma_exempts_the_line(self):
        source = "x = a / b  # lint: float-ok\ny = a / b\n"
        assert self._lint_scoped(source) == ["no-float"]

    def test_integer_arithmetic_is_clean(self):
        source = "x = (a + b) * 2 ** 8 // 3\n"
        assert self._lint_scoped(source) == []

    def test_scope_covers_budget_and_exact(self):
        assert _CONFIG.is_float_sink("src/repro/mm/budget.py")
        assert _CONFIG.is_float_sink("src/repro/exact/game.py")
        assert not _CONFIG.is_float_sink("src/repro/analysis/experiments.py")


class TestUnseededRandomRule:
    def test_flags_module_level_draws(self, tmp_path):
        rules = _findings(
            tmp_path, "import random\nvalue = random.randint(0, 7)\n"
        )
        assert "unseeded-random" in rules

    def test_flags_from_import_of_global_functions(self, tmp_path):
        rules = _findings(tmp_path, "from random import shuffle\n")
        assert "unseeded-random" in rules

    def test_seeded_instance_is_clean(self, tmp_path):
        rules = _findings(
            tmp_path,
            "import random\nrng = random.Random(7)\nvalue = rng.randint(0, 7)\n",
        )
        assert "unseeded-random" not in rules


class TestAllConsistencyRule:
    def test_flags_phantom_export(self, tmp_path):
        rules = _findings(tmp_path, '__all__ = ["missing"]\n')
        assert rules == ["all-consistency"]

    def test_flags_duplicate_entry(self, tmp_path):
        rules = _findings(
            tmp_path, '__all__ = ["thing", "thing"]\nthing = 1\n'
        )
        assert rules == ["all-consistency"]

    def test_conditional_binding_counts(self, tmp_path):
        source = (
            '__all__ = ["maybe"]\n'
            "try:\n    from os import getcwd as maybe\n"
            "except ImportError:\n    maybe = None\n"
        )
        assert _findings(tmp_path, source) == []


class TestEventRegistryRule:
    def test_real_events_module_is_clean(self):
        path = REPO_ROOT / "src" / "repro" / "obs" / "events.py"
        result = run_staticcheck([path], root=REPO_ROOT, rules=LEXICAL_RULES)
        assert [finding.rule for finding in result.findings] == []

    def test_unregistered_event_is_flagged(self):
        source = (
            "class TelemetryEvent: ...\n"
            "class Rogue(TelemetryEvent):\n"
            '    kind: ClassVar[str] = "rogue"\n'
            "_EVENT_TYPES = {}\n"
            "__all__ = []\n"
        )
        findings = _rule_on(_CONFIG.events_module, source, "event-registry")
        assert {finding.rule for finding in findings} == {"event-registry"}
        assert len(findings) == 2  # unregistered AND unexported


class TestIntervalInternalsRule:
    def test_flags_every_internal_attribute(self, tmp_path):
        source = (
            "def f(s):\n"
            "    a = s._starts[0]\n"
            "    b = s._ends[-1]\n"
            "    c = s._gap_end\n"
            "    d = s._gap_buckets\n"
            "    e = s._class_mask\n"
            "    g = s._size_order\n"
        )
        rules = _findings(tmp_path, source)
        assert rules == ["interval-internals"] * 6

    def test_flags_writes_too(self, tmp_path):
        rules = _findings(tmp_path, "def f(s):\n    s._starts = []\n")
        assert rules == ["interval-internals"]

    def test_public_api_is_clean(self, tmp_path):
        source = (
            "def f(s):\n"
            "    s.add(0, 4)\n"
            "    return s.find_first_gap(2), s.total, s.gap_count\n"
        )
        assert _findings(tmp_path, source) == []

    def test_heap_package_is_exempt(self):
        assert _CONFIG.in_heap_package("src/repro/heap/intervals.py")
        assert _CONFIG.in_heap_package("src/repro/heap/gap_index.py")
        assert not _CONFIG.in_heap_package("src/repro/mm/base.py")
        assert not _CONFIG.in_heap_package("tests/heap/test_intervals.py")


class TestRepoIsClean:
    def test_src_and_tools_pass(self, capsys):
        status = main([
            "staticcheck", str(REPO_ROOT / "src" / "repro"),
            str(REPO_ROOT / "tools"), "--rules", ",".join(LEXICAL_RULES),
        ])
        output = capsys.readouterr().out
        assert status == 0, output
        assert "0 findings" in output

    def test_exit_status_nonzero_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n\nx = random.random()\n")
        assert main(["staticcheck", str(bad),
                     "--rules", ",".join(LEXICAL_RULES)]) == 1
        assert "unseeded-random" in capsys.readouterr().out
