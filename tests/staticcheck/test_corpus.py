"""The known-bad corpus matrix: every pass provably flags its fixture.

Mutation testing for the analyzer itself, mirroring
``tests/check/test_fixtures.py``: each fixture plants exactly one bug of
a known class, the pass under test must report the expected rule at the
expected symbol, and (where a repaired variant exists) the same pass
must come back silent on it.  A pass that silently stops firing fails
here, not in production.
"""

from __future__ import annotations

import pytest

from repro.staticcheck import rule_catalog
from repro.staticcheck.fixtures import STATIC_FIXTURES, run_fixture

_BY_NAME = {fixture.name: fixture for fixture in STATIC_FIXTURES}


def test_corpus_covers_every_analysis_pass():
    passes = {fixture.pass_name for fixture in STATIC_FIXTURES}
    assert passes == {spec.name for spec in rule_catalog()}
    for name in sorted(passes):
        count = sum(1 for f in STATIC_FIXTURES if f.pass_name == name)
        assert count >= 2, f"pass {name} has only {count} fixture(s)"


def test_every_rule_id_has_a_fixture():
    """Each rule id in the catalog is exercised by name."""
    expected = {fixture.expect_rule for fixture in STATIC_FIXTURES}
    for spec in rule_catalog():
        for rule in spec.rule_ids:
            assert rule in expected, f"no fixture exercises {rule!r}"


def test_corpus_names_are_unique():
    assert len(_BY_NAME) == len(STATIC_FIXTURES)


@pytest.mark.parametrize(
    "fixture", STATIC_FIXTURES, ids=[f.name for f in STATIC_FIXTURES]
)
class TestSeededBugs:
    def test_expected_rule_fires(self, fixture):
        findings = run_fixture(fixture)
        rules = [finding.rule for finding in findings]
        assert fixture.expect_rule in rules, (
            f"{fixture.name}: expected {fixture.expect_rule!r}, "
            f"got {rules!r}"
        )

    def test_flagged_at_expected_symbol(self, fixture):
        findings = [f for f in run_fixture(fixture)
                    if f.rule == fixture.expect_rule]
        if fixture.expect_symbol is None:
            # Lexical rules report no symbol: pin the seeded file instead.
            paths = {f.path.as_posix() for f in findings}
            assert paths and all(
                any(path.endswith(rel) for rel in fixture.files)
                for path in paths), paths
            return
        symbols = [f.symbol or "" for f in findings]
        assert any(fixture.expect_symbol in symbol for symbol in symbols), (
            f"{fixture.name}: {fixture.expect_rule} fired at {symbols!r}, "
            f"expected {fixture.expect_symbol!r}"
        )

    def test_findings_are_fingerprinted(self, fixture):
        findings = run_fixture(fixture)
        assert findings
        assert all(f.fingerprint for f in findings)
        assert len({f.fingerprint for f in findings}) == len(findings)

    def test_fixed_variant_is_clean(self, fixture):
        if not fixture.fixed_files:
            pytest.skip("fixture has no repaired variant")
        findings = run_fixture(fixture, fixed=True)
        assert findings == [], [f.describe() for f in findings]


def test_taint_path_explains_the_chain():
    """The two-hop taint fixture can explain *why* the sink is tainted."""
    from repro.staticcheck.base import StaticCheckConfig
    from repro.staticcheck.model import Program
    from repro.staticcheck.taint import FloatTaintAnalysis

    fixture = _BY_NAME["taint-through-call"]
    program = Program.from_sources(fixture.files)
    analysis = FloatTaintAnalysis(program, StaticCheckConfig())
    path = analysis.taint_path("repro.mm.budget.charge_estimate")
    assert path is not None
    assert "wrapped_stamp" in path
    assert "time.time" in path or "stamp" in path
