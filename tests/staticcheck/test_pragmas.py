"""Pragma semantics: statement-span suppression, multi-line regression.

The original per-line ``no-float`` rule only honoured ``# lint:
float-ok`` on the exact line carrying the float token, so a pragma on
any other line of a multi-line expression was ignored (the documented
workaround was contorting the formatting).  ``exempt_lines`` fixes this: the pragma
exempts the innermost *statement* covering its line — and only that
statement, so a pragma on a ``def`` header does not silence the body.
"""

from __future__ import annotations

import ast
from textwrap import dedent

from repro.staticcheck.base import (
    FLOAT_OK_PRAGMA,
    StaticCheckConfig,
    exempt_lines,
)
from repro.staticcheck.model import Program
from repro.staticcheck.runner import run_on_program


def _no_float_findings(source: str):
    program = Program.from_sources(
        {"src/repro/mm/budget.py": dedent(source).lstrip("\n")}
    )
    return run_on_program(program, StaticCheckConfig(), rules=["no-float"])


class TestMultiLineRegression:
    def test_pragma_on_the_literal_line_still_works(self):
        findings = _no_float_findings("""
            SCALE = 0.5  # lint: float-ok
        """)
        assert findings == []

    def test_pragma_on_closing_line_of_multiline_expression(self):
        # The regression: the float literal is three lines above the
        # pragma, inside one statement.  The old rule flagged it.
        findings = _no_float_findings("""
            THRESHOLDS = (
                1,
                0.5,
                2,
            )  # lint: float-ok
        """)
        assert findings == []

    def test_pragma_on_first_line_covers_the_tail(self):
        findings = _no_float_findings("""
            THRESHOLDS = (  # lint: float-ok
                1,
                0.5,
            )
        """)
        assert findings == []

    def test_pragma_inside_multiline_call_arguments(self):
        findings = _no_float_findings("""
            value = convert(
                numerator / denominator,  # lint: float-ok
                base,
            )
        """)
        assert findings == []

    def test_unpragmaed_statement_is_still_flagged(self):
        findings = _no_float_findings("""
            GOOD = (
                0.5,
            )  # lint: float-ok
            BAD = 0.25
        """)
        assert [f.rule for f in findings] == ["no-float"]
        assert findings[0].line == 4


class TestInnermostStatementScope:
    def test_pragma_on_def_header_does_not_silence_the_body(self):
        findings = _no_float_findings("""
            def show(value):  # lint: float-ok
                return value * 0.5
        """)
        assert [f.rule for f in findings] == ["no-float"]

    def test_pragma_exempts_only_its_own_statement(self):
        findings = _no_float_findings("""
            a = 0.5  # lint: float-ok
            b = 0.5
        """)
        assert len(findings) == 1
        assert findings[0].line == 2

    def test_exempt_lines_spans_the_whole_statement(self):
        source = dedent("""
            x = (
                1,
                2,
            )  # lint: float-ok
        """).lstrip("\n")
        tree = ast.parse(source)
        assert exempt_lines(tree, source, FLOAT_OK_PRAGMA) == {1, 2, 3, 4}

    def test_pragma_on_blank_line_exempts_nothing_else(self):
        source = "x = 1\n# lint: float-ok\ny = 2\n"
        tree = ast.parse(source)
        assert exempt_lines(tree, source, FLOAT_OK_PRAGMA) == {2}


class TestOtherPragmas:
    def test_determinism_ok_suppresses_time_read(self):
        program = Program.from_sources({"src/repro/obs/bus.py": dedent("""
            import time


            def stamp_and_emit(bus, event):
                event.stamp = time.time()  # lint: determinism-ok
                bus.emit(event)
        """).lstrip("\n")})
        findings = run_on_program(program, StaticCheckConfig(),
                                  rules=["determinism"])
        assert findings == []
