"""Behavioural edges of the flow-sensitive passes.

The fixture corpus (``test_corpus.py``) proves each pass fires on its
seeded bug; these tests pin the *negative space* — the idioms each pass
must stay quiet about (rollback in a handler, lone opens, conditional
closes, copies, pragma suppressions) — and the provenance of what it
reports.
"""

from __future__ import annotations

from textwrap import dedent

from repro.staticcheck.model import Program
from repro.staticcheck.runner import run_on_program


def _findings(files: dict[str, str], *rules: str):
    program = Program.from_sources(
        {path: dedent(src).lstrip("\n") for path, src in files.items()})
    return run_on_program(program, rules=list(rules))


# ---------------------------------------------------------------------------
# invariant-safety
# ---------------------------------------------------------------------------

_HEAP = "src/repro/heap/intervals.py"


def test_invariant_rollback_in_handler_is_clean():
    # SimHeap.move's shape: the handler restores the pair before
    # re-raising, so the exceptional path is not torn.
    findings = _findings({_HEAP: """
        class SimHeap:
            def move(self, old, new):
                self.occupied.remove(old)
                try:
                    self.occupied.add(new)
                except ValueError:
                    self.occupied.add(old)
                    raise
    """}, "invariant-safety")
    assert findings == [], [f.describe() for f in findings]


def test_invariant_lone_open_is_a_complete_operation():
    findings = _findings({_HEAP: """
        class IntervalSet:
            def free(self, start):
                self._index.remove(start)
    """}, "invariant-safety")
    assert findings == []


def test_invariant_conditional_close_falling_off_the_end_is_clean():
    findings = _findings({_HEAP: """
        class IntervalSet:
            def shrink(self, start, keep):
                self._index.remove(start)
                if keep:
                    self._index.add(keep)
    """}, "invariant-safety")
    assert findings == []


def test_invariant_pragma_suppresses_the_open_site():
    findings = _findings({_HEAP: """
        class IntervalSet:
            def move(self, old, new):
                self._index.remove(old)  # lint: invariant-ok
                if new < 0:
                    raise ValueError("bad")
                self._index.add(new)
    """}, "invariant-safety")
    assert findings == []


def test_invariant_outside_scope_dirs_is_ignored():
    findings = _findings({"src/repro/sim/engine.py": """
        class Engine:
            def move(self, old, new):
                self.index.remove(old)
                raise ValueError("torn, but not heap state")
    """}, "invariant-safety")
    assert findings == []


def test_invariant_finding_names_both_halves():
    findings = _findings({_HEAP: """
        class IntervalSet:
            def move(self, old, new):
                self._index.remove(old)
                if new < 0:
                    raise ValueError("bad")
                self._index.add(new)
    """}, "invariant-safety")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.rule == "invariant-safety"
    assert finding.source == "invariant-safety"
    assert "remove" in finding.message and "add" in finding.message
    assert "self._index" in finding.message


# ---------------------------------------------------------------------------
# alias-escape
# ---------------------------------------------------------------------------


def test_alias_through_copy_is_clean():
    findings = _findings({"src/repro/sim/compactor.py": """
        def trim(intervals):
            rows = list(intervals._starts)
            rows.pop()
            return rows
    """}, "alias-escape")
    assert findings == []


def test_alias_element_extraction_is_not_an_escape():
    findings = _findings({"src/repro/heap/gap_index.py": """
        class GapIndex:
            def last_end(self):
                return self._ends[-1] if self._ends else 0
    """}, "alias-escape")
    assert findings == []


def test_alias_rebinding_kills_the_alias():
    findings = _findings({"src/repro/sim/compactor.py": """
        def trim(intervals):
            rows = intervals._starts
            rows = []
            rows.pop()
    """}, "alias-escape")
    assert findings == []


def test_escape_through_tuple_return_is_flagged():
    findings = _findings({"src/repro/heap/gap_index.py": """
        class GapIndex:
            def raw(self):
                return len(self._starts), self._starts
    """}, "alias-escape")
    assert [f.rule for f in findings] == ["interval-escape"]


# ---------------------------------------------------------------------------
# the lexical interval-internals rule, which shares alias-escape's
# internals set
# ---------------------------------------------------------------------------


def test_interval_internals_delegate_still_fires():
    findings = _findings({"src/repro/sim/compactor.py": """
        def peek(intervals):
            return intervals._gap_end
    """}, "interval-internals")
    assert [f.rule for f in findings] == ["interval-internals"]
