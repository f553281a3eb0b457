"""Acceptance gate: seeding a bug into the real tree fails CI.

The litmus test for the whole framework: take the *actual* repository
sources, add an innocent-looking helper module whose return value is
secretly a float, route it into ``mm/budget.py`` through that
intermediate call — exactly the interprocedural shape the per-line
``no-float`` rule can never see — and assert the analyzer reports it
and fails the gate.  A second seed plants set iteration in the real
``replay_digest``, which reaches the tape digest only through the
attribute chain ``bus.tape.digest()``.
"""

from __future__ import annotations

from textwrap import dedent

import pytest

from repro.staticcheck.model import Program
from repro.staticcheck.runner import (
    default_paths,
    iter_python_files,
    repo_root,
    run_on_program,
)

ROOT = repo_root()


@pytest.fixture(scope="module")
def real_sources() -> dict[str, str]:
    """The real ``src/repro`` + ``tools`` tree as in-memory sources."""
    sources: dict[str, str] = {}
    for path in iter_python_files(default_paths(ROOT)):
        rel = path.resolve().relative_to(ROOT).as_posix()
        sources[rel] = path.read_text(encoding="utf-8")
    return sources


#: The helper the "attacker" adds: nothing about its signature admits
#: the float — only its body (an unannotated true division) does.
_HELPER = dedent("""
    \"\"\"Innocent-looking helper.\"\"\"


    def occupancy_fraction(used, capacity):
        if capacity == 0:
            return 0
        return used / capacity
""").lstrip("\n")

#: The seeded call site inside the real budget module (the import is
#: top-level, as a real edit would be).
_SEEDED_CALL = dedent("""


    from repro.util.occupancy import occupancy_fraction


    def seeded_occupancy(used: int, capacity: int):
        return occupancy_fraction(used, capacity)
""")


def test_seeded_float_taint_via_helper_fails_the_gate(real_sources):
    sources = dict(real_sources)
    assert "src/repro/mm/budget.py" in sources
    sources["src/repro/util/occupancy.py"] = _HELPER
    sources["src/repro/mm/budget.py"] += _SEEDED_CALL

    program = Program.from_sources(sources, root=ROOT)
    findings = run_on_program(program)

    taint = [f for f in findings if f.rule == "float-taint"
             and f.path == ROOT / "src/repro/mm/budget.py"]
    assert taint, (
        "seeded interprocedural float bug was not caught; findings: "
        + "; ".join(f.describe(ROOT) for f in findings)
    )
    assert any("seeded_occupancy" in (f.symbol or "") for f in taint)


def test_unseeded_real_tree_is_clean(real_sources):
    """Control arm: without the seeded bug the same scope passes."""
    program = Program.from_sources(dict(real_sources), root=ROOT)
    findings = run_on_program(program)
    assert findings == [], [f.describe(ROOT) for f in findings]


def test_seeded_set_iteration_in_replay_digest_fails_the_gate(real_sources):
    """Determinism acceptance: ``replay_digest`` hashes through
    ``bus.tape.digest()``, so set iteration planted in it must surface
    as ``unordered-iteration`` with the default config."""
    sources = dict(real_sources)
    module = "src/repro/check/determinism.py"
    anchor = "    driver.run(program)\n    return bus.tape.digest()\n"
    assert anchor in sources[module]
    sources[module] = sources[module].replace(
        anchor,
        "    for _name in set(manifest):\n        pass\n" + anchor, 1)

    program = Program.from_sources(sources, root=ROOT)
    findings = run_on_program(program, rules=["determinism"])
    flagged = [f for f in findings if f.rule == "unordered-iteration"]
    assert any("replay_digest" in (f.symbol or "") for f in flagged), [
        f.describe(ROOT) for f in findings
    ]


def test_real_repo_on_disk_runs_clean():
    """End-to-end: the shipped tree passes the gate."""
    from repro.staticcheck.runner import run_staticcheck

    root = repo_root()
    scope = [*default_paths(root), root / "tests", root / "benchmarks"]
    result = run_staticcheck(scope, root=root)
    assert result.parse_errors == []
    assert result.ok, [f.describe(root) for f in result.findings]
