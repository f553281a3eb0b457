"""The worklist solver and its interval lattice, tested in isolation.

The flow passes get their own tests; here the question is whether the
*engine* is right — the interval domain refines on guards, terminates
on counting loops (widening) and honours validator-style parameter
seeds.
"""

from __future__ import annotations

import ast
from textwrap import dedent

from repro.staticcheck.cfg import build_cfg
from repro.staticcheck.dataflow import (
    IntervalAnalysis,
    IntRange,
    solve,
)


def _cfg_of(source: str):
    tree = ast.parse(dedent(source).lstrip("\n"))
    return build_cfg(tree.body[0]), tree.body[0]


def _block_of(cfg, predicate):
    [block] = [b for b in cfg.statement_blocks() if predicate(b)]
    return block


def _aug_assign_line(line):
    return lambda b: isinstance(b.node, ast.AugAssign) and b.line == line


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


def test_interval_guard_refines_the_false_edge():
    cfg, _ = _cfg_of("""
        def charge(words):
            if words <= 0:
                raise ValueError("words must be positive")
            words += 0
    """)
    analysis = IntervalAnalysis()
    in_states, _ = solve(cfg, analysis)
    after_guard = _block_of(cfg, _aug_assign_line(4))
    rng = in_states[after_guard.index].get("words")
    assert rng.lo == 1 and rng.hi is None


def test_interval_widening_terminates_counting_loop():
    cfg, _ = _cfg_of("""
        def count(n):
            i = 0
            while i < n:
                i = i + 1
            return i
    """)
    in_states, _ = solve(cfg, IntervalAnalysis())
    ret = _block_of(cfg, lambda b: isinstance(b.node, ast.Return))
    rng = in_states[ret.index].get("i")
    # Widening keeps the stable lower bound and drops the rising upper.
    assert rng.lo == 0
    assert not rng.may_be_negative()


def test_interval_param_seeds_flow_through_arithmetic():
    cfg, _ = _cfg_of("""
        def f(words):
            doubled = words + words
            return doubled
    """)
    analysis = IntervalAnalysis(param_ranges={"words": IntRange(1, None)})
    in_states, _ = solve(cfg, analysis)
    ret = _block_of(cfg, lambda b: isinstance(b.node, ast.Return))
    rng = in_states[ret.index].get("doubled")
    assert rng.lo == 2 and rng.hi is None


def test_interval_negative_literal_is_provably_negative():
    cfg, _ = _cfg_of("""
        def f():
            sentinel = -1
            return sentinel
    """)
    in_states, _ = solve(cfg, IntervalAnalysis())
    ret = _block_of(cfg, lambda b: isinstance(b.node, ast.Return))
    rng = in_states[ret.index].get("sentinel")
    assert rng.lo == -1 and rng.hi == -1
    assert rng.may_be_negative()


def test_interval_true_division_marks_float():
    cfg, _ = _cfg_of("""
        def f(num, den):
            ratio = num / den
            return ratio
    """)
    in_states, _ = solve(cfg, IntervalAnalysis())
    ret = _block_of(cfg, lambda b: isinstance(b.node, ast.Return))
    assert in_states[ret.index].get("ratio").is_float


def test_interval_max_builtin_clamps_the_lower_bound():
    cfg, _ = _cfg_of("""
        def f(delta):
            clamped = max(0, delta)
            return clamped
    """)
    in_states, _ = solve(cfg, IntervalAnalysis())
    ret = _block_of(cfg, lambda b: isinstance(b.node, ast.Return))
    rng = in_states[ret.index].get("clamped")
    assert rng.lo == 0
    assert not rng.may_be_negative()
