"""Generic worklist dataflow solver plus the integer interval lattice.

:func:`solve` runs any forward :class:`DataflowAnalysis`
over a :class:`~repro.staticcheck.cfg.CFG` to fixpoint.  The stock
analysis is :class:`IntervalAnalysis` — a forward must-analysis over an
integer interval domain (:class:`IntRange`) with branch refinement, a
small relational fact set (``x <= y`` pairs), float-evidence tracking
and widening; it powers the budget-range pass.  The alias-escape pass
(:mod:`repro.staticcheck.flowpasses`) brings its own may-alias lattice.

The solver is edge-sensitive: after computing a block's output state
the analysis may refine it per outgoing edge kind
(:meth:`DataflowAnalysis.refine`), which is how ``if words <= 0:``
narrows ``words`` to ``[1, +inf)`` on the false edge.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Generic, Mapping, TypeVar

from .cfg import CFG, Block, FALSE, TRUE

__all__ = [
    "DataflowAnalysis", "solve",
    "IntRange", "IntervalState", "IntervalAnalysis",
]

S = TypeVar("S")

#: Blocks are widened after this many visits (loops converge fast; the
#: cap only matters for the interval domain's infinite ascending chains).
WIDEN_AFTER = 8


class DataflowAnalysis(Generic[S]):
    """A forward lattice + transfer functions, consumed by :func:`solve`."""

    def boundary(self) -> S:
        """State at the function entry."""
        raise NotImplementedError

    def bottom(self) -> S:
        """Identity of :meth:`join` — the state of unvisited blocks."""
        raise NotImplementedError

    def join(self, a: S, b: S) -> S:
        raise NotImplementedError

    def transfer(self, block: Block, state: S) -> S:
        raise NotImplementedError

    def refine(self, block: Block, state: S, kind: str) -> S:
        """Per-edge refinement of a block's output state."""
        return state

    def widen(self, old: S, new: S) -> S:
        """Accelerate convergence once a block is visited repeatedly."""
        return self.join(old, new)

    def equal(self, a: S, b: S) -> bool:
        return a == b


def solve(cfg: CFG, analysis: DataflowAnalysis[S],
          ) -> tuple[dict[int, S], dict[int, S]]:
    """Run ``analysis`` over ``cfg`` to fixpoint.

    Returns ``(in_states, out_states)`` keyed by block index: the state
    before and after each block executes.
    """
    n = len(cfg.blocks)
    start = cfg.entry
    before: dict[int, S] = {i: analysis.bottom() for i in range(n)}
    after: dict[int, S] = {i: analysis.bottom() for i in range(n)}
    visits = [0] * n

    worklist = list(range(n))
    before[start] = analysis.boundary()
    in_worklist = [True] * n

    while worklist:
        index = worklist.pop(0)
        in_worklist[index] = False
        block = cfg.blocks[index]

        incoming = (analysis.boundary() if index == start
                    else analysis.bottom())
        for src, kind in cfg.preds[index]:
            state = analysis.refine(cfg.blocks[src], after[src], kind)
            incoming = analysis.join(incoming, state)
        before[index] = incoming

        new_out = analysis.transfer(block, incoming)
        visits[index] += 1
        if visits[index] > WIDEN_AFTER:
            new_out = analysis.widen(after[index], new_out)
        if not analysis.equal(new_out, after[index]):
            after[index] = new_out
            for dst, _ in cfg.succs[index]:
                if not in_worklist[dst]:
                    in_worklist[dst] = True
                    worklist.append(dst)
    return before, after


# ---------------------------------------------------------------------------
# Integer interval domain (forward, must)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntRange:
    """``[lo, hi]`` over the integers; ``None`` bounds mean +/-inf.

    ``is_float`` records *evidence* that the value may be a float —
    the property the budget-range pass must prove absent from ledger
    cross-multiplications.
    """

    lo: int | None = None
    hi: int | None = None
    is_float: bool = False

    # -- constructors ----------------------------------------------------

    @staticmethod
    def const(value: int) -> "IntRange":
        return IntRange(value, value)

    @staticmethod
    def top() -> "IntRange":
        return IntRange(None, None)

    @staticmethod
    def float_top() -> "IntRange":
        return IntRange(None, None, is_float=True)

    # -- predicates ------------------------------------------------------

    def may_be_negative(self) -> bool:
        return self.lo is None or self.lo < 0

    def definitely_nonpositive(self) -> bool:
        return self.hi is not None and self.hi <= 0

    def is_empty(self) -> bool:
        return (self.lo is not None and self.hi is not None
                and self.lo > self.hi)

    # -- lattice ops ----------------------------------------------------

    def join(self, other: "IntRange") -> "IntRange":
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        lo = (None if self.lo is None or other.lo is None
              else min(self.lo, other.lo))
        hi = (None if self.hi is None or other.hi is None
              else max(self.hi, other.hi))
        return IntRange(lo, hi, self.is_float or other.is_float)

    def meet(self, other: "IntRange") -> "IntRange":
        lo = (other.lo if self.lo is None
              else self.lo if other.lo is None
              else max(self.lo, other.lo))
        hi = (other.hi if self.hi is None
              else self.hi if other.hi is None
              else min(self.hi, other.hi))
        met = IntRange(lo, hi, self.is_float and other.is_float)
        # An empty meet means the path is infeasible; keep the refined
        # operand rather than inventing an impossible range.
        return other if met.is_empty() else met

    def widen_against(self, old: "IntRange") -> "IntRange":
        """Standard interval widening: a bound that moved since ``old``
        goes straight to its infinity, a stable bound is kept."""
        if old.is_empty():
            return self
        lo = (old.lo if old.lo is not None and self.lo is not None
              and self.lo >= old.lo else None)
        hi = (old.hi if old.hi is not None and self.hi is not None
              and self.hi <= old.hi else None)
        return IntRange(lo, hi, self.is_float or old.is_float)

    # -- arithmetic ------------------------------------------------------

    def _binary(self, other: "IntRange",
                op: Callable[[int, int], int]) -> "IntRange":
        corners = []
        for a in (self.lo, self.hi):
            for b in (other.lo, other.hi):
                if a is None or b is None:
                    return IntRange(None, None,
                                    self.is_float or other.is_float)
                corners.append(op(a, b))
        return IntRange(min(corners), max(corners),
                        self.is_float or other.is_float)

    def add(self, other: "IntRange") -> "IntRange":
        lo = (None if self.lo is None or other.lo is None
              else self.lo + other.lo)
        hi = (None if self.hi is None or other.hi is None
              else self.hi + other.hi)
        return IntRange(lo, hi, self.is_float or other.is_float)

    def sub(self, other: "IntRange") -> "IntRange":
        lo = (None if self.lo is None or other.hi is None
              else self.lo - other.hi)
        hi = (None if self.hi is None or other.lo is None
              else self.hi - other.lo)
        return IntRange(lo, hi, self.is_float or other.is_float)

    def mul(self, other: "IntRange") -> "IntRange":
        if None in (self.lo, self.hi, other.lo, other.hi):
            # Sign-aware unbounded case: nonneg * nonneg stays nonneg.
            if (self.lo is not None and self.lo >= 0
                    and other.lo is not None and other.lo >= 0):
                return IntRange(0, None, self.is_float or other.is_float)
            return IntRange(None, None, self.is_float or other.is_float)
        return self._binary(other, lambda a, b: a * b)

    def neg(self) -> "IntRange":
        return IntRange(None if self.hi is None else -self.hi,
                        None if self.lo is None else -self.lo,
                        self.is_float)


@dataclass(frozen=True)
class IntervalState:
    """Environment + relational facts at one program point.

    ``env`` maps trackable keys (local names and textual ``self.attr``
    spellings) to :class:`IntRange`; ``facts`` is a small must-hold set
    of ``(x, y)`` pairs meaning ``x <= y``.  ``reachable`` is False for
    states on infeasible paths (below everything in the lattice).
    """

    env: tuple = ()
    facts: frozenset = frozenset()
    reachable: bool = True

    def get(self, key: str) -> IntRange:
        for name, rng in self.env:
            if name == key:
                return rng
        return IntRange.top()

    def set(self, key: str, rng: IntRange,
            keep_facts: bool = False) -> "IntervalState":
        env = tuple((name, value) for name, value in self.env
                    if name != key) + ((key, rng),)
        facts = self.facts if keep_facts else frozenset(
            pair for pair in self.facts if key not in pair)
        return IntervalState(env, facts, self.reachable)

    def add_fact(self, low: str, high: str) -> "IntervalState":
        return IntervalState(self.env, self.facts | {(low, high)},
                             self.reachable)


class IntervalAnalysis(DataflowAnalysis[IntervalState]):
    """Forward interval analysis over one function body.

    ``param_ranges`` seeds parameter intervals (interprocedural
    summaries plug in here); ``call_summaries`` maps resolved callee
    qualnames to return ranges; ``validators`` maps callee qualnames to
    ``{param_position: IntRange}`` constraints that hold *after* a
    normal return (derived from ``if p <= 0: raise`` guards).
    ``attr_base`` tracks ``self.attr`` keys textually.
    """

    def __init__(self,
                 param_ranges: Mapping | None = None,
                 call_summaries: Mapping | None = None,
                 validators: Mapping | None = None,
                 resolve: Callable[[ast.Call], str | None] | None = None,
                 ) -> None:
        self.param_ranges = dict(param_ranges or {})
        self.call_summaries = dict(call_summaries or {})
        self.validators = dict(validators or {})
        self.resolve = resolve or (lambda call: None)

    # -- lattice ----------------------------------------------------------

    def boundary(self) -> IntervalState:
        state = IntervalState()
        for name, rng in self.param_ranges.items():
            state = state.set(name, rng)
        return state

    def bottom(self) -> IntervalState:
        return IntervalState(reachable=False)

    def join(self, a: IntervalState, b: IntervalState) -> IntervalState:
        if not a.reachable:
            return b
        if not b.reachable:
            return a
        env_a, env_b = dict(a.env), dict(b.env)
        merged = tuple(
            (key, env_a[key].join(env_b[key]))
            for key in sorted(env_a.keys() & env_b.keys()))
        return IntervalState(merged, a.facts & b.facts, True)

    def widen(self, old: IntervalState,
              new: IntervalState) -> IntervalState:
        if not old.reachable or not new.reachable:
            return new if new.reachable else old
        old_env = dict(old.env)
        widened = tuple(
            (key, rng.widen_against(old_env[key]) if key in old_env else rng)
        for key, rng in new.env)
        return IntervalState(widened, new.facts & old.facts, True)

    # -- expression evaluation ---------------------------------------------

    def key_of(self, expr: ast.expr) -> str | None:
        """The trackable key of an expression, if any."""
        if isinstance(expr, ast.Name):
            return expr.id
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)):
            return f"{expr.value.id}.{expr.attr}"
        return None

    def eval(self, expr: ast.expr, state: IntervalState) -> IntRange:
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, bool):
                return IntRange(int(expr.value), int(expr.value))
            if isinstance(expr.value, int):
                return IntRange.const(expr.value)
            if isinstance(expr.value, float):
                return IntRange.float_top()
            return IntRange.top()
        key = self.key_of(expr)
        if key is not None:
            return state.get(key)
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
            return self.eval(expr.operand, state).neg()
        if isinstance(expr, ast.BinOp):
            left = self.eval(expr.left, state)
            right = self.eval(expr.right, state)
            if isinstance(expr.op, ast.Add):
                return left.add(right)
            if isinstance(expr.op, ast.Sub):
                return left.sub(right)
            if isinstance(expr.op, ast.Mult):
                return left.mul(right)
            if isinstance(expr.op, ast.Div):
                return IntRange.float_top()  # true division is float
            if isinstance(expr.op, ast.FloorDiv):
                if (left.lo is not None and left.lo >= 0
                        and right.lo is not None and right.lo >= 1):
                    return IntRange(0, left.hi,
                                    left.is_float or right.is_float)
                return IntRange(None, None, left.is_float or right.is_float)
            if isinstance(expr.op, ast.Mod):
                if right.lo is not None and right.lo >= 1:
                    hi = None if right.hi is None else right.hi - 1
                    return IntRange(0, hi, left.is_float or right.is_float)
                return IntRange(None, None, left.is_float or right.is_float)
            if isinstance(expr.op, ast.Pow):
                return IntRange(None, None, left.is_float or right.is_float)
            return IntRange.top()
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, state)
        if isinstance(expr, ast.IfExp):
            return self.eval(expr.body, state).join(
                self.eval(expr.orelse, state))
        return IntRange.top()

    def _eval_call(self, call: ast.Call, state: IntervalState) -> IntRange:
        func = call.func
        if isinstance(func, ast.Name) and not call.keywords:
            args = [self.eval(arg, state) for arg in call.args]
            if func.id == "len":
                return IntRange(0, None)
            if func.id == "abs" and len(args) == 1:
                inner = args[0]
                hi = (None if inner.lo is None or inner.hi is None
                      else max(abs(inner.lo), abs(inner.hi)))
                return IntRange(0, hi, inner.is_float)
            if func.id == "max" and args:
                lo = None
                for arg in args:
                    if arg.lo is not None:
                        lo = arg.lo if lo is None else max(lo, arg.lo)
                his = [arg.hi for arg in args]
                hi = None if any(h is None for h in his) else max(his)
                return IntRange(lo, hi, any(a.is_float for a in args))
            if func.id == "min" and args:
                hi = None
                for arg in args:
                    if arg.hi is not None:
                        hi = arg.hi if hi is None else min(hi, arg.hi)
                los = [arg.lo for arg in args]
                lo = None if any(l is None for l in los) else min(los)
                return IntRange(lo, hi, any(a.is_float for a in args))
            if func.id == "int":
                return IntRange.top()
            if func.id == "float":
                return IntRange.float_top()
        qualname = self.resolve(call)
        if qualname is not None and qualname in self.call_summaries:
            return self.call_summaries[qualname]
        return IntRange.top()

    # -- transfer -----------------------------------------------------------

    def transfer(self, block: Block,
                 state: IntervalState) -> IntervalState:
        if not state.reachable:
            return state
        node = block.node
        if node is None:
            return state
        state = self._apply_validators(node, state)
        if isinstance(node, ast.Assign):
            value = self.eval(node.value, state)
            if (len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Tuple)
                    and isinstance(node.value, ast.Tuple)
                    and len(node.targets[0].elts)
                    == len(node.value.elts)):
                for target, elt in zip(node.targets[0].elts,
                                       node.value.elts):
                    key = self.key_of(target)
                    if key is not None:
                        state = state.set(key, self.eval(elt, state))
                return state
            for target in node.targets:
                key = self.key_of(target)
                if key is not None:
                    state = state.set(key, value)
                    source_key = self.key_of(node.value)
                    if source_key is not None:  # x = y  =>  x <= y <= x
                        state = state.add_fact(key, source_key)
                        state = state.add_fact(source_key, key)
            return state
        if isinstance(node, ast.AnnAssign) and node.value is not None:
            key = self.key_of(node.target)
            if key is not None:
                state = state.set(key, self.eval(node.value, state))
            return state
        if isinstance(node, ast.AugAssign):
            key = self.key_of(node.target)
            if key is not None:
                synthetic = ast.BinOp(left=node.target, op=node.op,
                                      right=node.value)
                state = state.set(key, self.eval(synthetic, state))
            return state
        if isinstance(node, (ast.For, ast.AsyncFor)):
            key = self.key_of(node.target)
            if key is not None:
                state = state.set(key, IntRange.top())
            return state
        return state

    def _apply_validators(self, node: ast.AST,
                          state: IntervalState) -> IntervalState:
        """Refine args after calls whose callee validates its params."""
        if not self.validators:
            return state
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            qualname = self.resolve(call)
            if qualname is None:
                continue
            constraints = self.validators.get(qualname)
            if not constraints:
                continue
            for position, required in constraints.items():
                if position >= len(call.args):
                    continue
                key = self.key_of(call.args[position])
                if key is not None:
                    state = state.set(
                        key, state.get(key).meet(required), keep_facts=True)
        return state

    # -- branch refinement -----------------------------------------------

    def refine(self, block: Block, state: IntervalState,
               kind: str) -> IntervalState:
        if not state.reachable or block.node is None:
            return state
        if kind not in (TRUE, FALSE) or not isinstance(block.node, ast.expr):
            return state
        return self._refine_test(block.node, state, kind == TRUE)

    def _refine_test(self, test: ast.expr, state: IntervalState,
                     taken: bool) -> IntervalState:
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return self._refine_test(test.operand, state, not taken)
        if isinstance(test, ast.BoolOp):
            if isinstance(test.op, ast.And) and taken:
                for clause in test.values:  # all clauses hold
                    state = self._refine_test(clause, state, True)
            elif isinstance(test.op, ast.Or) and not taken:
                for clause in test.values:  # all clauses failed
                    state = self._refine_test(clause, state, False)
            return state
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return state
        left, right = test.left, test.comparators[0]
        op = test.ops[0]
        if not taken:
            op = _NEGATED.get(type(op))
            if op is None:
                return state
            op = op()
        return self._refine_compare(left, op, right, state)

    def _refine_compare(self, left: ast.expr, op: ast.cmpop,
                        right: ast.expr,
                        state: IntervalState) -> IntervalState:
        lkey, rkey = self.key_of(left), self.key_of(right)
        lval = self.eval(left, state)
        rval = self.eval(right, state)

        def clamp_hi(rng: IntRange, bound: int | None) -> IntRange:
            return rng if bound is None else rng.meet(IntRange(None, bound))

        def clamp_lo(rng: IntRange, bound: int | None) -> IntRange:
            return rng if bound is None else rng.meet(IntRange(bound, None))

        if isinstance(op, ast.Lt):      # left < right
            if lkey:
                state = state.set(lkey, clamp_hi(
                    lval, None if rval.hi is None else rval.hi - 1),
                    keep_facts=True)
            if rkey:
                state = state.set(rkey, clamp_lo(
                    rval, None if lval.lo is None else lval.lo + 1),
                    keep_facts=True)
            if lkey and rkey:
                state = state.add_fact(lkey, rkey)
        elif isinstance(op, ast.LtE):   # left <= right
            if lkey:
                state = state.set(lkey, clamp_hi(lval, rval.hi),
                                  keep_facts=True)
            if rkey:
                state = state.set(rkey, clamp_lo(rval, lval.lo),
                                  keep_facts=True)
            if lkey and rkey:
                state = state.add_fact(lkey, rkey)
        elif isinstance(op, ast.Gt):    # left > right
            return self._refine_compare(right, ast.Lt(), left, state)
        elif isinstance(op, ast.GtE):   # left >= right
            return self._refine_compare(right, ast.LtE(), left, state)
        elif isinstance(op, ast.Eq):
            met = lval.meet(rval)
            if lkey:
                state = state.set(lkey, met, keep_facts=True)
            if rkey:
                state = state.set(rkey, met, keep_facts=True)
            if lkey and rkey:
                state = state.add_fact(lkey, rkey)
                state = state.add_fact(rkey, lkey)
        elif isinstance(op, ast.NotEq):
            # Only the boundary-exclusion cases are useful: x != 0 with
            # x in [0, hi] tightens to [1, hi].
            if lkey and rval.lo is not None and rval.lo == rval.hi:
                state = state.set(lkey, _exclude(lval, rval.lo),
                                  keep_facts=True)
            if rkey and lval.lo is not None and lval.lo == lval.hi:
                state = state.set(rkey, _exclude(rval, lval.lo),
                                  keep_facts=True)
        return state


_NEGATED = {
    ast.Lt: ast.GtE, ast.LtE: ast.Gt,
    ast.Gt: ast.LtE, ast.GtE: ast.Lt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}


def _exclude(rng: IntRange, value: int) -> IntRange:
    if rng.lo == value:
        return IntRange(value + 1, rng.hi, rng.is_float)
    if rng.hi == value:
        return IntRange(rng.lo, value - 1, rng.is_float)
    return rng
