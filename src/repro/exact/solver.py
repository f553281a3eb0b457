"""The scaled attractor solver behind :func:`minimum_heap_words`.

The naive solver in :mod:`repro.exact.game` materializes every state
tuple and a predecessor ``set`` per node; it stops around ``M = 8``.
This module rebuilds the same computation for scale while keeping every
verdict identical (the differential suite in ``tests/exact`` and the
``solver-parity`` CI step enforce that):

**Canonical states.**  Nodes are explored one per reflection orbit
(:mod:`repro.exact.canonical`): mirroring the heap is the one game
automorphism available, and halves the graph.  The stronger multiset
abstraction the paper's prose suggests is unsound — see the canonical
module's docstring.

**Compact encoding.**  A node is a single interned integer —
``state_code << 7 | tag`` with tag ``0`` for program nodes and
``64 | size`` for manager nodes (budgeted games splice a 7-bit budget
between state and tag).  Adjacency is two flat ``array('q')`` edge
lists; the attractor runs over a reverse CSR, two more ``array('q')``
columns built by one stable counting sort (numpy-accelerated when
available, bit-identical without it).  Each column is released once it
has been read: the edge lists as soon as the CSR exists, the CSR before
the harvest.  No per-node tuples or sets survive exploration.

**Transposition tables.**  Verdicts transfer across heap sizes: a
state the manager can hold at ``H`` words is safe in any larger heap
(ignore the extra words), and a state the program wins at ``H`` is won
in any smaller heap it fits in.  Each solve harvests its full verdict
map into two tables (``safe``: minimum safe ``H``; ``win``: maximum
winning ``H``) and later solves prune whole subgraphs at discovery
time.  Tables are keyed by *unmirrored* encodings of both orientations
because the mirror map itself depends on ``H``.

**Bracketed search.**  ``2^H``-ish node growth means the largest heap
probed dominates the walk, so :meth:`GameSolver.minimum_heap_words`
probes Robson's closed form first (when it is exact — every point
measured so far — the answer costs two solves: one manager win at the
formula value, one program win just below) and falls back to a
galloped bracket plus binary search, every probe sharing the
transposition tables.  The seeded-region idea from the roadmap is
realized by these tables: safe regions flow up the walk, winning
regions flow down.

**One explorer.**  Exploration is level-synchronous BFS in one fused
generate-and-consume loop: every child encoding is a chunk splice on
the parent's packed code and its mirror, consumed as soon as it is
made, so a node that resolves stops generating.  Budgeted games run
the same loop with the budget in the key's middle bits; a manager
node's moves (a cold path over decoded tuples) are consumed before its
placements.  :class:`SolveStats` times three phases — explore (expansion
and discovery interleave per candidate), attractor (reverse CSR plus
attractor) and harvest — outside every digest.
"""

from __future__ import annotations

import time
from array import array
from collections import deque
from dataclasses import dataclass, field

from .canonical import (
    ADDRESS_BITS,
    SEGMENT_BITS,
    check_heap_words,
    decode_state,
    encode_mirror,
    encode_state,
)
from .game import State

__all__ = [
    "GameSolver",
    "SolveReport",
    "SolveStats",
    "solver_ceiling",
    "formula_guess",
]

#: Node-key tag layout: low 7 bits are ``0`` for a program (P) node and
#: ``Q_FLAG | size`` for a manager (Q) node awaiting a placement.
TAG_BITS = 7
Q_FLAG = 1 << 6
SIZE_MASK = Q_FLAG - 1
_CHUNK_MASK = (1 << SEGMENT_BITS) - 1
#: Budgeted games splice the remaining move budget between the state
#: code and the tag, bounding budgets at 127 words.
BUDGET_BITS = 7
MAX_MOVE_BUDGET = (1 << BUDGET_BITS) - 1

# Node status codes.  "Derived" facts are new knowledge harvested into
# the transposition tables; "tt" facts came *from* the tables.
_OPEN = 0
_WIN = 1          # derived winning (attractor / dead end / truncation)
_SAFE_TT = 2      # known safe via the transposition table
_SAFE = 3         # derived safe (manager keeps a safe placement)
_WIN_TT = 4       # known winning via the transposition table


def request_sizes(max_object: int, power_of_two_sizes: bool) -> tuple[int, ...]:
    """The request-size family (mirrors ``GameConfig.sizes``)."""
    if power_of_two_sizes:
        return tuple(
            1 << e for e in range(max_object.bit_length())
            if (1 << e) <= max_object
        )
    return tuple(range(1, max_object + 1))


def solver_ceiling(live_bound: int, max_object: int) -> int:
    """The analytic search ceiling (Robson's bound, rounded up)."""
    log_n = max(1, max_object).bit_length() - 1
    return live_bound * (log_n + 2) + max_object + 1


def formula_guess(live_bound: int, max_object: int) -> int:
    """Robson's closed form ``M (log2 n / 2 + 1) - n + 1``, floored.

    Only a *guess* to aim the bracketed search — correctness never
    depends on it.  Exact at every micro point solved so far.
    """
    log_n = max(1, max_object).bit_length() - 1
    return max(
        live_bound,
        live_bound * (log_n + 2) // 2 - max_object + 1,
    )


# ---------------------------------------------------------------------------
# Budgeted moves (the explorer's cold path)
# ---------------------------------------------------------------------------

def _move_children(
    code: int, heap_words: int, budget: int, size: int, state_shift: int
) -> list[tuple[int, int]]:
    """Every relocation a manager node can pay for before it answers.

    ``(child_key, other_orientation_code)`` per move, in candidate
    order: segments by address, then target addresses ascending.  A
    move keeps the turn (the child is the same ``size`` request) and
    spends the moved size from the budget.  Cold path — budgeted games
    are small — so plain tuples.
    """
    rep = decode_state(code)
    children = []
    for index, (seg_address, seg_size) in enumerate(rep):
        if seg_size > budget:
            continue
        rest = rep[:index] + rep[index + 1:]
        tag = ((budget - seg_size) << TAG_BITS) | Q_FLAG | size
        for target in range(heap_words - seg_size + 1):
            if target == seg_address:
                continue
            if not _fits_sorted(rest, target, seg_size):
                continue
            moved = _insert_sorted(rest, target, seg_size)
            cc = encode_state(moved)
            mm = encode_mirror(moved, heap_words)
            if cc > mm:
                cc, mm = mm, cc
            children.append(((cc << state_shift) | tag, mm))
    return children


def _fits_sorted(state: State, address: int, size: int) -> bool:
    """Overlap test against a sorted segment tuple (bounds pre-checked
    by the caller's target range)."""
    end = address + size
    for seg_address, seg_size in state:
        if seg_address >= end:
            return True
        if address < seg_address + seg_size:
            return False
    return True


def _insert_sorted(state: State, address: int, size: int) -> State:
    """Insert a segment into a sorted tuple, preserving order."""
    for index, (seg_address, _) in enumerate(state):
        if seg_address > address:
            return state[:index] + ((address, size),) + state[index:]
    return state + ((address, size),)


# ---------------------------------------------------------------------------
# Per-solve results
# ---------------------------------------------------------------------------

@dataclass
class SolveStats:
    """Counters from one attractor solve (one heap size)."""

    heap_words: int
    program_wins: bool
    orbits_visited: int = 0
    p_orbits: int = 0
    q_orbits: int = 0
    raw_successors: int = 0
    edges: int = 0
    epochs: int = 0
    frontier_widths: list[int] = field(default_factory=list)
    tt_safe_hits: int = 0
    tt_win_hits: int = 0
    winning_orbits: int = 0
    safe_orbits: int = 0
    wall_seconds: float = 0.0  # lint: float-ok - measurement, not budget
    # Per-phase wall time; like ``wall_seconds``, out of every digest.
    explore_s: float = 0.0  # lint: float-ok - measurement, not budget
    attractor_s: float = 0.0  # lint: float-ok - measurement, not budget
    harvest_s: float = 0.0  # lint: float-ok - measurement, not budget

    @property
    def peak_frontier(self) -> int:
        return max(self.frontier_widths, default=0)

    def as_dict(self) -> dict[str, object]:
        return {
            "heap_words": self.heap_words,
            "program_wins": self.program_wins,
            "orbits_visited": self.orbits_visited,
            "p_orbits": self.p_orbits,
            "q_orbits": self.q_orbits,
            "raw_successors": self.raw_successors,
            "edges": self.edges,
            "epochs": self.epochs,
            "peak_frontier": self.peak_frontier,
            "frontier_widths": list(self.frontier_widths),
            "tt_safe_hits": self.tt_safe_hits,
            "tt_win_hits": self.tt_win_hits,
            "winning_orbits": self.winning_orbits,
            "safe_orbits": self.safe_orbits,
            "wall_seconds": round(self.wall_seconds, 6),
            "explore_s": round(self.explore_s, 6),
            "attractor_s": round(self.attractor_s, 6),
            "harvest_s": round(self.harvest_s, 6),
        }


@dataclass
class SolveReport:
    """One solved heap size, with the tables strategy extraction needs."""

    heap_words: int
    program_wins: bool
    stats: SolveStats
    index: dict[int, int]
    keys: list[int]
    status: bytearray
    rank: list[int] | None
    state_shift: int
    #: True when exploration and attractor ran to completion, so every
    #: node's status is final (strategy extraction requires this);
    #: False when the solve stopped early because the root resolved.
    settled: bool = True

    def node_status(self, key: int) -> int | None:
        node = self.index.get(key)
        return None if node is None else self.status[node]

    def is_winning(self, key: int) -> bool:
        node = self.index.get(key)
        return node is not None and self.status[node] in (_WIN, _WIN_TT)

    def is_explored_safe(self, key: int) -> bool:
        node = self.index.get(key)
        return node is not None and self.status[node] not in (_WIN, _WIN_TT)

    def node_rank(self, key: int) -> int | None:
        if self.rank is None:
            return None
        node = self.index.get(key)
        if node is None:
            return None
        value = self.rank[node]
        return None if value < 0 else value


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------

class GameSolver:
    """Canonical attractor solver for one ``(M, n, family[, budget])``.

    Holds the cross-``H`` transposition tables, so one instance walking
    several heap sizes shares work between them; fresh instances are
    fully independent (the benches construct one per measurement).
    """

    def __init__(
        self,
        live_bound: int,
        max_object: int,
        *,
        power_of_two_sizes: bool = True,
        move_budget: int | None = None,
        use_tt: bool = True,
    ) -> None:
        if live_bound < 1:
            raise ValueError("live_bound must be at least 1")
        if not 1 <= max_object <= live_bound:
            raise ValueError("need 1 <= max_object <= live_bound")
        if max_object > SIZE_MASK:
            raise ValueError(
                f"packed encoding bounds max_object at {SIZE_MASK}"
            )
        if move_budget is not None and not 0 <= move_budget <= MAX_MOVE_BUDGET:
            raise ValueError(
                f"need 0 <= move_budget <= {MAX_MOVE_BUDGET}"
            )
        self.live_bound = live_bound
        self.max_object = max_object
        self.power_of_two_sizes = power_of_two_sizes
        self.move_budget = move_budget
        self.sizes = request_sizes(max_object, power_of_two_sizes)
        self.use_tt = use_tt
        self._state_shift = (
            TAG_BITS if move_budget is None else TAG_BITS + BUDGET_BITS
        )
        #: unmirrored node key -> minimum heap where the manager holds it
        self._safe_tt: dict[int, int] = {}
        #: unmirrored node key -> maximum heap where the program wins it
        self._win_tt: dict[int, int] = {}
        # Verdict watermarks: program wins below, manager wins above.
        self._max_program_win = live_bound - 1
        self._min_manager_win: int | None = None
        self._value: int | None = None
        #: :class:`SolveStats` of every real solve, in order.
        self.history: list[SolveStats] = []

    # -- public API ---------------------------------------------------------

    def program_wins(self, heap_words: int) -> bool:
        """Verdict at one heap size (watermark-cached across calls)."""
        if heap_words <= self._max_program_win:
            return True
        if (self._min_manager_win is not None
                and heap_words >= self._min_manager_win):
            return False
        return self.solve(heap_words).program_wins

    def minimum_heap_words(self, *, search: str = "auto") -> int:
        """The exact game value — least ``H`` where the manager wins.

        ``search`` picks the walk: ``"auto"`` brackets around the
        analytic guess (default), ``"gallop"`` doubles upward from
        ``M`` then bisects, ``"linear"`` replays the naive upward walk.
        All three share the transposition tables and return identical
        values; only the probe sequence (and hence the wall clock)
        differs.
        """
        if self._value is not None:
            return self._value
        if search == "linear":
            value = self._search_linear()
        elif search == "gallop":
            value = self._search_bracket(self.live_bound)
        elif search == "auto":
            value = self._search_bracket(
                min(formula_guess(self.live_bound, self.max_object),
                    self.ceiling())
            )
        else:
            raise ValueError(f"unknown search mode: {search!r}")
        self._value = value
        return value

    def ceiling(self) -> int:
        return solver_ceiling(self.live_bound, self.max_object)

    # -- search strategies --------------------------------------------------

    def _search_linear(self) -> int:
        heap = self.live_bound
        ceiling = self.ceiling()
        while heap <= ceiling:
            if not self.program_wins(heap):
                return heap
            heap += 1
        raise AssertionError(
            "exact search exceeded the analytic ceiling — solver bug"
        )

    def _search_bracket(self, guess: int) -> int:
        """Bracket the game value around ``guess``.

        The guess is probed first: when it is exact (every point
        measured so far), the walk costs one full solve at the guess
        plus one verify solve just below it — and the verify solve is
        truncated by the winning orbits the first solve harvested
        (program wins transfer to smaller heaps, and every placement
        into a known-winning position prunes at discovery).  When the
        guess is off, the gallop/bisection probes keep sharing the
        tables: manager-win solves seed safe facts for the larger
        probes, program-win solves seed winning facts for the smaller
        ones.
        """
        ceiling = self.ceiling()
        if not self.program_wins(guess):
            # Manager wins at the guess; the value is at or below it.
            if guess == self.live_bound or self.program_wins(guess - 1):
                return guess
            low = self.live_bound - 1  # virtual program win below M
            high = guess - 1
        else:
            low = guess
            step = 1
            high = None
            while high is None:
                probe = min(low + step, ceiling)
                if not self.program_wins(probe):
                    high = probe
                elif probe >= ceiling:
                    raise AssertionError(
                        "exact search exceeded the analytic ceiling — "
                        "solver bug"
                    )
                else:
                    low = probe
                    step *= 2
        while high - low > 1:
            mid = (high + low) // 2
            if self.program_wins(mid):
                low = mid
            else:
                high = mid
        return high

    # -- the solve ----------------------------------------------------------

    def solve(
        self,
        heap_words: int,
        *,
        compute_ranks: bool = False,
        use_tt: bool | None = None,
    ) -> SolveReport:
        """Explore the canonical game graph at ``heap_words`` and run
        the full attractor.

        ``compute_ranks`` switches the attractor to FIFO order and
        records per-node attractor ranks (strategy extraction needs
        them); it also disables truncation-by-known-winner so ranks
        match the naive definition.  ``use_tt`` overrides the
        instance-wide setting; extraction solves pass ``False`` so the
        explored graph covers every reachable orbit.
        """
        check_heap_words(heap_words)
        if heap_words < self.live_bound:
            raise ValueError(
                "heap_words below live_bound is trivially unwinnable"
            )
        tt_enabled = self.use_tt if use_tt is None else use_tt
        if compute_ranks:
            tt_enabled = False
        started = time.perf_counter()  # lint: float-ok - wall timing
        heap = heap_words
        shift = self._state_shift
        low_mask = (1 << shift) - 1
        # The budget bits of a key; the base game has none, so every
        # child's ``mid_bits`` is ``0`` there.
        mid_mask = 0 if self.move_budget is None else (
            MAX_MOVE_BUDGET << TAG_BITS
        )
        safe_tt = self._safe_tt
        win_tt = self._win_tt
        sizes = self.sizes
        live_bound = self.live_bound
        move_budget = self.move_budget

        index: dict[int, int] = {}
        keys: list[int] = []
        alts: list[int] = []
        status = bytearray()
        pending: list[int] = []
        edge_src = array("q")
        edge_dst = array("q")
        seeds: list[int] = []
        frontier: list[int] = []

        stats = SolveStats(heap_words=heap, program_wins=False)
        # Tables only fill at harvest, so within one solve the read
        # guard is stable; the first solve skips the lookups entirely.
        tt_read = tt_enabled and bool(safe_tt or win_tt)

        def discover(ckey: int, alt_code: int) -> int:
            # Callers check ``index`` first; this is the miss path.
            state = _OPEN
            if tt_read:
                alt_key = (alt_code << shift) | (ckey & low_mask)
                known = safe_tt.get(ckey)
                if (known is not None and known <= heap) or (
                    alt_key != ckey
                    and (known := safe_tt.get(alt_key)) is not None
                    and known <= heap
                ):
                    state = _SAFE_TT
                    stats.tt_safe_hits += 1
                else:
                    known = win_tt.get(ckey)
                    if (known is not None and known >= heap) or (
                        alt_key != ckey
                        and (known := win_tt.get(alt_key)) is not None
                        and known >= heap
                    ):
                        state = _WIN_TT
                        stats.tt_win_hits += 1
            node = len(keys)
            index[ckey] = node
            keys.append(ckey)
            alts.append(alt_code)
            status.append(state)
            pending.append(0)
            if state == _OPEN:
                frontier.append(node)
            elif state == _WIN_TT:
                seeds.append(node)
            return node

        root_key = (
            0 if move_budget is None else move_budget << TAG_BITS
        )
        discover(root_key, 0)

        # -- exploration: level-synchronous BFS, one fused loop ------------
        # Each candidate is generated and consumed in turn, so a node
        # that resolves stops generating.  Chunks are non-zero, so the
        # segment count falls out of ``bit_length`` and states are
        # peeled without temporary lists; within one gap, consecutive
        # child encodings differ by a constant, so the placement loop
        # steps two cursors instead of re-splicing.
        #
        # Candidates are NOT deduplicated: a duplicate successor adds a
        # duplicate edge, which increments ``alive`` and is decremented
        # once per occurrence by the attractor, so pending counts stay
        # consistent and verdicts are unaffected.  ``raw_successors``
        # counts the candidates actually generated.
        index_get = index.get
        src_append = edge_src.append
        dst_append = edge_dst.append
        seeds_append = seeds.append
        raw_successors = 0
        chunk_bits = SEGMENT_BITS
        addr_bits = ADDRESS_BITS
        settled = True  # exploration + attractor ran to completion
        while frontier:
            if status[0] != _OPEN and not compute_ranks:
                # The root resolved during exploration (possible with
                # warm tables): the verdict is already known, so stop
                # expanding; unsettled statuses are excluded from the
                # harvest below.
                settled = False
                break
            current = frontier
            frontier = []
            stats.epochs += 1
            stats.frontier_widths.append(len(current))
            for node in current:
                key = keys[node]
                code = key >> shift
                mirror = alts[node]
                mid_bits = key & mid_mask
                count = (
                    (code.bit_length() + chunk_bits - 1) // chunk_bits
                )
                if key & Q_FLAG:
                    size = key & SIZE_MASK
                    alive = 0
                    if mid_bits:
                        # Budgeted manager node: moves first, with the
                        # decisions placements get below.
                        moves = _move_children(
                            code, heap, mid_bits >> TAG_BITS, size, shift
                        )
                        raw_successors += len(moves)
                        for ckey, mm in moves:
                            child = index_get(ckey)
                            if child is None:
                                child = discover(ckey, mm)
                            child_status = status[child]
                            if (child_status == _SAFE_TT
                                    or child_status == _SAFE):
                                status[node] = _SAFE
                                alive = -1
                                break
                            if (child_status == _WIN
                                    or child_status == _WIN_TT
                                    ) and not compute_ranks:
                                # Ranks mode keeps the edge: a moved-to
                                # manager node can be a dead end, and Q
                                # ranks follow the naive max-over-
                                # successors definition.
                                continue
                            src_append(node)
                            dst_append(child)
                            alive += 1
                        if alive < 0:
                            continue
                    # Placements, gap by gap: placing at rep position
                    # ``i`` splices a chunk into the code at position
                    # ``i`` and into the mirror code at ``count - i``.
                    mirror_base = ((heap - size) << addr_bits) | size
                    previous_end = 0
                    position = 0
                    remaining = code
                    while True:
                        if position < count:
                            chunk = remaining & _CHUNK_MASK
                            gap_limit = (chunk >> addr_bits) - size
                        else:
                            gap_limit = heap - size
                        if gap_limit >= previous_end:
                            low = position * chunk_bits
                            high = (count - position) * chunk_bits
                            start = previous_end << addr_bits
                            cc_cursor = (
                                (code & ((1 << low) - 1))
                                | ((size + start) << low)
                                | ((code >> low) << (low + chunk_bits))
                            )
                            mm_cursor = (
                                (mirror & ((1 << high) - 1))
                                | ((mirror_base - start) << high)
                                | ((mirror >> high) << (high + chunk_bits))
                            )
                            cc_step = 1 << (low + addr_bits)
                            mm_step = 1 << (high + addr_bits)
                            raw_successors += gap_limit + 1 - previous_end
                            for _ in range(previous_end, gap_limit + 1):
                                cc = cc_cursor
                                mm = mm_cursor
                                cc_cursor += cc_step
                                mm_cursor -= mm_step
                                if cc > mm:
                                    cc, mm = mm, cc
                                ckey = (cc << shift) | mid_bits
                                child = index_get(ckey)
                                if child is None:
                                    child = discover(ckey, mm)
                                child_status = status[child]
                                if (child_status == _SAFE_TT
                                        or child_status == _SAFE):
                                    # Some answer is provably safe:
                                    # this manager node is safe; stop.
                                    status[node] = _SAFE
                                    alive = -1
                                    break
                                if (child_status == _WIN
                                        or child_status == _WIN_TT):
                                    # Known lost placement: skipping
                                    # the edge pre-pays the attractor's
                                    # pending decrement.
                                    continue
                                src_append(node)
                                dst_append(child)
                                alive += 1
                            if alive < 0:
                                break
                        if position == count:
                            break
                        previous_end = (
                            (chunk >> addr_bits) + (chunk & SIZE_MASK)
                        )
                        remaining >>= chunk_bits
                        position += 1
                    if alive == 0:
                        # No answer helps (dead end, or every answer
                        # known winning): the program wins.
                        status[node] = _WIN
                        seeds_append(node)
                    elif alive > 0:
                        pending[node] = alive
                    continue
                # Program node: frees keep the turn, requests hand it
                # over.  Freeing segment ``j`` drops chunk ``j`` of the
                # code and chunk ``count-1-j`` of the mirror code.
                top = (count - 1) * chunk_bits
                truncated = False
                for j in range(count):
                    low = j * chunk_bits
                    cc = (code & ((1 << low) - 1)) | (
                        (code >> (low + chunk_bits)) << low
                    )
                    high = top - low
                    mm = (mirror & ((1 << high) - 1)) | (
                        (mirror >> (high + chunk_bits)) << high
                    )
                    raw_successors += 1
                    if cc > mm:
                        cc, mm = mm, cc
                    ckey = (cc << shift) | mid_bits
                    child = index_get(ckey)
                    if child is None:
                        child = discover(ckey, mm)
                    child_status = status[child]
                    if child_status == _WIN or child_status == _WIN_TT:
                        if not compute_ranks:
                            # Some move is provably winning: this
                            # program node wins; stop.
                            status[node] = _WIN
                            seeds_append(node)
                            truncated = True
                            break
                        src_append(node)
                        dst_append(child)
                    elif (child_status != _SAFE_TT
                          and child_status != _SAFE):
                        src_append(node)
                        dst_append(child)
                if truncated:
                    continue
                live = 0
                remaining = code
                while remaining:
                    live += remaining & SIZE_MASK
                    remaining >>= chunk_bits
                base = key | Q_FLAG
                for size in sizes:
                    if live + size > live_bound:
                        continue
                    ckey = base | size
                    raw_successors += 1
                    child = index_get(ckey)
                    if child is None:
                        child = discover(ckey, mirror)
                    child_status = status[child]
                    if child_status == _WIN or child_status == _WIN_TT:
                        if not compute_ranks:
                            status[node] = _WIN
                            seeds_append(node)
                            break
                        src_append(node)
                        dst_append(child)
                    elif (child_status != _SAFE_TT
                          and child_status != _SAFE):
                        src_append(node)
                        dst_append(child)

        stats.raw_successors = raw_successors
        stats.edges = len(edge_dst)
        explored = time.perf_counter()  # lint: float-ok - wall timing
        stats.explore_s = explored - started  # lint: float-ok - wall timing

        # -- attractor over the reverse CSR --------------------------------
        # Each column goes once read: the edge lists (and the bound
        # appends, which hold them) when the CSR exists, the CSR before
        # the harvest, so the tables never grow while either is live.
        csr = (_reverse_csr(len(keys), edge_src, edge_dst)
               if compute_ranks or settled else None)
        del edge_src, edge_dst, src_append, dst_append
        rank: list[int] | None = None
        if csr is not None:
            if compute_ranks:
                rank = _ranked_attractor(csr, seeds, keys, status, pending)
            elif _attractor(csr, seeds, keys, status, pending):
                # Stopped once the root's verdict settled; the rest
                # would only have enlarged the harvest.
                settled = False
        del csr
        attracted = time.perf_counter()  # lint: float-ok - wall timing
        stats.attractor_s = attracted - explored  # lint: float-ok - wall timing

        # -- harvest verdicts into the transposition tables -----------------
        # After a completed attractor, ``_OPEN`` means the winning
        # region never reached the node: safe, by the greatest-
        # fixpoint reading of the safety game.  After an early exit
        # (``settled`` false) only explicitly derived statuses are
        # sound, so ``_OPEN`` nodes are left out of the harvest.
        wins = status[0] in (_WIN, _WIN_TT)
        stats.program_wins = wins
        stats.orbits_visited = len(keys)
        q_flag = Q_FLAG
        for node, key in enumerate(keys):
            if key & q_flag:
                stats.q_orbits += 1
            else:
                stats.p_orbits += 1
            node_status = status[node]
            if node_status == _WIN:
                stats.winning_orbits += 1
                if tt_enabled:
                    alt_key = (alts[node] << shift) | (key & low_mask)
                    _record(win_tt, key, alt_key, heap, maximum=True)
            elif node_status == _WIN_TT:
                stats.winning_orbits += 1
            elif node_status == _OPEN:
                if settled:
                    stats.safe_orbits += 1
                    if tt_enabled:
                        alt_key = (alts[node] << shift) | (key & low_mask)
                        _record(safe_tt, key, alt_key, heap, maximum=False)
            elif node_status == _SAFE:
                stats.safe_orbits += 1
                if tt_enabled:
                    alt_key = (alts[node] << shift) | (key & low_mask)
                    _record(safe_tt, key, alt_key, heap, maximum=False)
            else:
                stats.safe_orbits += 1

        if wins:
            if heap > self._max_program_win:
                self._max_program_win = heap
        elif (self._min_manager_win is None
              or heap < self._min_manager_win):
            self._min_manager_win = heap
        finished = time.perf_counter()  # lint: float-ok - wall timing
        stats.harvest_s = finished - attracted  # lint: float-ok - wall timing
        stats.wall_seconds = finished - started  # lint: float-ok - wall timing
        self.history.append(stats)
        return SolveReport(
            heap_words=heap,
            program_wins=wins,
            stats=stats,
            index=index,
            keys=keys,
            status=status,
            rank=rank,
            state_shift=shift,
            settled=settled,
        )


def _record(
    table: dict[int, int],
    key: int,
    alt_key: int,
    heap: int,
    *,
    maximum: bool,
) -> None:
    """Record one verdict under both orientations of the node's orbit."""
    known = table.get(key)
    if known is None or (known < heap if maximum else known > heap):
        table[key] = heap
    if alt_key != key:
        known = table.get(alt_key)
        if known is None or (known < heap if maximum else known > heap):
            table[alt_key] = heap


def _attractor(
    csr: "tuple[array[int], array[int]]",
    seeds: list[int],
    keys: list[int],
    status: bytearray,
    pending: list[int],
) -> bool:
    """The program's attractor, depth-first from ``seeds``.

    Marks every node the program can force into the winning region
    ``_WIN``.  Returns True when it stopped early because the root's
    verdict settled (then ``_OPEN`` no longer means safe).
    """
    offsets, rev = csr
    stack = list(seeds)
    while stack:
        node = stack.pop()
        for position in range(offsets[node], offsets[node + 1]):
            pred = rev[position]
            if status[pred] != _OPEN:
                continue
            if keys[pred] & Q_FLAG:
                pending[pred] -= 1
                if pending[pred]:
                    continue
            status[pred] = _WIN
            if pred == 0:
                return True
            stack.append(pred)
    return False


def _ranked_attractor(
    csr: "tuple[array[int], array[int]]",
    seeds: list[int],
    keys: list[int],
    status: bytearray,
    pending: list[int],
) -> list[int]:
    """The full attractor in FIFO order, with each node's rank: the
    round it joined the winning region (``-1`` outside it)."""
    offsets, rev = csr
    rank = [-1] * len(keys)
    for seed in seeds:
        rank[seed] = 0
    queue: deque[int] = deque(seeds)
    while queue:
        node = queue.popleft()
        next_rank = rank[node] + 1
        for position in range(offsets[node], offsets[node + 1]):
            pred = rev[position]
            if status[pred] != _OPEN:
                continue
            if keys[pred] & Q_FLAG:
                pending[pred] -= 1
                if pending[pred]:
                    continue
            status[pred] = _WIN
            rank[pred] = next_rank
            queue.append(pred)
    return rank


def _reverse_csr(
    node_count: int, edge_src: "array[int]", edge_dst: "array[int]"
) -> "tuple[array[int], array[int]]":
    """Predecessor lists in CSR form, grouped by destination.

    Returns ``(offsets, rev)`` as ``array('q')`` columns on both
    backends: node ``v``'s predecessors are
    ``rev[offsets[v]:offsets[v + 1]]``.  Stable in edge-insertion order
    within each destination, so the numpy fast path (stable argsort,
    taken whenever numpy imports) and the pure-Python counting sort (the
    reference, and the numpy-free path) produce identical attractor
    traversals.
    """
    edge_count = len(edge_dst)
    offsets = array("q", [0]) * (node_count + 1)
    rev = array("q", [0]) * edge_count
    if edge_count == 0:
        return offsets, rev
    try:
        import numpy
    except ImportError:
        numpy = None
    if numpy is not None:
        # Written straight into the columns through writable views.
        dst = numpy.frombuffer(edge_dst, dtype=numpy.int64)
        order = numpy.argsort(dst, kind="stable")
        numpy.take(numpy.frombuffer(edge_src, dtype=numpy.int64), order,
                   out=numpy.frombuffer(rev, dtype=numpy.int64))
        numpy.cumsum(numpy.bincount(dst, minlength=node_count),
                     out=numpy.frombuffer(offsets, dtype=numpy.int64)[1:])
        return offsets, rev
    for dst_node in edge_dst:
        offsets[dst_node + 1] += 1
    for position in range(1, node_count + 1):
        offsets[position] += offsets[position - 1]
    cursor = offsets[:-1]
    for src_node, dst_node in zip(edge_src, edge_dst):
        slot = cursor[dst_node]
        rev[slot] = src_node
        cursor[dst_node] = slot + 1
    return offsets, rev
