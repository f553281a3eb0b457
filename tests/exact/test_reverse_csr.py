"""Differential test: the solver's numpy reverse CSR equals the counting sort.

``_reverse_csr`` takes the numpy path whenever numpy imports and the
pure-Python counting sort otherwise; the counting sort is the reference
(and the only path in a numpy-free install).  Both must group edge
sources by destination, stable in edge-insertion order, or the
attractor's traversal — and with it every solve — would differ by
backend.  Both return flat ``array('q')`` columns, the zero-edge case
included; they are compared with the list oracle through ``.tolist()``.
The reference leg runs with ``sys.modules["numpy"] = None``,
which makes ``import numpy`` raise ``ImportError`` inside the function.
"""

from __future__ import annotations

import random
import sys
from array import array

import pytest

from repro.exact.solver import _reverse_csr

pytest.importorskip("numpy")


def _oracle(node_count: int, src: list[int],
            dst: list[int]) -> tuple[list[int], list[int]]:
    """CSR by definition: per destination, its sources in edge order."""
    offsets = [0]
    rev: list[int] = []
    for node in range(node_count):
        rev.extend(s for s, d in zip(src, dst) if d == node)
        offsets.append(len(rev))
    return offsets, rev


def _columns(csr) -> tuple[list[int], list[int]]:
    """Both CSR columns as lists, after checking they are flat."""
    offsets, rev = csr
    assert type(offsets) is array and offsets.typecode == "q"
    assert type(rev) is array and rev.typecode == "q"
    return offsets.tolist(), rev.tolist()


def _both(monkeypatch, node_count: int, src: list[int], dst: list[int]):
    edge_src, edge_dst = array("q", src), array("q", dst)
    fast = _columns(_reverse_csr(node_count, edge_src, edge_dst))
    with monkeypatch.context() as patch:
        patch.setitem(sys.modules, "numpy", None)
        with pytest.raises(ImportError):
            import numpy  # noqa: F401
        reference = _columns(_reverse_csr(node_count, edge_src, edge_dst))
    return fast, reference


def _random_graph(rng: random.Random) -> tuple[int, list[int], list[int]]:
    node_count = rng.randint(1, 40)
    # Edges draw from a prefix of the nodes, so the tail stays isolated;
    # drawing with replacement repeats edges.
    used = rng.randint(1, node_count)
    edge_count = rng.choice((0, 1, rng.randint(2, 120)))
    src = [rng.randrange(used) for _ in range(edge_count)]
    dst = [rng.randrange(used) for _ in range(edge_count)]
    return node_count, src, dst


@pytest.mark.parametrize("node_count, src, dst", [
    (0, [], []),
    (5, [], []),
    (3, [0, 0, 0], [1, 1, 1]),
    (6, [2, 0, 1], [4, 4, 4]),
    (4, [3, 2, 3], [3, 0, 3]),
], ids=["no-nodes", "no-edges", "duplicate-edges", "insertion-order",
        "self-loops-and-isolated"])
def test_edge_cases_match(monkeypatch, node_count, src, dst):
    fast, reference = _both(monkeypatch, node_count, src, dst)
    assert fast == reference == _oracle(node_count, src, dst)


def test_random_edge_lists_match(monkeypatch):
    rng = random.Random(20261018)
    for _ in range(300):
        node_count, src, dst = _random_graph(rng)
        fast, reference = _both(monkeypatch, node_count, src, dst)
        assert fast == reference, (node_count, src, dst)
        assert reference == _oracle(node_count, src, dst)
