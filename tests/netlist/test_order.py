"""Keyed topological sort and cycle walk over ordering graphs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.netlist.order import find_cycle, topological_order


def _smallest_ready_order(n, edges, keys):
    """Brute-force spec: repeatedly emit the smallest ready node."""
    edges = set(edges)
    left = set(range(n))
    order = []
    while left:
        ready = [v for v in left
                 if not any(a in left and b == v for a, b in edges)]
        if not ready:
            break
        node = min(ready, key=lambda v: (keys[v], v))
        order.append(node)
        left.remove(node)
    return order


def test_smallest_node_first_without_keys():
    # 3 -> 0 forces 3 ahead of 0; 1 and 2 are free
    assert topological_order(4, [(3, 0)]) == [1, 2, 3, 0]


def test_keys_order_ready_nodes_and_ties_break_by_node():
    keys = [(1.0,), (0.0,), (0.0,), (2.0,)]
    assert topological_order(4, [], keys) == [1, 2, 0, 3]
    assert topological_order(4, [(0, 1)], keys) == [2, 0, 1, 3]


def test_repeated_edges_count_once():
    edges = [(0, 1), (0, 1), (0, 1)]
    assert topological_order(2, edges) == [0, 1]


@pytest.mark.parametrize("edges", [[(0, 1), (1, 0)], [(2, 2)],
                                   [(0, 1), (1, 2), (2, 0)]])
def test_cycle_returns_fewer_nodes(edges):
    assert len(topological_order(3, edges)) < 3


@pytest.mark.parametrize("seed", range(40))
def test_random_dags_match_smallest_ready_spec(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    perm = rng.permutation(n).tolist()
    # edges only forward along a hidden permutation: always acyclic
    edges = [(perm[i], perm[j])
             for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.25]
    edges += edges[: len(edges) // 3]  # some repeats
    keys = [(float(rng.integers(0, 3)), float(rng.integers(0, 3)))
            for _ in range(n)]
    order = topological_order(n, edges, keys)
    assert sorted(order) == list(range(n))
    pos = {v: i for i, v in enumerate(order)}
    assert all(pos[a] < pos[b] for a, b in edges)
    assert order == _smallest_ready_order(n, edges, keys)


def test_find_cycle_names_the_nodes_in_walk_order():
    assert find_cycle([("A", "B"), ("B", "C"), ("C", "A")]) == \
        ["A", "B", "C"]
    # the tail into the cycle is not part of it
    assert find_cycle([("X", "A"), ("A", "B"), ("B", "A")]) == ["A", "B"]
    assert find_cycle([("A", "A")]) == ["A"]


def test_find_cycle_none_on_dags():
    assert find_cycle([]) is None
    assert find_cycle([("A", "B"), ("A", "C"), ("B", "C"), ("C", "D")]) \
        is None


@pytest.mark.parametrize("seed", range(40))
def test_find_cycle_returns_a_real_cycle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    edges = [(int(a), int(b)) for a, b in rng.integers(0, n, (n + 2, 2))]
    cycle = find_cycle(edges)
    has_cycle = len(topological_order(n, edges)) < n
    assert (cycle is not None) == has_cycle
    if cycle is not None:
        assert len(set(cycle)) == len(cycle)
        closed = cycle + cycle[:1]
        assert all((a, b) in edges for a, b in zip(closed, closed[1:]))
