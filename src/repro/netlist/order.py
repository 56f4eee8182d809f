"""Ordering graphs: a keyed topological sort and a directed cycle walk.

Ordering chains are tiny directed graphs (a few dozen nodes at most),
so both helpers run on plain dicts and lists.
"""

from __future__ import annotations

import heapq
from collections.abc import Hashable, Iterable, Sequence
from typing import Any


def topological_order(
    n: int,
    edges: Iterable[tuple[int, int]],
    keys: "Sequence[Any] | None" = None,
) -> list[int]:
    """Nodes ``0..n-1`` in an order that respects every edge ``a → b``.

    Kahn's algorithm with a heap of ready nodes: the smallest
    ``(keys[node], node)`` (or ``node`` without keys) goes first, so the
    order is the lexicographically smallest one.  Repeated edges count
    once.  Returns fewer than ``n`` nodes when the edges form a cycle.
    """
    succ: list[list[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for a, b in dict.fromkeys(edges):
        succ[a].append(b)
        indegree[b] += 1
    rank = keys if keys is not None else range(n)
    ready = [(rank[v], v) for v in range(n) if indegree[v] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        _, node = heapq.heappop(ready)
        order.append(node)
        for child in succ[node]:
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(ready, (rank[child], child))
    return order


def find_cycle(
    edges: Iterable[tuple[Hashable, Hashable]],
) -> "list[Hashable] | None":
    """The nodes of one directed cycle in walk order, or ``None``.

    Depth-first walk from each node in first-seen order; the first
    edge back to a node on the current path closes the cycle.
    """
    succ: dict[Hashable, list[Hashable]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
        succ.setdefault(b, [])
    done: set[Hashable] = set()
    for root in succ:
        if root in done:
            continue
        path = [root]
        on_path = {root}
        stack = [iter(succ[root])]
        while stack:
            for nxt in stack[-1]:
                if nxt in on_path:
                    return path[path.index(nxt):]
                if nxt not in done:
                    path.append(nxt)
                    on_path.add(nxt)
                    stack.append(iter(succ[nxt]))
                    break
            else:
                stack.pop()
                node = path.pop()
                on_path.discard(node)
                done.add(node)
    return None
