"""Numpy reference for :func:`repro.parasitics.steiner_tree`.

This is the array form of the router: each Hanan candidate stacks the
point set into a new array, runs a vectorised Prim (masked ``argmin``,
``np.where`` parent updates) and re-measures the tree edge by edge.
Production runs the same Prim as a scalar loop over a list of
``(x, y)`` floats and returns the length with the edges; both visit
points, break ties and accumulate lengths in the same order, so every
returned ``SteinerTree`` must be bitwise equal to this one.
"""

from __future__ import annotations

import numpy as np

from repro.parasitics import SteinerTree
from repro.parasitics.steiner import _canonicalize, _exact_coordinates


def prim_tree(points: np.ndarray) -> list[tuple[int, int]]:
    """Minimum spanning tree edges under the Manhattan metric."""
    m = len(points)
    if m <= 1:
        return []
    in_tree = np.zeros(m, dtype=bool)
    in_tree[0] = True
    best_dist = (
        np.abs(points[:, 0] - points[0, 0])
        + np.abs(points[:, 1] - points[0, 1])
    )
    best_parent = np.zeros(m, dtype=int)
    edges: list[tuple[int, int]] = []
    for _ in range(m - 1):
        candidates = np.where(~in_tree, best_dist, np.inf)
        nxt = int(np.argmin(candidates))
        edges.append((int(best_parent[nxt]), nxt))
        in_tree[nxt] = True
        dist = (
            np.abs(points[:, 0] - points[nxt, 0])
            + np.abs(points[:, 1] - points[nxt, 1])
        )
        closer = dist < best_dist
        best_dist = np.where(closer, dist, best_dist)
        best_parent = np.where(closer, nxt, best_parent)
    return edges


def tree_length(points: np.ndarray, edges) -> float:
    total = 0.0
    for a, b in edges:
        total += abs(points[a, 0] - points[b, 0])
        total += abs(points[a, 1] - points[b, 1])
    return total


def steiner_tree(terminals: np.ndarray) -> SteinerTree:
    """Prim MST plus greedy Hanan-point insertion, array form."""
    terminals = np.asarray(terminals, dtype=float).reshape(-1, 2)
    num_terminals = len(terminals)
    if num_terminals <= 1:
        return SteinerTree(terminals, (), num_terminals)

    canon = _canonicalize(terminals)
    points = canon.copy()
    edges = prim_tree(points)
    length = tree_length(points, edges)

    improved = True
    while improved and len(points) < 3 * num_terminals:
        improved = False
        xs = np.unique(points[:, 0])
        ys = np.unique(points[:, 1])
        existing = {(float(px), float(py)) for px, py in points}
        best_gain = 1e-9
        best_point = None
        for hx in xs:
            for hy in ys:
                if (float(hx), float(hy)) in existing:
                    continue
                trial = np.vstack([points, [hx, hy]])
                trial_edges = prim_tree(trial)
                trial_len = tree_length(trial, trial_edges)
                gain = length - trial_len
                if gain > best_gain:
                    best_gain = gain
                    best_point = (hx, hy)
        if best_point is not None:
            points = np.vstack([points, best_point])
            edges = prim_tree(points)
            # prune degree-<=1 Steiner points (useless additions)
            degree = np.zeros(len(points), dtype=int)
            for a, b in edges:
                degree[a] += 1
                degree[b] += 1
            keep = np.ones(len(points), dtype=bool)
            for k in range(num_terminals, len(points)):
                if degree[k] <= 1:
                    keep[k] = False
            if not keep.all():
                points = points[keep]
                edges = prim_tree(points)
            length = tree_length(points, edges)
            improved = True

    exact = _exact_coordinates(terminals, canon, points, num_terminals)
    tree = SteinerTree(exact, tuple(edges), num_terminals)
    if len(points) > num_terminals:
        mst_edges = prim_tree(terminals)
        if (tree_length(exact, tree.edges)
                > tree_length(terminals, mst_edges)):
            return SteinerTree(terminals, tuple(mst_edges),
                               num_terminals)
    return tree
