"""Rectilinear Steiner tree construction for parasitic estimation.

The paper routes placements with an open-source router [25] before
parasitic extraction and SPICE simulation.  Offline we substitute a
classic estimation pipeline: each net is routed as a rectilinear
Steiner tree built by Prim's algorithm on the Manhattan metric followed
by greedy Hanan-point insertion (steinerisation), which typically lands
within a few percent of RSMT length — amply faithful for the monotone
wirelength→parasitics→performance mapping the experiments exercise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SteinerTree:
    """A routed net: points (terminals + added Steiner points) + edges.

    ``edges`` index into ``points``; each edge is realised as an
    L-shape, so its wirelength is the Manhattan distance of its
    endpoints.
    """

    points: np.ndarray  # (m, 2)
    edges: tuple[tuple[int, int], ...]
    num_terminals: int

    @property
    def length(self) -> float:
        """Total rectilinear wirelength."""
        pts = self.points.tolist()
        total = 0.0
        for a, b in self.edges:
            total += abs(pts[a][0] - pts[b][0])
            total += abs(pts[a][1] - pts[b][1])
        return total


def _prim(
    pts: list[tuple[float, float]],
) -> tuple[list[tuple[int, int]], float]:
    """Manhattan minimum spanning tree: ``(edges, length)``.

    Grows from point 0; each step takes the first out-of-tree point
    (in index order) at minimum distance, and a point's parent only
    changes on a strictly shorter distance.  The length sums
    ``|dx|`` then ``|dy|`` edge by edge in the order edges are added.
    """
    m = len(pts)
    if m <= 1:
        return [], 0.0
    x0, y0 = pts[0]
    dist = [abs(x - x0) + abs(y - y0) for x, y in pts]
    parent = [0] * m
    out = list(range(1, m))
    edges: list[tuple[int, int]] = []
    total = 0.0
    while out:
        nxt = min(out, key=dist.__getitem__)
        out.remove(nxt)
        par = parent[nxt]
        edges.append((par, nxt))
        nx, ny = pts[nxt]
        px, py = pts[par]
        total += abs(px - nx)
        total += abs(py - ny)
        for k in out:
            x, y = pts[k]
            d = abs(x - nx) + abs(y - ny)
            if d < dist[k]:
                dist[k] = d
                parent[k] = nxt
    return edges, total


def _canonicalize(terminals: np.ndarray) -> np.ndarray:
    """Bbox-relative coordinates snapped onto a power-of-two grid.

    Translating a point set perturbs coordinates by float rounding
    (~1 ulp), which is enough to flip ``argmin`` and gain tie-breaks
    and change the constructed topology — the translation-variance bug
    from ROADMAP.  Subtracting the bbox origin and snapping to a
    power-of-two quantum (span * 2^-33, exact in binary) collapses
    that noise: translated instances map to bit-identical canonical
    sets, so every downstream comparison resolves identically.
    """
    canon = terminals - terminals.min(axis=0)
    span = float(canon.max()) if canon.size else 0.0
    if span <= 0.0:
        return canon
    quantum = float(2.0 ** (np.ceil(np.log2(span)) - 33.0))
    return np.round(canon / quantum) * quantum


def _exact_coordinates(
    terminals: np.ndarray,
    canon: np.ndarray,
    points: np.ndarray,
    num_terminals: int,
) -> np.ndarray:
    """Map a canonical point set back onto exact input coordinates.

    Every Hanan-grid point reuses an x from one canonical point and a
    y from another, so each canonical coordinate value traces back to
    (at least) one terminal; substituting that terminal's exact
    coordinate reproduces the tree's geometry in the input frame
    without any quantization residue in the reported length.
    """
    exact_x = {float(cx): float(tx)
               for cx, tx in zip(canon[::-1, 0], terminals[::-1, 0])}
    exact_y = {float(cy): float(ty)
               for cy, ty in zip(canon[::-1, 1], terminals[::-1, 1])}
    mapped = np.empty_like(points)
    mapped[:num_terminals] = terminals
    for k in range(num_terminals, len(points)):
        mapped[k, 0] = exact_x[float(points[k, 0])]
        mapped[k, 1] = exact_y[float(points[k, 1])]
    return mapped


def steiner_tree(terminals: np.ndarray) -> SteinerTree:
    """Build a rectilinear Steiner tree over terminal points.

    Starts from the Manhattan MST and greedily inserts the Hanan point
    that shortens the tree the most, until no candidate improves.
    Each round tries every Hanan candidate (the distinct x times the
    distinct y of the current points, at most ``n**2`` for ``n``
    terminals, since inserted points reuse existing coordinates) with
    one scalar Prim over ``m + 1`` points, ``O(m**2)`` each; ``m``
    stays below ``3 * n``.  That is cheap for analog net degrees
    (< 20 pins).

    All topology decisions run in canonical (bbox-relative, quantized)
    coordinates so the result is translation-invariant; the returned
    points carry exact input-frame geometry, and a final guard falls
    back to the plain Manhattan MST if snapping ever made the
    steinerized tree measure longer on the exact coordinates.

    Raises ``ValueError`` if any terminal coordinate is NaN or
    infinite.
    """
    terminals = np.asarray(terminals, dtype=float).reshape(-1, 2)
    bad = int(np.count_nonzero(~np.isfinite(terminals)))
    if bad:
        raise ValueError(
            f"{bad} of {terminals.size} terminal coordinates are "
            f"non-finite (NaN or inf)"
        )
    num_terminals = len(terminals)
    if num_terminals <= 1:
        return SteinerTree(terminals, (), num_terminals)

    canon = _canonicalize(terminals)
    points = [(x, y) for x, y in canon.tolist()]
    edges, length = _prim(points)

    improved = True
    while improved and len(points) < 3 * num_terminals:
        improved = False
        xs = sorted({x for x, _ in points})
        ys = sorted({y for _, y in points})
        existing = set(points)
        best_gain = 1e-9
        best_point: tuple[float, float] | None = None
        for hx in xs:
            for hy in ys:
                if (hx, hy) in existing:
                    continue
                gain = length - _prim(points + [(hx, hy)])[1]
                if gain > best_gain:
                    best_gain = gain
                    best_point = (hx, hy)
        if best_point is not None:
            points.append(best_point)
            edges, length = _prim(points)
            # prune degree-<=1 Steiner points (useless additions)
            degree = [0] * len(points)
            for a, b in edges:
                degree[a] += 1
                degree[b] += 1
            kept = points[:num_terminals] + [
                p for p, d in zip(points[num_terminals:],
                                  degree[num_terminals:]) if d > 1]
            if len(kept) < len(points):
                points = kept
                edges, length = _prim(points)
            improved = True

    exact = _exact_coordinates(terminals, canon, np.array(points),
                               num_terminals)
    tree = SteinerTree(exact, tuple(edges), num_terminals)
    if len(points) > num_terminals:
        mst_edges, mst_length = _prim(
            [(x, y) for x, y in terminals.tolist()])
        if tree.length > mst_length:
            return SteinerTree(terminals, tuple(mst_edges),
                               num_terminals)
    return tree
