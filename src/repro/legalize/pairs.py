"""Pairwise separation directions derived from a global placement.

The ILP/LP detailed placers remove overlap with *linear* constraints by
fixing, per device pair, a separation direction and relative order taken
from the global-placement geometry (paper Fig. 4a): a pair overlapping
with :math:`\\Delta x < \\Delta y` separates horizontally in its current
x-order, otherwise vertically.  We extend the same rule to
non-overlapping pairs (direction of the larger existing gap) so the
solvers cannot re-introduce overlap while compacting — the paper only
discusses the overlapping set :math:`P^H`, but without constraints on
the remaining pairs a compaction step would collide them.

Constraint-implied directions override the geometric rule:

* symmetric pairs share a y (vertical axis), so they must separate
  horizontally (mirrored groups for a horizontal axis);
* vertical-centre-aligned pairs share an x, so they separate vertically;
* bottom/horizontal-centre-aligned pairs separate horizontally;
* ordering-chain neighbours keep the chain's direction and order.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..netlist import Axis
from ..netlist.order import topological_order
from ..placement import Placement

HORIZONTAL = "h"
VERTICAL = "v"


@dataclass(frozen=True)
class SeparationConstraint:
    """``low`` must end left of (or below) ``high`` along ``direction``."""

    low: int
    high: int
    direction: str


def _constraint_overrides(
    circuit,
) -> dict[tuple[int, int], tuple[str, tuple[int, int] | None]]:
    """Directions (and possibly orders) forced by constraint semantics.

    Values are ``(direction, order)`` where ``order`` is a mandatory
    ``(low, high)`` index pair, or ``None`` when the order may follow
    the global-placement geometry.
    """
    index = circuit.device_index()
    overrides: dict[tuple[int, int], tuple[str, tuple[int, int] | None]] = {}

    def put(a: int, b: int, direction: str,
            order: tuple[int, int] | None = None) -> None:
        overrides[(min(a, b), max(a, b))] = (direction, order)

    for group in circuit.constraints.symmetry_groups:
        direction = (
            HORIZONTAL if group.axis is Axis.VERTICAL else VERTICAL
        )
        for a, b in group.pairs:
            put(index[a], index[b], direction)
        # every *other* pair of group members separates along the axis
        # direction (rows of a vertical-axis island stack vertically):
        # a separation along the mirror normal would couple through the
        # shared axis variable — e.g. with pairs (a0,b0), (a1,b1)
        # mirrored about y-axis value T, demanding a0 below b1 AND b0
        # above a1 bounds T from both sides and can be infeasible
        stack = VERTICAL if group.axis is Axis.VERTICAL else HORIZONTAL
        members = [index[d] for d in group.devices]
        mirrored = {frozenset((index[a], index[b]))
                    for a, b in group.pairs}
        for pos, a in enumerate(members):
            for b in members[pos + 1:]:
                if frozenset((a, b)) in mirrored:
                    continue
                put(a, b, stack)
    for pair in circuit.constraints.alignments:
        ia, ib = index[pair.a], index[pair.b]
        if pair.kind == "vcenter":
            put(ia, ib, VERTICAL)
        else:  # bottom or hcenter: same row, so side by side
            put(ia, ib, HORIZONTAL)
    # ordering chains force both direction and order, so they are
    # applied last and win over any earlier entry; every pair within a
    # chain (not just consecutive ones) is fixed, otherwise a
    # geometry-derived order between distant chain members could
    # contradict the chain's transitive order
    for chain in circuit.constraints.orderings:
        direction = (
            HORIZONTAL if chain.axis is Axis.VERTICAL else VERTICAL
        )
        for pos, left in enumerate(chain.devices):
            for right in chain.devices[pos + 1:]:
                put(index[left], index[right], direction,
                    order=(index[left], index[right]))
    return overrides


def _equality_classes(circuit) -> tuple[list[int], list[int]]:
    """Union-find representatives of coordinate-equality classes.

    Devices whose x (resp. y) centres are *forced equal* by a hard
    constraint — vertical-centre alignment pairs and horizontal-axis
    symmetry pairs for x; horizontal-centre alignment pairs,
    equal-height bottom alignments and vertical-axis symmetry pairs for
    y — must break coordinate ties identically against any third
    device, or the derived orders contradict the equality (e.g. a tied
    device ordered strictly *between* two devices that share an x).
    """
    n = circuit.num_devices
    index = circuit.device_index()
    parent_x = list(range(n))
    parent_y = list(range(n))

    def find(parent: list[int], a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(parent: list[int], a: int, b: int) -> None:
        ra, rb = find(parent, a), find(parent, b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for group in circuit.constraints.symmetry_groups:
        parent = parent_y if group.axis is Axis.VERTICAL else parent_x
        for a, b in group.pairs:
            union(parent, index[a], index[b])
    for pair in circuit.constraints.alignments:
        ia, ib = index[pair.a], index[pair.b]
        if pair.kind == "vcenter":
            union(parent_x, ia, ib)
        elif pair.kind == "hcenter":
            union(parent_y, ia, ib)
        else:
            # bottom alignment couples the y-interval start exactly;
            # the pair must be rank-adjacent regardless of heights
            union(parent_y, ia, ib)
    return ([find(parent_x, i) for i in range(n)],
            [find(parent_y, i) for i in range(n)])


def _global_rank(
    n: int,
    keys: list[tuple],
    forced_edges: list[tuple[int, int]],
) -> list[int]:
    """Total device order respecting forced edges, keyed by geometry.

    A topological sort over the ordering-chain edges with the
    geometric key as tie-priority yields one global order per axis, so
    *every* derived pairwise order is transitively consistent — a
    per-pair decision could cycle (chain forces F5<F10, geometry says
    F10<F6<F5).
    """
    order = topological_order(n, forced_edges, keys)
    if len(order) < n:
        raise ValueError(
            "ordering chains are cyclic; no placement can satisfy them"
        )
    rank = [0] * n
    for position, node in enumerate(order):
        rank[node] = position
    return rank


def separation_constraints(
    placement: Placement,
) -> list[SeparationConstraint]:
    """One separation constraint per device pair, from GP geometry."""
    circuit = placement.circuit
    n = circuit.num_devices
    x, y = placement.x, placement.y
    widths, heights = circuit.sizes()
    overrides = _constraint_overrides(circuit)
    class_x, class_y = _equality_classes(circuit)
    index = circuit.device_index()

    # one global total order per axis: geometric keys (ties broken by
    # coordinate-equality class, then index) + ordering-chain edges
    forced_x: list[tuple[int, int]] = []
    forced_y: list[tuple[int, int]] = []
    for chain in circuit.constraints.orderings:
        edges = [(index[a], index[b]) for a, b in chain.pairs]
        (forced_x if chain.axis is Axis.VERTICAL else forced_y).extend(
            edges)
    # rank keys anchor at the *shared* coordinate of each equality
    # class (bottom edge for bottom-aligned devices), so no third
    # device can rank strictly between two coupled devices — a device
    # ordered "between" them would face contradictory separations
    anchor_y = y.astype(float).copy()
    for pair in circuit.constraints.alignments:
        if pair.kind == "bottom":
            for name in (pair.a, pair.b):
                k = index[name]
                anchor_y[k] = y[k] - heights[k] / 2.0
    keys_x = [(x[i], class_x[i], i) for i in range(n)]
    keys_y = [(anchor_y[i], class_y[i], i) for i in range(n)]
    rank_x = _global_rank(n, keys_x, forced_x)
    rank_y = _global_rank(n, keys_y, forced_y)

    out: list[SeparationConstraint] = []
    for i in range(n):
        for j in range(i + 1, n):
            # gaps are negative when the pair overlaps on that axis
            gap_x = abs(x[i] - x[j]) - (widths[i] + widths[j]) / 2
            gap_y = abs(y[i] - y[j]) - (heights[i] + heights[j]) / 2
            direction, order = overrides.get((i, j), (None, None))
            if direction is None:
                direction = HORIZONTAL if gap_x >= gap_y else VERTICAL
            if order is not None:
                low, high = order
            elif direction == HORIZONTAL:
                low, high = (i, j) if rank_x[i] < rank_x[j] else (j, i)
            else:
                low, high = (i, j) if rank_y[i] < rank_y[j] else (j, i)
            out.append(SeparationConstraint(low, high, direction))
    return out
