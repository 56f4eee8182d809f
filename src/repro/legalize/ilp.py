"""Integrated ILP legalization + detailed placement (paper Sec. IV-B).

Implements formulation (4a)-(4j): a single-stage integer linear program
that simultaneously minimises wirelength and area subject to

* net bounding boxes (4b) over pin coordinates with optional device
  flipping (4d),
* the layout outline (4c) with variable width/height,
* pairwise non-overlap with directions fixed from the incoming global
  placement (4e, see :mod:`repro.legalize.pairs`),
* hard symmetry with a free axis per group (4f),
* alignment (4g, 4h) and ordering (4i),
* integral device coordinates on the placement grid (4j).

Solved with HiGHS branch-and-bound through :func:`scipy.optimize.milp`.
As the paper notes, ILP does not scale to digital netlists but the
dozens-of-devices sizes of analog circuits keep it tractable.

Two refinement layers sit on top of the single solve:

* :func:`iterate_directions` — re-derive the separation directions from
  the legal solution and re-solve until a fixpoint; the GP geometry is
  only a heuristic for the direction choice, and a legal placement is a
  better oracle.
* :func:`refine_directions` — large-neighbourhood rounds
  (:func:`lns_rounds`) that *free* the direction decision of a few
  nearby pairs (big-M disjunctions over two binaries per pair) and
  accept improvements.  This exploits the integer programming
  capability the paper's formulation pays for.

:func:`detailed_place` chains all three and is what the end-to-end
ePlace-A flow uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from ..netlist import Axis, Circuit
from ..obs import memory, metrics, trace
from ..obs.log import get_logger
from ..placement import Placement, PlacerResult, summarize
from .consistency import check_consistency
from .pairs import HORIZONTAL, _constraint_overrides, separation_constraints
from .presym import presymmetrize

logger = get_logger("legalize.ilp")

#: default placement grid pitch in µm (matches the testcase generators)
DEFAULT_GRID = 0.1


class DetailedPlacementError(RuntimeError):
    """Raised when the detailed-placement (M)ILP cannot be solved."""


@dataclass
class DetailedParams:
    """Knobs for the ILP detailed placer.

    ``mu`` is the HPWL-area weighting of objective (4a); ``zeta`` the
    chip-area utilisation factor defining the constant pseudo-extents
    :math:`\\tilde W = \\tilde H = \\sqrt{\\sum_i s_i / \\zeta}`.

    ``displacement_weight`` > 0 adds an L1 anchor to the incoming
    global placement (per-axis displacement variables in the
    objective).  Performance-driven flows use it so legalization
    preserves the geometry the performance gradient produced instead of
    re-optimising it away; conventional flows leave it at 0.

    The refinement knobs control :func:`detailed_place`:
    ``iterate_rounds`` fixpoint re-solves, then ``refine_rounds`` LNS
    rounds each freeing ``free_pairs`` of the ``candidate_pool`` nearest
    unconstrained pairs.
    """

    mu: float = 0.3
    zeta: float = 0.6
    grid: float = DEFAULT_GRID
    allow_flipping: bool = True
    time_limit_s: float = 60.0
    region_slack: float = 3.0  # upper coordinate bound as multiple of W~
    iterate_rounds: int = 3
    refine_rounds: int = 6
    free_pairs: int = 10
    candidate_pool: int = 25
    refine_time_limit_s: float = 5.0
    seed: int = 7
    displacement_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.mu < 0:
            raise ValueError("mu must be non-negative")
        if not 0 < self.zeta <= 1:
            raise ValueError("zeta must be in (0, 1]")
        if self.grid <= 0:
            raise ValueError("grid must be positive")


class _Rows:
    """Sparse constraint-row accumulator for scipy's LinearConstraint."""

    def __init__(self) -> None:
        self.data: list[float] = []
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.count = 0

    def add(self, entries: list[tuple[int, float]],
            lb: float, ub: float) -> None:
        for col, val in entries:
            self.rows.append(self.count)
            self.cols.append(col)
            self.data.append(val)
        self.lb.append(lb)
        self.ub.append(ub)
        self.count += 1

    def build(self, num_vars: int) -> LinearConstraint:
        matrix = sparse.coo_matrix(
            (self.data, (self.rows, self.cols)),
            shape=(self.count, num_vars),
        ).tocsr()
        return LinearConstraint(matrix, self.lb, self.ub)


def _steps(value: float, grid: float) -> int:
    """Convert a µm quantity to integer grid steps (must be integral)."""
    steps = value / grid
    rounded = round(steps)
    if abs(steps - rounded) > 1e-6:
        raise DetailedPlacementError(
            f"dimension {value} µm is not a multiple of the {grid} µm grid"
        )
    return int(rounded)


class _Model:
    """Assembled (M)ILP instance: objective, rows, bounds, var layout."""

    __slots__ = ("c", "rows", "lower", "upper", "integrality",
                 "num_vars", "vx", "vy", "vfx", "vfy", "flips",
                 "v_width", "v_height", "free_list")


def _pseudo_steps(circuit: Circuit, params: DetailedParams) -> float:
    """The pseudo-extent ``W~ = sqrt(sum s_i / zeta)`` in grid steps."""
    pseudo = float(np.sqrt(circuit.total_device_area() / params.zeta))
    return pseudo / params.grid


class _Incumbent:
    """What one input placement fixes in every model built from it.

    The presymmetrized snapshot, its separation list and the
    consistency-derived coordinate bound depend only on the placement
    and ``params``, so the LNS rounds from one incumbent build their
    models from one instance.  The bound and its two consistency LPs
    are computed on first use: :func:`iterate_directions` reads the
    separation list for its skip check and needs no LP when the check
    stops it.
    """

    def __init__(self, placement: Placement,
                 params: DetailedParams) -> None:
        self.params = params
        self.snapped = presymmetrize(placement)
        self.separations = separation_constraints(self.snapped)

    @cached_property
    def extents(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Half widths, half heights and the coordinate upper bound,
        all in grid steps.

        Raises :class:`DetailedPlacementError` on odd grid dimensions
        or an inconsistent constraint system.
        """
        circuit = self.snapped.circuit
        params = self.params
        grid = params.grid
        widths_um, heights_um = circuit.sizes()
        half_w = np.array([_steps(w, grid) for w in widths_um])
        half_h = np.array([_steps(h, grid) for h in heights_um])
        if np.any(half_w % 2) or np.any(half_h % 2):
            odd = [circuit.device_names[i] for i in
                   np.nonzero((half_w % 2) | (half_h % 2))[0]]
            raise DetailedPlacementError(
                f"devices {odd} have odd grid dimensions; centre "
                "coordinates would be half-integral"
            )
        half_w //= 2
        half_h //= 2
        pseudo_steps = _pseudo_steps(circuit, params)
        ub_coord = int(np.ceil(params.region_slack * pseudo_steps)) + 1

        # pre-solve consistency certificate: the rows are
        # axis-decoupled, so a per-axis LP decides feasibility exactly
        # and yields the minimal outline extent the derived constraints
        # require.  An inconsistent system fails here with the
        # conflicting rows named; a consistent one widens ub_coord when
        # separation chains (coupled through symmetry axes) need more
        # room than the slack default.
        report_x, report_y = check_consistency(
            circuit, self.separations, half_w, half_h
        )
        bad = [r for r in (report_x, report_y) if not r.feasible]
        if bad:
            detail = "; ".join(
                f"{r.axis}-axis conflict: " + ", ".join(r.conflict)
                for r in bad
            )
            raise DetailedPlacementError(
                f"inconsistent detailed-placement constraints for "
                f"{circuit.name!r}: {detail}"
            )
        needed = max(report_x.min_extent, report_y.min_extent)
        if np.isfinite(needed):
            widened = int(np.ceil(needed)) + 4
            if widened > ub_coord:
                logger.debug(
                    "ILP %s: widening coordinate bound %d -> %d steps "
                    "to fit minimal extents (x %.1f, y %.1f)",
                    circuit.name, ub_coord, widened,
                    report_x.min_extent, report_y.min_extent,
                )
                ub_coord = widened
        return half_w, half_h, ub_coord


def _solve_model(
    placement: Placement,
    params: DetailedParams,
    free_keys: frozenset[tuple[int, int]] = frozenset(),
    time_limit: float | None = None,
    incumbent: "_Incumbent | None" = None,
) -> tuple[Placement, dict]:
    """Build and solve one (M)ILP instance; returns placement + stats.

    ``free_keys`` are device-index pairs whose separation direction and
    order become MILP decisions (four big-M rows over two binaries);
    every other pair keeps the direction derived from ``placement``.
    ``incumbent`` is ``placement``'s :class:`_Incumbent` when the
    caller shares one across solves; it is derived here otherwise.
    """
    circuit = placement.circuit
    n = circuit.num_devices
    grid = params.grid
    with trace.span("legalize.ilp.model", circuit=circuit.name):
        if incumbent is None:
            incumbent = _Incumbent(placement, params)
        m = _build_model(incumbent, free_keys)
    with trace.span("legalize.ilp.solve", num_vars=m.num_vars,
                    num_rows=m.rows.count):
        result = milp(
            m.c,
            constraints=m.rows.build(m.num_vars),
            bounds=Bounds(m.lower, m.upper),
            integrality=m.integrality,
            options={"time_limit": time_limit or params.time_limit_s,
                     "mip_rel_gap": 1e-4},
        )
    metrics.counter("repro.milp_solves").inc()
    if result.x is None:
        logger.info(
            "ILP detailed placement infeasible/unsolved for %s: %s",
            circuit.name, result.message,
        )
        raise DetailedPlacementError(
            f"ILP detailed placement failed for {circuit.name!r}: "
            f"{result.message}"
        )
    logger.debug(
        "ILP %s: status %d, %d vars, %d rows, objective %.4g",
        circuit.name, int(result.status), m.num_vars, m.rows.count,
        float(result.fun),
    )

    x = np.round(result.x[m.vx]) * grid
    y = np.round(result.x[m.vy]) * grid
    if m.flips:
        flip_x = np.round(result.x[m.vfx]).astype(bool)
        flip_y = np.round(result.x[m.vfy]).astype(bool)
    else:
        flip_x = np.zeros(n, dtype=bool)
        flip_y = np.zeros(n, dtype=bool)
    placed = Placement(circuit, x, y, flip_x, flip_y).normalized()
    stats = {
        "objective": float(result.fun),
        "mip_status": int(result.status),
        "num_vars": m.num_vars,
        "num_rows": m.rows.count,
        "freed_pairs": len(m.free_list),
        "outline_w": float(result.x[m.v_width]) * grid,
        "outline_h": float(result.x[m.v_height]) * grid,
    }
    return placed, stats


def _build_model(
    incumbent: _Incumbent,
    free_keys: frozenset[tuple[int, int]],
) -> _Model:
    """Assemble formulation (4a)-(4j) for one placement snapshot."""
    params = incumbent.params
    snapped = incumbent.snapped
    separations = incumbent.separations
    half_w, half_h, ub_coord = incumbent.extents
    circuit = snapped.circuit
    n = circuit.num_devices
    grid = params.grid
    pseudo_steps = _pseudo_steps(circuit, params)

    # ------------------------------------------------------------------
    # variable layout
    # ------------------------------------------------------------------
    num_vars = 0

    def var_block(count: int) -> slice:
        nonlocal num_vars
        block = slice(num_vars, num_vars + count)
        num_vars += count
        return block

    vx = var_block(n)
    vy = var_block(n)
    flips = params.allow_flipping
    vfx = var_block(n) if flips else None
    vfy = var_block(n) if flips else None
    wire_nets = [net for net in circuit.nets if net.degree >= 2]
    nets_lo_x = var_block(len(wire_nets))
    nets_hi_x = var_block(len(wire_nets))
    nets_lo_y = var_block(len(wire_nets))
    nets_hi_y = var_block(len(wire_nets))
    v_width = var_block(1).start
    v_height = var_block(1).start
    groups = circuit.constraints.symmetry_groups
    v_axis = var_block(len(groups))  # 2x axis position per group
    free_list = sorted(free_keys)
    free_index = {key: t for t, key in enumerate(free_list)}
    v_p = var_block(len(free_list))  # direction bit per freed pair
    v_q = var_block(len(free_list))  # order bit per freed pair
    anchored = params.displacement_weight > 0.0
    v_dx = var_block(n) if anchored else None  # |X - X_anchor| slack
    v_dy = var_block(n) if anchored else None

    lower = np.zeros(num_vars)
    upper = np.full(num_vars, float(ub_coord))
    integrality = np.zeros(num_vars)

    lower[vx] = half_w
    lower[vy] = half_h
    upper[vx] = ub_coord - half_w
    upper[vy] = ub_coord - half_h
    integrality[vx] = 1
    integrality[vy] = 1
    if flips:
        upper[vfx] = 1.0
        upper[vfy] = 1.0
        integrality[vfx] = 1
        integrality[vfy] = 1
    lower[v_width] = float(2 * half_w.max())
    lower[v_height] = float(2 * half_h.max())
    integrality[v_width] = 1
    integrality[v_height] = 1
    upper[v_axis] = 2.0 * ub_coord
    integrality[v_axis] = 1
    upper[v_p] = 1.0
    upper[v_q] = 1.0
    integrality[v_p] = 1
    integrality[v_q] = 1

    # ------------------------------------------------------------------
    # objective (4a)
    # ------------------------------------------------------------------
    c = np.zeros(num_vars)
    for k, net in enumerate(wire_nets):
        c[nets_hi_x.start + k] += net.weight
        c[nets_lo_x.start + k] -= net.weight
        c[nets_hi_y.start + k] += net.weight
        c[nets_lo_y.start + k] -= net.weight
    c[v_width] += params.mu * pseudo_steps / 2.0
    c[v_height] += params.mu * pseudo_steps / 2.0
    if anchored:
        c[v_dx] = params.displacement_weight
        c[v_dy] = params.displacement_weight

    # ------------------------------------------------------------------
    # constraints
    # ------------------------------------------------------------------
    rows = _Rows()
    index = circuit.device_index()
    big = np.inf

    # (4b) + (4d): net bounds over (possibly flipped) pin coordinates
    for k, net in enumerate(wire_nets):
        for term in net.terminals:
            i = index[term.device]
            device = circuit.devices[term.device]
            pin = device.pin(term.pin)
            ox = pin.offset_x / grid
            oy = pin.offset_y / grid
            # pin_x = X_i - hw_i + ox + FX_i * (W_i - 2 ox)
            const_x = -half_w[i] + ox
            coeff_fx = (2 * half_w[i]) - 2 * ox
            const_y = -half_h[i] + oy
            coeff_fy = (2 * half_h[i]) - 2 * oy

            lo_x = [(nets_lo_x.start + k, 1.0), (vx.start + i, -1.0)]
            hi_x = [(vx.start + i, 1.0), (nets_hi_x.start + k, -1.0)]
            lo_y = [(nets_lo_y.start + k, 1.0), (vy.start + i, -1.0)]
            hi_y = [(vy.start + i, 1.0), (nets_hi_y.start + k, -1.0)]
            if flips:
                lo_x.append((vfx.start + i, -coeff_fx))
                hi_x.append((vfx.start + i, coeff_fx))
                lo_y.append((vfy.start + i, -coeff_fy))
                hi_y.append((vfy.start + i, coeff_fy))
            rows.add(lo_x, -big, const_x)   # lo - pin <= 0
            rows.add(hi_x, -big, -const_x)  # pin - hi <= 0
            rows.add(lo_y, -big, const_y)
            rows.add(hi_y, -big, -const_y)

    # (4c): outline bounds X_i + hw_i <= W, Y_i + hh_i <= H
    for i in range(n):
        rows.add([(vx.start + i, 1.0), (v_width, -1.0)],
                 -big, -float(half_w[i]))
        rows.add([(vy.start + i, 1.0), (v_height, -1.0)],
                 -big, -float(half_h[i]))

    # (4e) + (4i): pairwise separation; freed pairs get the four-way
    # big-M disjunction over (p, q) = direction, order bits
    big_m = float(2 * ub_coord)
    for sep in separations:
        key = (min(sep.low, sep.high), max(sep.low, sep.high))
        if key in free_index:
            t = free_index[key]
            a, b = key
            gap_x = float(half_w[a] + half_w[b])
            gap_y = float(half_h[a] + half_h[b])
            p = v_p.start + t
            q = v_q.start + t
            # (p,q)=(0,0): a left of b; (0,1): b left of a;
            # (1,0): a below b;        (1,1): b below a
            rows.add([(vx.start + a, 1.0), (vx.start + b, -1.0),
                      (p, -big_m), (q, -big_m)], -big, -gap_x)
            rows.add([(vx.start + b, 1.0), (vx.start + a, -1.0),
                      (p, big_m), (q, -big_m)], -big, -gap_x + big_m)
            rows.add([(vy.start + a, 1.0), (vy.start + b, -1.0),
                      (p, -big_m), (q, big_m)], -big, -gap_y + big_m)
            rows.add([(vy.start + b, 1.0), (vy.start + a, -1.0),
                      (p, big_m), (q, big_m)], -big, -gap_y + 2 * big_m)
            continue
        if sep.direction == HORIZONTAL:
            gap = float(half_w[sep.low] + half_w[sep.high])
            rows.add([(vx.start + sep.low, 1.0),
                      (vx.start + sep.high, -1.0)], -big, -gap)
        else:
            gap = float(half_h[sep.low] + half_h[sep.high])
            rows.add([(vy.start + sep.low, 1.0),
                      (vy.start + sep.high, -1.0)], -big, -gap)

    # (4f): hard symmetry (axis var stores 2x the axis position)
    for g, group in enumerate(groups):
        axis_col = v_axis.start + g
        along, across = (
            (vx, vy) if group.axis is Axis.VERTICAL else (vy, vx)
        )
        for a, b in group.pairs:
            ia, ib = index[a], index[b]
            rows.add([(along.start + ia, 1.0), (along.start + ib, 1.0),
                      (axis_col, -1.0)], 0.0, 0.0)
            rows.add([(across.start + ia, 1.0),
                      (across.start + ib, -1.0)], 0.0, 0.0)
        for s in group.self_symmetric:
            rows.add([(along.start + index[s], 2.0), (axis_col, -1.0)],
                     0.0, 0.0)

    # optional displacement anchor: dx_i >= |X_i - X_anchor,i|
    if anchored:
        ax_steps = snapped.x / grid
        ay_steps = snapped.y / grid
        for i in range(n):
            rows.add([(vx.start + i, 1.0), (v_dx.start + i, -1.0)],
                     -big, float(ax_steps[i]))
            rows.add([(vx.start + i, -1.0), (v_dx.start + i, -1.0)],
                     -big, -float(ax_steps[i]))
            rows.add([(vy.start + i, 1.0), (v_dy.start + i, -1.0)],
                     -big, float(ay_steps[i]))
            rows.add([(vy.start + i, -1.0), (v_dy.start + i, -1.0)],
                     -big, -float(ay_steps[i]))

    # (4g)/(4h): alignment equalities
    for pair in circuit.constraints.alignments:
        ia, ib = index[pair.a], index[pair.b]
        if pair.kind == "bottom":
            delta = float(half_h[ia] - half_h[ib])
            rows.add([(vy.start + ia, 1.0), (vy.start + ib, -1.0)],
                     delta, delta)
        elif pair.kind == "vcenter":
            rows.add([(vx.start + ia, 1.0), (vx.start + ib, -1.0)],
                     0.0, 0.0)
        else:  # hcenter
            rows.add([(vy.start + ia, 1.0), (vy.start + ib, -1.0)],
                     0.0, 0.0)

    model = _Model()
    model.c = c
    model.rows = rows
    model.lower = lower
    model.upper = upper
    model.integrality = integrality
    model.num_vars = num_vars
    model.vx = vx
    model.vy = vy
    model.vfx = vfx
    model.vfy = vfy
    model.flips = flips
    model.v_width = v_width
    model.v_height = v_height
    model.free_list = free_list
    return model


def _score(placement: Placement, params: DetailedParams) -> float:
    """Accept/reject score: weighted HPWL plus the (4a) area term, in µm.

    Computes ``hpwl + mu * W~ * (bw + bh) / 2`` with the net-weighted
    HPWL, the pseudo-extent ``W~`` and the bounding box ``bw x bh``,
    all in µm.  This is *not* proportional to the MILP's objective:
    the MILP states the area term in grid steps (``W~ / grid`` times
    the outline in steps), which weights area ``1 / grid`` times more
    heavily against HPWL, and it uses the outline from the origin
    rather than the bounding box.  A candidate the MILP rates better
    can therefore score worse here.
    """
    m = summarize(placement)
    pseudo = float(np.sqrt(
        placement.circuit.total_device_area() / params.zeta
    ))
    xlo, ylo, xhi, yhi = placement.bounding_box()
    return m["hpwl"] + params.mu * pseudo * (
        (xhi - xlo) + (yhi - ylo)
    ) / 2.0


def ilp_detailed_placement(
    placement: Placement,
    params: DetailedParams | None = None,
) -> PlacerResult:
    """One ILP solve with directions fixed from the input placement."""
    tracer = trace.current()
    clock = trace.Stopwatch()
    params = params or DetailedParams()
    with tracer.span("legalize.ilp",
                     circuit=placement.circuit.name):
        placed, stats = _solve_model(placement, params)
    return PlacerResult(
        placement=placed,
        runtime_s=clock.elapsed(),
        method="ilp-dp",
        stats=stats,
        trace=tracer.to_trace(),
    )


def iterate_directions(
    placement: Placement,
    params: DetailedParams,
) -> tuple[Placement, int]:
    """Re-solve with directions re-derived from each legal solution.

    Stops at a fixpoint (no score improvement) or after
    ``params.iterate_rounds`` rounds; returns the best placement seen,
    the input included (on a tie with the input, the re-solved one),
    and the number of MILPs solved.

    Without a displacement anchor the model depends on the placement
    only through its separation list.  When a solution re-derives the
    list that produced it, the next round would re-solve the same
    model, get the same solution back and stop on the tie; that round
    is skipped, with the tie's result, and not counted in the returned
    rounds (nor in ``stats["iterate_rounds"]``).
    """
    anchored = params.displacement_weight > 0.0
    best = placement
    best_score = np.inf
    rounds = 0
    current = placement
    solved_from = None
    for _ in range(params.iterate_rounds):
        incumbent = _Incumbent(current, params)
        if not anchored:
            if incumbent.separations == solved_from:
                break
            solved_from = incumbent.separations
        current, _ = _solve_model(current, params, incumbent=incumbent)
        rounds += 1
        score = _score(current, params)
        if score >= best_score - 1e-9:
            if score < best_score:
                best, best_score = current, score
            break
        best, best_score = current, score
    if best_score > _score(placement, params):
        return placement, rounds
    return best, rounds


def _nearest_free_pairs(
    placement: Placement,
    pool: int,
    count: int,
    rng: np.random.Generator,
) -> frozenset[tuple[int, int]]:
    """Random ``count`` of the ``pool`` nearest unconstrained pairs."""
    circuit = placement.circuit
    overrides = _constraint_overrides(circuit)
    widths, heights = circuit.sizes()
    x, y = placement.x, placement.y
    n = circuit.num_devices
    scored = []
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in overrides:
                continue
            gap_x = abs(x[i] - x[j]) - (widths[i] + widths[j]) / 2
            gap_y = abs(y[i] - y[j]) - (heights[i] + heights[j]) / 2
            scored.append((max(gap_x, gap_y), (i, j)))
    scored.sort()
    near = [key for _, key in scored[:pool]]
    if not near:
        return frozenset()
    picks = rng.choice(len(near), size=min(count, len(near)),
                       replace=False)
    return frozenset(near[p] for p in picks)


def lns_rounds(
    placement: Placement,
    params: DetailedParams,
    accept: Callable[[Placement], "Placement | None"],
) -> tuple[Placement, int]:
    """Large-neighbourhood rounds over pair directions.

    Each of ``params.refine_rounds`` rounds frees a random
    ``free_pairs`` of the ``candidate_pool`` nearest unconstrained
    pairs of the incumbent (big-M disjunctions, draws seeded by
    ``params.seed``) and re-solves within ``refine_time_limit_s``.
    ``accept(candidate)`` returns the placement to keep as the new
    incumbent, or ``None`` to reject it.  A round whose MILP is
    unsolved keeps the incumbent.  Returns the final incumbent and the
    number of accepted rounds.
    """
    rng = np.random.default_rng(params.seed)
    best = placement
    incumbent = None
    accepted = 0
    for _ in range(params.refine_rounds):
        if incumbent is None:
            incumbent = _Incumbent(best, params)
        freed = _nearest_free_pairs(
            incumbent.snapped, params.candidate_pool,
            params.free_pairs, rng,
        )
        if not freed:
            break
        try:
            candidate, _ = _solve_model(
                best, params, free_keys=freed,
                time_limit=params.refine_time_limit_s,
                incumbent=incumbent,
            )
        except DetailedPlacementError:
            logger.debug(
                "LNS refinement round rejected: freed MILP unsolved "
                "within %.1fs", params.refine_time_limit_s,
            )
            continue
        kept = accept(candidate)
        if kept is not None:
            best = kept
            incumbent = None
            accepted += 1
    return best, accepted


def refine_directions(
    placement: Placement,
    params: DetailedParams,
) -> tuple[Placement, int]:
    """:func:`lns_rounds` accepting strict :func:`_score` improvements.

    Returns the best placement and the number of improving rounds.
    """
    best_score = _score(placement, params)

    def accept(candidate: Placement) -> "Placement | None":
        nonlocal best_score
        score = _score(candidate, params)
        if score < best_score - 1e-9:
            best_score = score
            return candidate
        return None

    return lns_rounds(placement, params, accept)


def detailed_place(
    placement: Placement,
    params: DetailedParams | None = None,
) -> PlacerResult:
    """Full ePlace-A detailed placement: solve, iterate, refine."""
    tracer = trace.current()
    clock = trace.Stopwatch()
    params = params or DetailedParams()
    with tracer.span("legalize.ilp",
                     circuit=placement.circuit.name), \
            memory.phase_peak("legalize.ilp"):
        placed, stats = _solve_model(placement, params)
        if params.iterate_rounds > 1:
            with tracer.span("legalize.ilp.iterate"):
                placed, iterated = iterate_directions(placed, params)
            stats["iterate_rounds"] = iterated
        if params.refine_rounds > 0:
            with tracer.span("legalize.ilp.refine"):
                placed, improved = refine_directions(placed, params)
            stats["refine_improvements"] = improved
        stats["score"] = _score(placed, params)
    logger.info(
        "ILP detailed placement %s: score %.4g, %d vars, %d rows",
        placement.circuit.name, stats["score"], stats["num_vars"],
        stats["num_rows"],
    )
    return PlacerResult(
        placement=placed,
        runtime_s=clock.elapsed(),
        method="ilp-dp",
        stats=stats,
        trace=tracer.to_trace(),
    )
