"""Simulated-annealing analog placer (the paper's comparison baseline).

Sequence-pair floorplanning over symmetry islands and free devices with
a classic Metropolis schedule.  The cost is the same area + wirelength
mix the analytical flows optimise (optionally plus a performance model
term, the ``Perf`` arm of Table V); symmetry and alignment come out
exact by construction — islands pin mirrored pairs to a common axis, and
alignment pairs are fused into rigid blocks.

Moves: swap two blocks in one or both sequences, toggle a free device's
flip, permute an island's row order, and mirror an entire island.

Cost evaluation is incremental (:mod:`repro.annealing.incremental`):
per-net bounding-box spans and per-block geometry are cached between
moves and only the nets touched by a move are re-evaluated, with a
periodic full-recompute audit guarding the cache.  The incremental
arithmetic uses the same expressions as the from-scratch audit, so the
cache stays bitwise-consistent; runs are deterministic per seed (all
randomness comes from one batched ``numpy`` Generator stream, drawn a
temperature stage at a time).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..analytic import NetArrays
from ..netlist import Axis, Circuit
from ..netlist.order import topological_order
from ..obs import diagnose, emit, memory, metrics, trace
from ..obs.log import get_logger
from ..placement import Placement, PlacerResult

logger = get_logger("annealing")
from .incremental import IncrementalCostEvaluator, realize_placement
from .islands import (
    Block,
    build_blocks,
    fuse_alignment_blocks,
    reorder_island,
)
from .seqpair import SequencePair

#: optional extra cost hook: maps a candidate Placement to a scalar
CostHook = Callable[[Placement], float]


@dataclass
class SAParams:
    """Annealing schedule and cost weighting.

    ``area_weight`` mixes normalised area into the normalised-HPWL cost
    (the knob swept for the paper's Fig. 5 trade-off curve); ``perf_weight``
    scales the optional performance hook (Table V's ``Perf`` arm).
    ``audit_interval`` is the number of *accepted* moves between full
    cost recomputes that assert the incremental cache has not drifted
    (0 disables the audit; see docs/PERFORMANCE.md).  ``polish_evals``
    bounds the deterministic greedy-descent refinement run on the best
    state after the Metropolis schedule ends (0 disables it).
    """

    iterations: int = 20000
    seed: int = 1
    area_weight: float = 1.0
    perf_weight: float = 0.0
    t_start_factor: float = 1.0
    t_end_ratio: float = 1e-3
    moves_per_temp: int = 40
    audit_interval: int = 1000
    polish_evals: int = 2000

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if self.area_weight < 0 or self.perf_weight < 0:
            raise ValueError("weights must be non-negative")
        if self.audit_interval < 0:
            raise ValueError("audit_interval must be non-negative")
        if self.polish_evals < 0:
            raise ValueError("polish_evals must be non-negative")


class _State:
    """Lightweight annealing state: sequence pair + block configuration.

    Geometry caches (packed origins, device coordinates, net spans)
    live in the :class:`IncrementalCostEvaluator`, not here, so copying
    a state is two small list copies and a dict copy.
    """

    __slots__ = ("circuit", "blocks", "pair", "free_flips")

    def __init__(self, circuit: Circuit, blocks: list[Block],
                 pair: SequencePair):
        self.circuit = circuit
        self.blocks = blocks
        self.pair = pair
        self.free_flips: dict[int, tuple[bool, bool]] = {}

    def copy(self) -> "_State":
        out = _State(self.circuit, list(self.blocks), self.pair.copy())
        out.free_flips = dict(self.free_flips)
        return out

    def realize(self) -> Placement:
        """Pack the sequence pair and emit absolute device placement."""
        return realize_placement(
            self.circuit, self.blocks, self.pair, self.free_flips
        )


class SimulatedAnnealingPlacer:
    """End-to-end SA placement for one circuit."""

    def __init__(
        self,
        circuit: Circuit,
        params: SAParams | None = None,
        cost_hook: CostHook | None = None,
    ) -> None:
        circuit.validate()
        self.circuit = circuit
        self.params = params or SAParams()
        self.cost_hook = cost_hook
        self.arrays = NetArrays(circuit)
        self.widths, self.heights = circuit.sizes()
        # normalisers so HPWL and area enter the cost at similar scales
        side = float(np.sqrt(circuit.total_device_area()))
        self._area_norm = side * side
        self._hpwl_norm = max(side * self.arrays.num_nets, 1e-9)

    def _evaluator(self) -> IncrementalCostEvaluator:
        return IncrementalCostEvaluator(
            self.circuit,
            self.arrays,
            self.widths,
            self.heights,
            area_weight=self.params.area_weight,
            hpwl_norm=self._hpwl_norm,
            area_norm=self._area_norm,
            perf_weight=self.params.perf_weight,
            cost_hook=self.cost_hook,
        )

    # ------------------------------------------------------------------
    def _cost(self, placement: Placement) -> float:
        """From-scratch reference cost of an arbitrary placement.

        The hot path goes through :class:`IncrementalCostEvaluator`;
        this remains for tests and external callers evaluating
        placements that did not come from the move loop.
        """
        x, y = placement.x, placement.y
        sign_x = np.where(placement.flip_x, -1.0, 1.0)
        sign_y = np.where(placement.flip_y, -1.0, 1.0)
        arrays = self.arrays
        px = x[arrays.pin_dev] + arrays.pin_offx * sign_x[arrays.pin_dev]
        py = y[arrays.pin_dev] + arrays.pin_offy * sign_y[arrays.pin_dev]
        spans = (
            arrays.segment_max(px) - arrays.segment_min(px)
            + arrays.segment_max(py) - arrays.segment_min(py)
        )
        hpwl = float(np.dot(arrays.weights, spans))
        w = (x + self.widths / 2).max() - (x - self.widths / 2).min()
        h = (y + self.heights / 2).max() - (y - self.heights / 2).min()
        cost = (
            hpwl / self._hpwl_norm
            + self.params.area_weight * (w * h) / self._area_norm
        )
        if self.cost_hook is not None and self.params.perf_weight > 0:
            cost += self.params.perf_weight * self.cost_hook(placement)
        return cost

    # ------------------------------------------------------------------
    def _propose(
        self, state: _State, u: "list[float]"
    ) -> tuple[_State, "int | None"]:
        """One random move driven by a pre-drawn uniform 5-tuple.

        Uniforms are batched per temperature stage (one Generator call)
        rather than drawn per move — Generator call overhead dominates
        the move loop otherwise.  Returns the candidate state plus the
        index of the block whose internal geometry changed (``None``
        for pure sequence moves).  The candidate copies only the part
        the move changes and shares the rest with ``state``: no state
        is ever mutated after it is built.
        """
        blocks, pair, free_flips = state.blocks, state.pair, state.free_flips
        nb = len(blocks)
        touched: "int | None" = None
        move = min(int(u[0] * 5.0), 4)
        if move <= 2 and nb >= 2:
            i = min(int(u[1] * nb), nb - 1)
            j = min(int(u[2] * (nb - 1)), nb - 2)
            if j >= i:
                j += 1
            pair = pair.copy()
            seqs = (
                (pair.plus, pair.minus)
                if move == 2
                else (pair.plus if move == 0 else pair.minus,)
            )
            for seq in seqs:
                pi, pj = seq.index(i), seq.index(j)
                seq[pi], seq[pj] = seq[pj], seq[pi]
        elif move == 3:
            k = min(int(u[1] * nb), nb - 1)
            block = blocks[k]
            fx, fy = free_flips.get(k, (False, False))
            if u[2] < 0.5 and block.allow_flip_x:
                fx = not fx
            elif block.allow_flip_y:
                fy = not fy
            free_flips = dict(free_flips)
            free_flips[k] = (fx, fy)
            touched = k
        elif move == 4 and self._islands:
            islands = self._islands
            k = islands[min(int(u[1] * len(islands)), len(islands) - 1)]
            order = list(blocks[k].row_order)
            m = len(order)
            a = min(int(u[2] * m), m - 1)
            b = min(int(u[3] * (m - 1)), m - 2)
            if b >= a:
                b += 1
            order[a], order[b] = order[b], order[a]
            # island layout is a pure function of (group, row order)
            # and orders recur constantly at SA scale — memoize
            key = (k, tuple(order))
            block = self._reorder_cache.get(key)
            if block is None:
                block = reorder_island(self.circuit, blocks[k], order)
                self._reorder_cache[key] = block
            blocks = list(blocks)
            blocks[k] = block
            touched = k
        new = _State(self.circuit, blocks, pair)
        new.free_flips = free_flips
        return new, touched

    # ------------------------------------------------------------------
    def _enumerate_moves(self, state: _State):
        """Deterministic move neighbourhood of ``state`` (for polish).

        Yields ``(candidate, touched)`` pairs: every whole-block flip,
        every island row transposition, then every pairwise swap in one
        or both sequences — cheap geometry-only moves first.
        """
        nb = len(state.blocks)
        for k, block in enumerate(state.blocks):
            for flip_x in (True, False):
                if flip_x and not block.allow_flip_x:
                    continue
                if not flip_x and not block.allow_flip_y:
                    continue
                new = state.copy()
                fx, fy = new.free_flips.get(k, (False, False))
                new.free_flips[k] = (
                    (not fx, fy) if flip_x else (fx, not fy)
                )
                yield new, k
        for k in self._islands:
            order0 = state.blocks[k].row_order
            m = len(order0)
            for a in range(m):
                for b in range(a + 1, m):
                    order = list(order0)
                    order[a], order[b] = order[b], order[a]
                    key = (k, tuple(order))
                    block = self._reorder_cache.get(key)
                    if block is None:
                        block = reorder_island(
                            self.circuit, state.blocks[k], order
                        )
                        self._reorder_cache[key] = block
                    new = state.copy()
                    new.blocks[k] = block
                    yield new, k
        for i in range(nb):
            for j in range(i + 1, nb):
                for which in (0, 1, 2):
                    new = state.copy()
                    seqs = (
                        (new.pair.plus, new.pair.minus) if which == 2
                        else (new.pair.plus,) if which == 0
                        else (new.pair.minus,)
                    )
                    for seq in seqs:
                        pi, pj = seq.index(i), seq.index(j)
                        seq[pi], seq[pj] = seq[pj], seq[pi]
                    yield new, None

    def _descend(
        self,
        state: _State,
        cost: float,
        evaluator: IncrementalCostEvaluator,
        budget: int,
    ) -> tuple[_State, float, int]:
        """First-improvement greedy descent to a local optimum.

        Rescans the move neighbourhood after every accepted move;
        stops at a local optimum or when ``budget`` runs out.  The
        evaluator must currently track ``state``.
        """
        evals = 0
        improved = True
        while improved and evals < budget:
            improved = False
            for cand, touched in self._enumerate_moves(state):
                if touched is None and self._chains and \
                        not self._chains_ok(cand.pair, self._chains):
                    continue
                cand_cost = evaluator.propose(
                    cand.blocks, cand.pair, cand.free_flips, touched
                )
                evals += 1
                if cand_cost < cost:
                    evaluator.commit()
                    state, cost = cand, cand_cost
                    improved = True
                    break
                if evals >= budget:
                    break
        return state, cost, evals

    #: random perturbation moves applied between polish descents
    _KICK_MOVES = 3

    def _polish(
        self,
        state: _State,
        cost: float,
        evaluator: IncrementalCostEvaluator,
        max_evals: int,
        rng: np.random.Generator,
    ) -> tuple[_State, float, int]:
        """Iterated local search from the annealed best state.

        Greedy descent to a local optimum, then repeated kick-and-
        descend rounds (a few random moves off the best state, then
        descent again), keeping the best state seen.  Deterministic
        per seed — the kicks draw from the same batched Generator
        stream as the Metropolis schedule — and bounded by
        ``max_evals`` cost evaluations in total.
        """
        evaluator.reset(state.blocks, state.pair, state.free_flips)
        used = 0
        state, cost, evals = self._descend(
            state, cost, evaluator, max_evals
        )
        used += evals
        best_state, best_cost = state, cost
        while used < max_evals:
            # kick: a few unconditional random moves off the best state
            state, cost = best_state, best_cost
            evaluator.reset(state.blocks, state.pair, state.free_flips)
            for u in rng.random((self._KICK_MOVES, 5)).tolist():
                used += 1  # count attempts so filtered kicks still
                cand, touched = self._propose(state, u)  # make progress
                if touched is None and self._chains and \
                        not self._chains_ok(cand.pair, self._chains):
                    continue
                cost = evaluator.propose(
                    cand.blocks, cand.pair, cand.free_flips, touched
                )
                evaluator.commit()
                state = cand
            state, cost, evals = self._descend(
                state, cost, evaluator, max_evals - used
            )
            used += evals
            if cost < best_cost:
                best_state, best_cost = state, cost
        # leave the evaluator tracking the returned state so the
        # caller's closing audit matches
        evaluator.reset(
            best_state.blocks, best_state.pair, best_state.free_flips
        )
        return best_state, best_cost, used

    # ------------------------------------------------------------------
    def _compile_chains(self, blocks: list[Block]) -> list[tuple]:
        """Ordering chains mapped to block-index sequences."""
        index = self.circuit.device_index()
        by_device = {}
        for k, block in enumerate(blocks):
            for dev in block.device_indices:
                by_device[dev] = k
        chains = []
        for chain in self.circuit.constraints.orderings:
            block_seq: list[int] = []
            for name in chain.devices:
                k = by_device[index[name]]
                if not block_seq or block_seq[-1] != k:
                    block_seq.append(k)
            if len(block_seq) >= 2:
                chains.append((tuple(block_seq), chain.axis))
        return chains

    def _chains_ok(self, pair: SequencePair, chains) -> bool:
        """True when every chain's blocks keep their mandated relation.

        For a horizontal chain (``Axis.VERTICAL`` ordering) consecutive
        blocks must be left-of each other, i.e. ordered in both
        sequences; a vertical chain needs below-of: reversed in ``s+``,
        ordered in ``s-``.
        """
        nb = len(pair.plus)
        pos_plus = [0] * nb
        pos_minus = [0] * nb
        for i, b in enumerate(pair.plus):
            pos_plus[b] = i
        for i, b in enumerate(pair.minus):
            pos_minus[b] = i
        for block_seq, axis in chains:
            for a, b in zip(block_seq, block_seq[1:]):
                if pos_minus[a] >= pos_minus[b]:
                    return False
                if axis is Axis.VERTICAL:
                    if pos_plus[a] >= pos_plus[b]:
                        return False
                else:
                    if pos_plus[a] <= pos_plus[b]:
                        return False
        return True

    def _initial_pair(self, nb: int) -> SequencePair:
        """Chain-feasible starting sequences via topological sort."""
        edges_plus: list[tuple[int, int]] = []
        edges_minus: list[tuple[int, int]] = []
        for block_seq, axis in self._chains:
            for a, b in zip(block_seq, block_seq[1:]):
                edges_minus.append((a, b))
                edges_plus.append((a, b) if axis is Axis.VERTICAL else (b, a))
        plus = topological_order(nb, edges_plus)
        minus = topological_order(nb, edges_minus)
        if len(plus) < nb or len(minus) < nb:
            raise RuntimeError("ordering chains are cyclic at block level")
        return SequencePair(plus, minus)

    def place(self) -> PlacerResult:
        tracer = trace.current()
        clock = trace.Stopwatch()
        with tracer.span("sa.place", circuit=self.circuit.name), \
                memory.phase_peak("sa.place"):
            result = self._place(tracer, clock)
        metrics.counter("repro.sa_placements").inc()
        result.trace = tracer.to_trace()  # now includes the root span
        diagnose.attach(result)
        return result

    def _place(
        self, tracer: trace.Tracer, clock: trace.Stopwatch
    ) -> PlacerResult:
        p = self.params
        rng = np.random.default_rng(p.seed)
        with tracer.span("sa.islands"):
            blocks = fuse_alignment_blocks(
                self.circuit, build_blocks(self.circuit)
            )
            self._chains = self._compile_chains(blocks)
            pair0 = self._initial_pair(len(blocks))
        # island membership and row_order length are invariant under
        # reorder moves, so the eligible-island set is static
        self._islands = [k for k, b in enumerate(blocks)
                         if b.group is not None and len(b.row_order) >= 2]
        self._reorder_cache: dict[tuple[int, tuple[int, ...]], Block] = {}
        state = _State(self.circuit, blocks, pair0)
        evaluator = self._evaluator()
        cost = evaluator.reset(state.blocks, state.pair, state.free_flips)

        # initial temperature from the spread of random-walk deltas
        with tracer.span("sa.probe"):
            deltas = []
            probe = state
            for u in rng.random((30, 5)).tolist():
                cand, touched = self._propose(probe, u)
                cand_cost = evaluator.propose(
                    cand.blocks, cand.pair, cand.free_flips, touched
                )
                evaluator.commit()
                deltas.append(abs(cand_cost - cost))
                probe = cand
            evaluator.reset(state.blocks, state.pair, state.free_flips)
        t0 = max(float(np.mean(deltas)), 1e-6) * p.t_start_factor
        t_end = t0 * p.t_end_ratio
        n_temps = max(p.iterations // p.moves_per_temp, 1)
        decay = (t_end / t0) ** (1.0 / n_temps)
        logger.debug(
            "SA %s: t0 %.4g over %d temperature stages",
            self.circuit.name, t0, n_temps,
        )

        best_state, best_cost = state.copy(), cost
        temperature = t0
        accepted = 0
        evaluated = 0
        last_dirty = evaluator.dirty_nets
        # the iteration budget is consumed in temperature stages of
        # ``moves_per_temp`` moves; the trailing partial stage (when
        # ``iterations`` is not a multiple) does not decay, matching
        # the pre-stage-loop behaviour
        it = 0
        stage = 0
        propose = evaluator.propose
        # one reusable timer (the shared null span when untraced)
        cost_timer = tracer.timer("sa.cost")
        while it < p.iterations:
            stage_moves = min(p.moves_per_temp, p.iterations - it)
            stage_accepted = 0
            stage_evaluated = 0
            stage_u = rng.random((stage_moves, 5)).tolist()
            with tracer.span("sa.stage", stage=stage):
                for u in stage_u:
                    it += 1
                    candidate, touched = self._propose(state, u)
                    if self._chains and not self._chains_ok(
                            candidate.pair, self._chains):
                        continue
                    with cost_timer:
                        cand_cost = propose(
                            candidate.blocks, candidate.pair,
                            candidate.free_flips, touched,
                        )
                    evaluated += 1
                    stage_evaluated += 1
                    delta = cand_cost - cost
                    if delta <= 0 or u[4] < math.exp(
                            -delta / temperature):
                        state, cost = candidate, cand_cost
                        evaluator.commit()
                        accepted += 1
                        stage_accepted += 1
                        if p.audit_interval and \
                                accepted % p.audit_interval == 0:
                            evaluator.audit(
                                state.blocks, state.pair,
                                state.free_flips,
                            )
                        if cost < best_cost:
                            best_state, best_cost = state.copy(), cost
            if tracer.enabled:
                values = dict(
                    temperature=temperature,
                    cost=cost,
                    best_cost=best_cost,
                    accepted=stage_accepted,
                    evaluated=stage_evaluated,
                )
                hvalues = dict(
                    accept_rate=(
                        stage_accepted / max(stage_evaluated, 1)
                    ),
                    temperature=temperature,
                    dirty_nets=float(
                        evaluator.dirty_nets - last_dirty
                    ),
                    evaluated=float(stage_evaluated),
                    full_evals=float(evaluator.full_evals),
                )
                last_dirty = evaluator.dirty_nets
                emit("sa.stage", stage, progress=values, health=hvalues)
            if stage_moves == p.moves_per_temp:
                temperature *= decay
            stage += 1

        polish_evals = 0
        if p.polish_evals:
            with tracer.span("sa.polish"):
                best_state, best_cost, polish_evals = self._polish(
                    best_state, best_cost, evaluator, p.polish_evals, rng
                )
        if p.audit_interval:
            # closing audit against whichever state the evaluator
            # currently tracks: the whole run ends cache-consistent
            final = best_state if p.polish_evals else state
            evaluator.audit(final.blocks, final.pair, final.free_flips)
        placement = best_state.realize().normalized()
        logger.debug(
            "SA %s: accept rate %.3f, best cost %.4g",
            self.circuit.name, accepted / max(evaluated, 1), best_cost,
        )
        return PlacerResult(
            placement=placement,
            runtime_s=clock.elapsed(),
            method="annealing",
            stats={
                "iterations": p.iterations,
                "accept_rate": accepted / max(evaluated, 1),
                "best_cost": best_cost,
                "t0": t0,
                "blocks": len(blocks),
                "incremental_evals": evaluator.incremental_evals,
                "full_evals": evaluator.full_evals,
                "audits": evaluator.audits,
                "polish_evals": polish_evals,
            },
        )


def anneal_place(
    circuit: Circuit,
    params: SAParams | None = None,
    cost_hook: CostHook | None = None,
) -> PlacerResult:
    """Convenience wrapper: run the SA placer once."""
    return SimulatedAnnealingPlacer(circuit, params, cost_hook).place()
