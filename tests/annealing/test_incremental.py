"""Incremental cost evaluator vs full recomputation.

The SA hot path trusts :class:`IncrementalCostEvaluator` to track the
cost across thousands of moves without ever rebuilding the placement;
these tests hammer it with long random move sequences on real
testcases and assert the cache never drifts from a from-scratch
evaluation (the module's core invariant: spans are recomputed, never
delta-accumulated, so there is no floating-point drift channel).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.annealing import SAParams, anneal_place
from repro.annealing.annealer import SimulatedAnnealingPlacer, _State
from repro.annealing.incremental import realize_placement
from repro.annealing.islands import build_blocks, fuse_alignment_blocks
from repro.placement import Placement
from repro.circuits import PAPER_TESTCASES, make


def _prepared_placer(name: str, cost_hook=None) -> tuple:
    """A placer with the move-loop structures `_place` would build."""
    circuit = make(name)
    params = SAParams(iterations=10,
                      perf_weight=1.0 if cost_hook else 0.0)
    placer = SimulatedAnnealingPlacer(circuit, params, cost_hook)
    blocks = fuse_alignment_blocks(circuit, build_blocks(circuit))
    placer._chains = placer._compile_chains(blocks)
    placer._islands = [
        k for k, b in enumerate(blocks)
        if b.group is not None and len(b.row_order) >= 2
    ]
    placer._reorder_cache = {}
    state = _State(circuit, blocks, placer._initial_pair(len(blocks)))
    return placer, state


@pytest.mark.parametrize("name", ["Adder", "CC-OTA"])
def test_incremental_equals_full_after_1k_random_moves(name):
    """1000 random moves: every accepted state audits clean and the
    final incremental cost equals the from-scratch reference cost."""
    placer, state = _prepared_placer(name)
    evaluator = placer._evaluator()
    cost = evaluator.reset(state.blocks, state.pair, state.free_flips)

    rng = np.random.default_rng(42)
    applied = 0
    for u in rng.random((1000, 5)).tolist():
        candidate, touched = placer._propose(state, u)
        if placer._chains and not placer._chains_ok(
                candidate.pair, placer._chains):
            continue
        cost = evaluator.propose(
            candidate.blocks, candidate.pair,
            candidate.free_flips, touched,
        )
        evaluator.commit()
        state = candidate
        applied += 1
        # audit() fully recomputes and raises CostDriftError on any
        # disagreement beyond 1e-9; a healthy cache returns ~0.0
        deviation = evaluator.audit(
            state.blocks, state.pair, state.free_flips
        )
        assert deviation <= 1e-12

    assert applied > 100  # the chain filter must not starve the walk
    placement = realize_placement(
        state.circuit, state.blocks, state.pair, state.free_flips
    )
    # independent reference: the annealer's from-scratch cost function
    assert placer._cost(placement) == pytest.approx(cost, abs=1e-9)


@pytest.mark.parametrize("name", ["Adder", "CC-OTA"])
def test_geometry_moves_leave_packing_shared(name):
    """Flip / reorder proposals must not re-pack the sequence pair."""
    placer, state = _prepared_placer(name)
    evaluator = placer._evaluator()
    evaluator.reset(state.blocks, state.pair, state.free_flips)
    cur = evaluator._cur
    # a flip move on block 0 keeps dims, so bx/by must be shared
    cand = state.copy()
    cand.free_flips[0] = (True, False)
    evaluator.propose(cand.blocks, cand.pair, cand.free_flips, 0)
    assert evaluator._pending.bx is cur.bx
    assert evaluator._pending.by is cur.by


@pytest.mark.parametrize("name", PAPER_TESTCASES)
def test_cost_hook_placement_equals_realize_placement(name):
    """1000 random moves, half of them rejected: the placement the
    evaluator hands its cost hook is bitwise ``realize_placement`` of
    the candidate state."""
    seen: list[Placement] = []

    def hook(placement: Placement) -> float:
        seen.append(placement)
        return 0.0

    placer, state = _prepared_placer(name, hook)
    evaluator = placer._evaluator()

    def check(s) -> None:
        want = realize_placement(
            s.circuit, s.blocks, s.pair, s.free_flips)
        got = seen.pop()
        assert not seen
        for attr in ("x", "y", "flip_x", "flip_y"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))

    evaluator.reset(state.blocks, state.pair, state.free_flips)
    check(state)
    rng = np.random.default_rng(3)
    for u in rng.random((1000, 6)).tolist():
        candidate, touched = placer._propose(state, u[:5])
        evaluator.propose(candidate.blocks, candidate.pair,
                          candidate.free_flips, touched)
        check(candidate)
        if u[5] < 0.5:
            evaluator.commit()
            state = candidate
    evaluator.audit(state.blocks, state.pair, state.free_flips)
    check(state)


def test_audit_runs_inside_annealing():
    """An end-to-end run with audits after every accepted move."""
    result = anneal_place(
        make("Adder"),
        SAParams(iterations=600, seed=5, audit_interval=1,
                 polish_evals=200),
    )
    assert result.stats["audits"] > 0
    assert result.metrics()["overlap"] == pytest.approx(0.0, abs=1e-9)
