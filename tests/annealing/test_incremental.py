"""Incremental cost evaluator vs full recomputation and the numpy spec.

The SA hot path trusts :class:`IncrementalCostEvaluator` to track the
cost across thousands of moves without ever rebuilding the placement;
these tests hammer it with long random move sequences on real
testcases and assert the cache never drifts from a from-scratch
evaluation (the module's core invariant: spans are recomputed, never
delta-accumulated, so there is no floating-point drift channel).

``tests.reference.sa_incremental`` keeps the array form of the same
evaluator.  The list kernels re-span the same dirty nets in the same
arithmetic order, so every candidate's cost and spans, the
``dirty_nets`` count and whole annealing runs must be bitwise equal
to it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.annealing import SAParams, anneal_place
from repro.annealing import annealer
from repro.annealing.annealer import SimulatedAnnealingPlacer, _State
from repro.annealing.incremental import realize_placement
from repro.annealing.islands import build_blocks, fuse_alignment_blocks
from repro.placement import Placement
from repro.circuits import PAPER_TESTCASES, make

from ..reference.sa_incremental import ReferenceCostEvaluator


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
        # disagreement beyond 1e-9; the list kernels are bitwise equal
        # to the numpy recompute, so a healthy cache returns 0.0
        spans = list(evaluator._cur.spans)
        deviation = evaluator.audit(
            state.blocks, state.pair, state.free_flips
        )
        assert deviation == 0.0
        assert evaluator._cur.cost == cost
        assert evaluator._cur.spans == spans

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
    # so are the per-block dims; the extents and pin offsets are copied
    assert evaluator._pending.block_w is cur.block_w
    assert evaluator._pending.block_h is cur.block_h
    assert evaluator._pending.ext is not cur.ext
    if evaluator._block_pins[0]:
        assert evaluator._pending.pin_rel_x is not cur.pin_rel_x
    # a sequence move re-packs into new lists
    cand = state.copy()
    cand.pair.plus.reverse()
    evaluator.propose(cand.blocks, cand.pair, cand.free_flips, None)
    assert evaluator._pending.bx is not cur.bx
    assert evaluator._pending.pin_rel_x is cur.pin_rel_x


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


def _reference_for(placer: SimulatedAnnealingPlacer):
    p = placer.params
    return ReferenceCostEvaluator(
        placer.circuit, placer.arrays, placer.widths, placer.heights,
        area_weight=p.area_weight, hpwl_norm=placer._hpwl_norm,
        area_norm=placer._area_norm, perf_weight=p.perf_weight,
        cost_hook=placer.cost_hook,
    )


@pytest.mark.parametrize("name", PAPER_TESTCASES)
def test_random_walk_matches_reference(name):
    """1000 random moves, about half accepted: every candidate's cost
    and spans, and the ``dirty_nets`` count, are bitwise the numpy
    reference's."""
    placer, state = _prepared_placer(name)
    evaluator = placer._evaluator()
    reference = _reference_for(placer)
    assert evaluator.reset(state.blocks, state.pair, state.free_flips) \
        == reference.reset(state.blocks, state.pair, state.free_flips)
    rng = np.random.default_rng(11)
    kinds = set()
    for u in rng.random((1000, 6)).tolist():
        candidate, touched = placer._propose(state, u[:5])
        kinds.add(touched is None)
        args = (candidate.blocks, candidate.pair, candidate.free_flips,
                touched)
        got = evaluator.propose(*args)
        want = reference.propose(*args)
        assert got == want
        assert np.asarray(evaluator._pending.spans).tobytes() == \
            reference._pending.spans.tobytes()
        assert evaluator.dirty_nets == reference.dirty_nets
        if u[5] < 0.5:
            evaluator.commit()
            reference.commit()
            state = candidate
    assert kinds == {True, False}  # sequence and geometry moves both ran
    assert evaluator.audit(state.blocks, state.pair, state.free_flips) \
        == 0.0


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", PAPER_TESTCASES)
def test_annealing_matches_reference_evaluator(monkeypatch, name, seed):
    """Whole short SA runs (Metropolis, audits, polish) give bitwise the
    placement, stats and ``dirty_nets`` of the numpy reference."""
    params = SAParams(iterations=1200, seed=seed, audit_interval=100,
                      polish_evals=300)

    def run(evaluator_cls):
        made = []

        def make_evaluator(*args, **kwargs):
            made.append(evaluator_cls(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(annealer, "IncrementalCostEvaluator",
                            make_evaluator)
        result = anneal_place(make(name), params)
        (evaluator,) = made
        return result, evaluator.dirty_nets

    got, got_dirty = run(annealer.IncrementalCostEvaluator)
    want, want_dirty = run(ReferenceCostEvaluator)
    for attr in ("x", "y", "flip_x", "flip_y"):
        assert getattr(got.placement, attr).tobytes() == \
            getattr(want.placement, attr).tobytes()
    assert got.stats == want.stats
    assert got_dirty == want_dirty
