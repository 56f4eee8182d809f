"""Performance-driven flow tests (small budgets)."""

import numpy as np
import pytest

from repro.annealing import SAParams
from repro.eplace import EPlaceParams
from repro.gnn import train_performance_model
from repro.legalize import DetailedParams
from repro.perf_driven import (
    RefineParams,
    place_eplace_ap,
    place_perf_sa,
    place_perf_xu,
    place_performance_driven,
    phi_refine,
)
from repro.placement import audit_constraints, total_overlap
from repro.xu_ispd19 import XuParams

from ..eplace.test_global_place import check_memo_hit_exact


@pytest.fixture(scope="module")
def quick_model():
    """A small trained model for CC-OTA shared across the module."""
    from repro.api import place_eplace_a
    from repro.circuits import cc_ota

    seed = place_eplace_a(cc_ota())
    model, _ = train_performance_model(
        seed.placement, samples=160, epochs=20, sa_sweep_runs=4,
        adversarial_rounds=1)
    return model


@pytest.fixture
def quick_gp():
    return EPlaceParams(max_iters=120, min_iters=20, bins=16)


class TestEPlaceAP:
    def test_legal_and_constrained(self, quick_model, quick_gp):
        from repro.circuits import cc_ota

        result = place_eplace_ap(
            cc_ota(), quick_model, gp_params=quick_gp, alpha=1.0,
            refine_params=RefineParams(rounds=1, lns_rounds=1,
                                       flip_passes=1))
        assert total_overlap(result.placement) == pytest.approx(0.0)
        assert audit_constraints(result.placement).ok
        assert "refine" in result.stats

    def test_memo_hit_is_exact(self, quick_model, quick_gp, rng,
                               monkeypatch):
        """The GNN term is memoized with the other position-only terms."""
        from repro.circuits import cc_ota
        from repro.perf_driven import EPlaceAPGlobalPlacer

        calls = [0]
        phi_and_grad = quick_model.phi_and_grad

        def counted(x, y):
            calls[0] += 1
            return phi_and_grad(x, y)

        monkeypatch.setattr(quick_model, "phi_and_grad", counted)
        check_memo_hit_exact(
            lambda: EPlaceAPGlobalPlacer(cc_ota(), quick_model, quick_gp,
                                         alpha=2.0), rng)
        # init + miss for the memoizing placer; init + miss for the fresh
        assert calls[0] == 4

    def test_model_circuit_mismatch_rejected(self, quick_model):
        from repro.circuits import comp1

        with pytest.raises(ValueError, match="trained for"):
            place_eplace_ap(comp1(), quick_model)


class TestPerfSA:
    def test_legal_and_constrained(self, quick_model):
        from repro.circuits import cc_ota

        result = place_perf_sa(
            cc_ota(), quick_model,
            SAParams(iterations=1200, seed=3, perf_weight=2.0))
        assert total_overlap(result.placement) == pytest.approx(0.0)
        assert audit_constraints(result.placement).ok
        assert result.method == "perf-sa"

    def test_fallback_returns_baseline_trace(self, quick_model,
                                             monkeypatch):
        """A guard fallback hands back the conventional run's result."""
        from repro import obs
        from repro.circuits import cc_ota
        from repro.perf_driven import refine

        scored = []

        def baseline_wins(placement, model, quality_weight):
            # the guard scores the baseline first: it always wins
            scored.append(placement)
            return float(len(scored))

        monkeypatch.setattr(refine, "_score", baseline_wins)
        with obs.tracing():
            result = place_perf_sa(
                cc_ota(), quick_model,
                SAParams(iterations=600, seed=2, perf_weight=1.0))
        assert result.method == "perf-sa"
        assert result.stats["fallback"] == "conventional"
        assert result.trace.convergence_by_phase("sa.stage")
        assert result.diagnosis is not None
        for attr in ("x", "y", "flip_x", "flip_y"):
            assert getattr(result.placement, attr).tobytes() == \
                getattr(scored[0], attr).tobytes()

    def test_requires_positive_perf_weight(self, quick_model):
        from repro.circuits import cc_ota

        with pytest.raises(ValueError, match="perf_weight"):
            place_perf_sa(cc_ota(), quick_model,
                          SAParams(iterations=100, perf_weight=0.0))


class TestPerfXu:
    def test_legal_and_constrained(self, quick_model):
        from repro.circuits import cc_ota

        result = place_perf_xu(
            cc_ota(), quick_model,
            gp_params=XuParams(stages=4, cg_iterations=30), alpha=1.0)
        assert total_overlap(result.placement) == pytest.approx(
            0.0, abs=1e-6)
        assert audit_constraints(result.placement,
                                 tolerance=1e-5).ok


class TestDispatch:
    def test_unknown_method(self, quick_model):
        from repro.circuits import cc_ota

        with pytest.raises(ValueError, match="unknown method"):
            place_performance_driven(cc_ota(), quick_model,
                                     method="magic")


class TestPhiRefine:
    def test_returns_legal(self, quick_model, quick_gp):
        from repro.api import place_eplace_a
        from repro.circuits import cc_ota

        legal = place_eplace_a(
            cc_ota(), gp_params=quick_gp,
            dp_params=DetailedParams(iterate_rounds=1,
                                     refine_rounds=0)).placement
        refined, stats = phi_refine(
            legal, quick_model,
            RefineParams(rounds=1, lns_rounds=2, flip_passes=1))
        assert total_overlap(refined) == pytest.approx(0.0)
        assert audit_constraints(refined).ok
        assert "final_phi" in stats

    def test_low_trust_short_circuits(self, quick_model, quick_gp):
        from repro.api import place_eplace_a
        from repro.circuits import cc_ota
        import numpy as np

        legal = place_eplace_a(
            cc_ota(), gp_params=quick_gp,
            dp_params=DetailedParams(iterate_rounds=1,
                                     refine_rounds=0)).placement
        saved = quick_model.validation_corr
        quick_model.validation_corr = -0.1  # fails validation
        try:
            refined, stats = phi_refine(legal, quick_model)
            assert stats.get("skipped_low_trust")
            assert np.allclose(refined.x, legal.x)
        finally:
            quick_model.validation_corr = saved


@pytest.fixture(scope="module")
def legal_ccota():
    from repro.api import place_eplace_a
    from repro.circuits import cc_ota

    return place_eplace_a(
        cc_ota(), gp_params=EPlaceParams(max_iters=120, min_iters=20,
                                         bins=16),
        dp_params=DetailedParams(iterate_rounds=1,
                                 refine_rounds=0)).placement


def _stage1_every_round(legal, model, params):
    """Stage 1 as it ran before it stopped at a rejected round: all
    ``params.rounds`` rounds, whatever their outcome."""
    from repro.perf_driven import refine

    dp_params = DetailedParams(
        displacement_weight=params.displacement_weight,
        iterate_rounds=1, refine_rounds=0)
    best = legal
    best_score = refine._score(legal, model, params.quality_weight)
    accepted = 0
    candidates = []
    for _ in range(params.rounds):
        drifted = refine._descend(best, model, params.steps_per_round,
                                  params.step_um)
        candidate = refine.detailed_place(drifted, dp_params).placement
        candidate = refine._greedy_flips(candidate, model, 1,
                                         params.quality_weight)
        candidates.append(candidate)
        score = refine._score(candidate, model, params.quality_weight)
        if score < best_score - params.accept_margin:
            best, best_score = candidate, score
            accepted += 1
    return best, accepted, candidates


def _same_placement(a, b) -> bool:
    return all(np.array_equal(getattr(a, attr), getattr(b, attr))
               for attr in ("x", "y", "flip_x", "flip_y"))


def _count_detailed_place(monkeypatch) -> list:
    from repro.perf_driven import refine

    calls = []
    real = refine.detailed_place

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(refine, "detailed_place", counted)
    return calls


class TestPhiRefineStages:
    def test_stage1_stops_at_first_rejected_round(
            self, quick_model, legal_ccota, monkeypatch):
        # a margin no candidate can clear rejects round 1
        params = RefineParams(rounds=3, lns_rounds=0, flip_passes=0,
                              accept_margin=10.0)
        old_best, old_accepted, candidates = _stage1_every_round(
            legal_ccota, quick_model, params)
        assert old_accepted == 0
        # the skipped rounds would have repeated round 1 exactly
        assert all(_same_placement(c, candidates[0])
                   for c in candidates[1:])

        calls = _count_detailed_place(monkeypatch)
        refined, stats = phi_refine(legal_ccota, quick_model, params)
        assert not stats.get("skipped_low_trust")
        assert len(calls) == 1
        assert stats["accepted_rounds"] == old_accepted
        assert _same_placement(refined, old_best)

    def test_stage1_runs_every_accepted_round(
            self, quick_model, legal_ccota, monkeypatch):
        # a negative margin accepts every round, so none stops early
        params = RefineParams(rounds=3, lns_rounds=0, flip_passes=0,
                              accept_margin=-1e9)
        old_best, old_accepted, _ = _stage1_every_round(
            legal_ccota, quick_model, params)
        calls = _count_detailed_place(monkeypatch)
        refined, stats = phi_refine(legal_ccota, quick_model, params)
        assert len(calls) == 3
        assert stats["accepted_rounds"] == old_accepted == 3
        assert _same_placement(refined, old_best)

    def test_lns_propagates_programming_errors(
            self, quick_model, legal_ccota, monkeypatch):
        from repro.legalize import ilp

        def broken(*args, **kwargs):
            raise ValueError("bug in the model builder")

        monkeypatch.setattr(ilp, "_solve_model", broken)
        with pytest.raises(ValueError, match="bug in the model builder"):
            phi_refine(legal_ccota, quick_model,
                       RefineParams(rounds=0, lns_rounds=1,
                                    flip_passes=0))

    def test_lns_skips_unsolved_rounds(
            self, quick_model, legal_ccota, monkeypatch):
        from repro.legalize import DetailedPlacementError, ilp

        calls = []

        def unsolved(*args, **kwargs):
            calls.append(kwargs["time_limit"])
            raise DetailedPlacementError("no solution in time")

        monkeypatch.setattr(ilp, "_solve_model", unsolved)
        refined, stats = phi_refine(
            legal_ccota, quick_model,
            RefineParams(rounds=0, lns_rounds=2, flip_passes=0))
        assert not stats.get("skipped_low_trust")
        assert calls == [DetailedParams().refine_time_limit_s] * 2
        assert stats["accepted_rounds"] == 0
        assert _same_placement(refined, legal_ccota)


class TestRefineParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RefineParams(step_um=0.0)
        with pytest.raises(ValueError):
            RefineParams(steps_per_round=0)
