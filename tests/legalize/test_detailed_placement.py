"""ILP and two-stage-LP detailed placement tests."""

import numpy as np
import pytest

from repro.eplace import eplace_global
from repro.legalize import (
    DetailedParams,
    detailed_place,
    ilp_detailed_placement,
    lp_two_stage_detailed_placement,
    presymmetrize,
)
from repro.placement import (
    Placement,
    audit_constraints,
    hpwl,
    total_overlap,
)


@pytest.fixture(scope="module")
def ccota_gp():
    """One shared global placement for the module's DP tests."""
    from repro.circuits import cc_ota
    from repro.eplace import EPlaceParams

    circuit = cc_ota()
    result = eplace_global(
        circuit, EPlaceParams(max_iters=150, min_iters=30, bins=16))
    return result.placement


class TestILP:
    def test_legal_and_constraint_exact(self, ccota_gp, fast_dp_params):
        result = ilp_detailed_placement(ccota_gp, fast_dp_params)
        assert total_overlap(result.placement) == pytest.approx(0.0)
        assert audit_constraints(result.placement).ok

    def test_grid_alignment(self, ccota_gp, fast_dp_params):
        result = ilp_detailed_placement(ccota_gp, fast_dp_params)
        grid = fast_dp_params.grid
        # centres land on the grid after normalisation
        offsets_x = result.placement.x / grid
        offsets_y = result.placement.y / grid
        assert np.allclose(offsets_x, np.round(offsets_x), atol=1e-6)
        assert np.allclose(offsets_y, np.round(offsets_y), atol=1e-6)

    def test_flipping_improves_or_ties_hpwl(self, ccota_gp):
        with_flip = ilp_detailed_placement(
            ccota_gp, DetailedParams(allow_flipping=True,
                                     iterate_rounds=1, refine_rounds=0))
        without = ilp_detailed_placement(
            ccota_gp, DetailedParams(allow_flipping=False,
                                     iterate_rounds=1, refine_rounds=0))
        assert hpwl(with_flip.placement) <= hpwl(without.placement) + 1e-6

    def test_detailed_place_pipeline_improves_score(self, ccota_gp):
        single = ilp_detailed_placement(
            ccota_gp, DetailedParams(iterate_rounds=1, refine_rounds=0))
        refined = detailed_place(
            ccota_gp, DetailedParams(iterate_rounds=3, refine_rounds=4))
        from repro.legalize.ilp import _score
        params = DetailedParams()
        assert _score(refined.placement, params) <= \
            _score(single.placement, params) + 1e-6
        assert audit_constraints(refined.placement).ok

    def test_displacement_anchor_stays_close(self, ccota_gp):
        anchored = ilp_detailed_placement(
            ccota_gp, DetailedParams(displacement_weight=5.0,
                                     iterate_rounds=1, refine_rounds=0))
        free = ilp_detailed_placement(
            ccota_gp, DetailedParams(iterate_rounds=1, refine_rounds=0))
        ref = presymmetrize(ccota_gp)

        def disp(p):
            # compare modulo the normalising translation
            dx = p.x - ref.x
            dy = p.y - ref.y
            return float(np.abs(dx - dx.mean()).sum()
                         + np.abs(dy - dy.mean()).sum())

        assert disp(anchored.placement) <= disp(free.placement) + 1e-6

    def test_stats_populated(self, ccota_gp, fast_dp_params):
        result = ilp_detailed_placement(ccota_gp, fast_dp_params)
        for key in ("objective", "num_vars", "num_rows", "outline_w",
                    "outline_h"):
            assert key in result.stats


@pytest.fixture(scope="module")
def legal(ccota_gp):
    """One legal CC-OTA placement for the stubbed-solver tests."""
    return ilp_detailed_placement(
        ccota_gp,
        DetailedParams(iterate_rounds=1, refine_rounds=0),
    ).placement


def _copy(placement):
    return Placement(placement.circuit, placement.x.copy(),
                     placement.y.copy(), placement.flip_x,
                     placement.flip_y)


class TestIterateDirections:
    """``iterate_directions`` returns the best placement seen, input
    included; each test stubs the MILP with a fixed answer."""

    @staticmethod
    def _run(monkeypatch, legal, answer, rounds=3, **params):
        from repro.legalize import ilp

        calls = []

        def solve(placement, params, incumbent):
            calls.append(placement)
            return answer, {}

        monkeypatch.setattr(ilp, "_solve_model", solve)
        result, used = ilp.iterate_directions(
            legal, DetailedParams(iterate_rounds=rounds, **params))
        return result, used, calls

    def test_worse_solve_returns_the_input(self, monkeypatch, legal):
        # spreading every device apart keeps it legal but scores worse
        worse = Placement(legal.circuit, legal.x * 2.0, legal.y * 2.0,
                          legal.flip_x, legal.flip_y)
        result, used, calls = self._run(monkeypatch, legal, worse)
        assert result is legal
        assert used == 2  # round 2 re-solves to the same score: fixpoint
        assert calls == [legal, worse]

    def test_tie_keeps_the_resolved_placement(self, monkeypatch, legal):
        same = _copy(legal)
        result, used, _ = self._run(monkeypatch, legal, same)
        assert result is same
        # ``same`` re-derives the separations that produced it, so the
        # repeat solve is skipped and not counted
        assert used == 1

    def test_fixpoint_input_solves_once(self, monkeypatch, legal):
        # the MILP returns its input: round 2 would re-solve the very
        # model round 1 solved
        result, used, calls = self._run(monkeypatch, legal, legal)
        assert calls == [legal]
        assert used == 1
        assert result is legal

    def test_anchored_fixpoint_still_resolves(self, monkeypatch, legal):
        # a displacement anchor ties the model to the placement itself,
        # so the separation list alone cannot prove the model repeats
        result, used, calls = self._run(monkeypatch, legal, legal,
                                        displacement_weight=1.0)
        assert calls == [legal, legal]
        assert used == 2
        assert result is legal

    def test_no_rounds_returns_the_input(self, monkeypatch, legal):
        result, used, calls = self._run(monkeypatch, legal, None,
                                        rounds=0)
        assert result is legal and used == 0 and not calls


class TestRefineDirections:
    """``refine_directions`` accepts strict ``_score`` improvements;
    each test stubs the MILP and the score."""

    @staticmethod
    def _run(monkeypatch, legal, answers, scores):
        """``answers`` are the solves' results in order (an exception
        is raised); ``scores`` maps each placement to its score."""
        from repro.legalize import ilp

        calls = []
        pending = list(answers)

        def solve(placement, params, free_keys, time_limit, incumbent):
            calls.append(placement)
            assert free_keys
            answer = pending.pop(0)
            if isinstance(answer, Exception):
                raise answer
            return answer, {}

        monkeypatch.setattr(ilp, "_solve_model", solve)
        monkeypatch.setattr(ilp, "_score",
                            lambda placement, params: scores[id(placement)])
        best, improved = ilp.refine_directions(
            legal, DetailedParams(refine_rounds=len(answers)))
        return best, improved, calls

    def test_strictly_better_score_is_accepted(self, monkeypatch, legal):
        better = _copy(legal)
        best, improved, _ = self._run(
            monkeypatch, legal, [better],
            {id(legal): 10.0, id(better): 9.0})
        assert best is better and improved == 1

    def test_equal_or_worse_score_is_rejected(self, monkeypatch, legal):
        equal, worse = _copy(legal), _copy(legal)
        best, improved, calls = self._run(
            monkeypatch, legal, [equal, worse],
            {id(legal): 10.0, id(equal): 10.0, id(worse): 11.0})
        assert best is legal and improved == 0
        assert calls == [legal, legal]

    def test_unsolved_round_keeps_the_incumbent(self, monkeypatch, legal):
        from repro.legalize import DetailedPlacementError

        better = _copy(legal)
        best, improved, calls = self._run(
            monkeypatch, legal,
            [DetailedPlacementError("no solution in time"), better],
            {id(legal): 10.0, id(better): 9.0})
        assert calls == [legal, legal]  # the loop went on
        assert best is better and improved == 1

    def test_count_is_the_number_of_accepted_rounds(
            self, monkeypatch, legal):
        a, b, c, d = (_copy(legal) for _ in range(4))
        best, improved, calls = self._run(
            monkeypatch, legal, [a, b, c, d],
            {id(legal): 10.0, id(a): 9.0, id(b): 9.5, id(c): 8.0,
             id(d): 8.0})
        assert best is c and improved == 2
        assert calls == [legal, a, a, c]


class TestLPTwoStage:
    def test_legal_and_constraint_exact(self, ccota_gp):
        result = lp_two_stage_detailed_placement(ccota_gp)
        assert total_overlap(result.placement) == pytest.approx(
            0.0, abs=1e-6)
        assert audit_constraints(result.placement, tolerance=1e-5).ok

    def test_stage1_outline_respected(self, ccota_gp):
        result = lp_two_stage_detailed_placement(ccota_gp)
        xlo, ylo, xhi, yhi = result.placement.bounding_box()
        assert xhi - xlo <= result.stats["outline_w"] + 1e-6
        assert yhi - ylo <= result.stats["outline_h"] + 1e-6

    def test_ilp_with_flipping_beats_lp_hpwl(self, ccota_gp):
        """The paper's Table IV comparison, on one circuit."""
        lp = lp_two_stage_detailed_placement(ccota_gp)
        ilp = detailed_place(
            ccota_gp, DetailedParams(iterate_rounds=1, refine_rounds=0))
        assert hpwl(ilp.placement) <= hpwl(lp.placement) + 1e-6


class TestPresymmetrize:
    def test_snaps_to_exact_symmetry(self, cc_ota_circuit, rng):
        n = cc_ota_circuit.num_devices
        p = Placement(cc_ota_circuit, rng.uniform(0, 10, n),
                      rng.uniform(0, 10, n))
        snapped = presymmetrize(p)
        audit = audit_constraints(snapped)
        assert audit.symmetry == pytest.approx(0.0, abs=1e-9)
        assert audit.alignment == pytest.approx(0.0, abs=1e-9)

    def test_already_symmetric_unchanged(self, ccota_gp, fast_dp_params):
        legal = ilp_detailed_placement(ccota_gp, fast_dp_params).placement
        snapped = presymmetrize(legal)
        assert np.allclose(snapped.x, legal.x)
        assert np.allclose(snapped.y, legal.y)
