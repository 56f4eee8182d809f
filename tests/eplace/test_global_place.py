"""ePlace-A global placement tests."""

import numpy as np
import pytest

from repro.circuits import comp1, comp2
from repro.eplace import EPlaceGlobalPlacer, EPlaceParams, eplace_global
from repro.eplace import global_place
from repro.placement import total_overlap, utilization

#: GP parameters of the default ePlace-A flow (repro.api.place_eplace_a)
FLOW_GP = EPlaceParams(utilization=0.8, eta=0.3)


def _counting(fn, counter):
    def wrapped(*args, **kwargs):
        counter[0] += 1
        return fn(*args, **kwargs)
    return wrapped


def check_memo_hit_exact(make_placer, rng):
    """A memo hit returns the value and gradient, bit for bit, that a
    fresh placer in the same state computes at the same point."""
    placer = make_placer()
    x0, y0 = placer.initial_positions()
    placer._init_weights(x0, y0)
    if placer._hard_map is None:
        x = x0 + rng.normal(0.0, 0.5, x0.size)
        y = y0 + rng.normal(0.0, 0.5, y0.size)
    else:
        v = placer._hard_map.reduce(x0, y0)
        x, y = placer._hard_map.expand(v + rng.normal(0.0, 0.5, v.size))
    placer._objective_xy(x, y)  # memoizes this point's terms
    placer._lambda *= placer.params.lambda_mult  # as the GP loop does
    state = (placer._lambda, placer._overflow)

    density_calls = [0]
    placer.density.energy_and_grad = _counting(
        placer.density.energy_and_grad, density_calls)
    hit = placer._objective_xy(x.copy(), y.copy())
    assert density_calls[0] == 0  # served from the memo

    fresh = make_placer()
    fresh._init_weights(x0, y0)
    fresh._lambda, fresh._overflow = state
    ref = fresh._objective_xy(x, y)
    assert np.float64(hit[0]).tobytes() == np.float64(ref[0]).tobytes()
    assert hit[1].tobytes() == ref[1].tobytes()
    assert hit[2].tobytes() == ref[2].tobytes()
    assert placer._overflow == fresh._overflow


class TestParams:
    def test_bad_utilization(self):
        with pytest.raises(ValueError, match="utilization"):
            EPlaceParams(utilization=0.0)

    def test_bad_symmetry_mode(self):
        with pytest.raises(ValueError, match="symmetry_mode"):
            EPlaceParams(symmetry_mode="loose")


class TestGlobalPlacement:
    def test_devices_inside_region(self, cc_ota_circuit,
                                   fast_gp_params):
        placer = EPlaceGlobalPlacer(cc_ota_circuit, fast_gp_params)
        result = placer.place()
        w, h = cc_ota_circuit.sizes()
        assert np.all(result.placement.x - w / 2 >= -1e-9)
        assert np.all(result.placement.x + w / 2 <= placer.region + 1e-9)
        assert np.all(result.placement.y - h / 2 >= -1e-9)
        assert np.all(result.placement.y + h / 2 <= placer.region + 1e-9)

    def test_spreads_from_clustered_start(self, cc_ota_circuit,
                                          fast_gp_params):
        placer = EPlaceGlobalPlacer(cc_ota_circuit, fast_gp_params)
        x0, y0 = placer.initial_positions()
        from repro.placement import Placement

        start_overlap = total_overlap(
            Placement(cc_ota_circuit, x0, y0))
        result = placer.place()
        assert total_overlap(result.placement) < 0.35 * start_overlap
        assert result.stats["final_overflow"] < 0.35

    def test_deterministic(self, cc_ota_circuit, fast_gp_params):
        from repro.circuits import cc_ota

        a = eplace_global(cc_ota(), fast_gp_params)
        b = eplace_global(cc_ota(), fast_gp_params)
        assert np.allclose(a.placement.x, b.placement.x)

    def test_area_term_shrinks_layout(self):
        """Fig. 2's mechanism: eta=0 spreads over the whole region."""
        from repro.circuits import cc_ota
        from repro.legalize import DetailedParams, detailed_place

        dp = DetailedParams(iterate_rounds=1, refine_rounds=0)
        with_area = detailed_place(eplace_global(
            cc_ota(), EPlaceParams(max_iters=200, min_iters=40,
                                   bins=16, eta=0.3)).placement, dp)
        without = detailed_place(eplace_global(
            cc_ota(), EPlaceParams(max_iters=200, min_iters=40,
                                   bins=16, eta=0.0)).placement, dp)
        assert with_area.metrics()["area"] <= \
            without.metrics()["area"] + 1e-9

    def test_hard_symmetry_exact_in_gp(self):
        from repro.circuits import cc_ota
        from repro.placement import audit_constraints

        result = eplace_global(
            cc_ota(), EPlaceParams(max_iters=120, min_iters=20,
                                   bins=16, symmetry_mode="hard"))
        audit = audit_constraints(result.placement)
        assert audit.symmetry == pytest.approx(0.0, abs=1e-6)

    def test_soft_symmetry_small_residual(self, cc_ota_circuit,
                                          fast_gp_params):
        from repro.placement import audit_constraints

        result = eplace_global(cc_ota_circuit, fast_gp_params)
        audit = audit_constraints(result.placement)
        # soft: not exact, but within a fraction of a device size
        assert audit.symmetry < 1.0


class TestHardSymmetryMap:
    def test_roundtrip(self, cc_ota_circuit, rng):
        from repro.eplace import HardSymmetryMap

        hard = HardSymmetryMap(cc_ota_circuit)
        n = cc_ota_circuit.num_devices
        x = rng.uniform(0, 10, n)
        y = rng.uniform(0, 10, n)
        v = hard.reduce(x, y)
        fx, fy = hard.expand(v)
        v2 = hard.reduce(fx, fy)
        assert np.allclose(v, v2)

    def test_expansion_is_symmetric(self, cc_ota_circuit, rng):
        from repro.eplace import HardSymmetryMap
        from repro.placement import Placement, audit_constraints

        hard = HardSymmetryMap(cc_ota_circuit)
        v = rng.uniform(0, 10, hard.size)
        x, y = hard.expand(v)
        audit = audit_constraints(Placement(cc_ota_circuit, x, y))
        assert audit.symmetry == pytest.approx(0.0, abs=1e-9)

    def test_pullback_matches_fd(self, cc_ota_circuit, rng):
        """Chain rule through the reparameterisation is exact."""
        from repro.eplace import HardSymmetryMap

        hard = HardSymmetryMap(cc_ota_circuit)
        v = rng.uniform(0, 10, hard.size)
        n = cc_ota_circuit.num_devices
        # arbitrary smooth function of full coordinates
        coeff_x = rng.normal(0, 1, n)
        coeff_y = rng.normal(0, 1, n)

        def full_fun(x, y):
            return float(np.sin(x) @ coeff_x + np.cos(y) @ coeff_y)

        x, y = hard.expand(v)
        gx = np.cos(x) * coeff_x
        gy = -np.sin(y) * coeff_y
        reduced_grad = hard.pullback(gx, gy)
        eps = 1e-6
        for i in range(0, hard.size, max(hard.size // 6, 1)):
            bump = np.zeros(hard.size)
            bump[i] = eps
            xp, yp = hard.expand(v + bump)
            xm, ym = hard.expand(v - bump)
            num = (full_fun(xp, yp) - full_fun(xm, ym)) / (2 * eps)
            assert reduced_grad[i] == pytest.approx(num, rel=1e-5,
                                                    abs=1e-8)


class TestStopReason:
    def test_frozen_iterate_stops_early(self):
        """Comp1 seed 1's step length collapses to exactly 0."""
        result = eplace_global(comp1(), FLOW_GP)
        assert result.stats["stop_reason"] == "frozen"
        assert result.stats["iterations"] < FLOW_GP.max_iters

    def test_overflow_stop(self):
        result = eplace_global(comp2(), FLOW_GP)
        assert result.stats["stop_reason"] == "overflow"
        assert result.stats["final_overflow"] < FLOW_GP.overflow_stop

    def test_capped_run(self, cc_ota_circuit):
        result = eplace_global(
            cc_ota_circuit, EPlaceParams(max_iters=5, min_iters=5, bins=16))
        assert result.stats["stop_reason"] == "max_iters"
        assert result.stats["iterations"] == 5

    def test_frozen_exit_is_exact(self, monkeypatch):
        """Stepping on after the frozen exit, with the density weight
        still growing, never moves the returned iterate."""
        made = []

        class Recorded(global_place.NesterovOptimizer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(global_place, "NesterovOptimizer", Recorded)
        placer = EPlaceGlobalPlacer(comp1(), FLOW_GP)
        result = placer.place()
        assert result.stats["stop_reason"] == "frozen"
        (optimizer,) = made
        frozen_v = optimizer.v.tobytes()
        for _ in range(20):
            optimizer.step()
            placer._lambda *= FLOW_GP.lambda_mult
            assert optimizer.v.tobytes() == frozen_v


class TestPositionTermReuse:
    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_memo_hit_is_exact(self, mode, rng):
        from repro.circuits import cc_ota

        params = EPlaceParams(bins=16, symmetry_mode=mode)
        check_memo_hit_exact(
            lambda: EPlaceGlobalPlacer(cc_ota(), params), rng)

    def test_memoized_arrays_read_only(self, cc_ota_circuit):
        placer = EPlaceGlobalPlacer(cc_ota_circuit, EPlaceParams(bins=16))
        x, y = placer.initial_positions()
        placer._init_weights(x, y)
        placer._objective_xy(x, y)
        arrays = [part for term in placer._position_terms(x, y).values()
                  for part in term if isinstance(part, np.ndarray)]
        assert len(arrays) == 8  # density, symmetry, alignment, ordering
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_restart_reuses_density(self):
        """On Comp2 seed 1 the density field is evaluated fewer times
        than the objective: restarts re-evaluate the accepted point."""
        placer = EPlaceGlobalPlacer(comp2(), FLOW_GP)
        density_calls, objective_calls = [0], [0]
        placer.density.energy_and_grad = _counting(
            placer.density.energy_and_grad, density_calls)
        placer._objective_xy = _counting(
            placer._objective_xy, objective_calls)
        placer.place()
        assert 0 < density_calls[0] < objective_calls[0]
