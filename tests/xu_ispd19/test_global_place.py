"""[11]-style global placement tests."""

import numpy as np
import pytest

from repro.xu_ispd19 import XuGlobalPlacer, XuParams, xu_global


class TestParams:
    def test_bad_utilization(self):
        with pytest.raises(ValueError, match="utilization"):
            XuParams(utilization=1.5)

    def test_bad_stages(self):
        with pytest.raises(ValueError, match="stages"):
            XuParams(stages=0)

    @pytest.mark.parametrize("bins", [0, -4])
    def test_bad_bins(self, bins):
        with pytest.raises(ValueError, match="bins"):
            XuParams(bins=bins)

    @pytest.mark.parametrize(
        "name", ["gamma_scale", "lambda_init_ratio", "lambda_mult"])
    @pytest.mark.parametrize(
        "value", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_positive_scalars(self, name, value):
        with pytest.raises(ValueError, match=name):
            XuParams(**{name: value})

    def test_smallest_valid_values_accepted(self):
        params = XuParams(bins=1, gamma_scale=1e-9,
                          lambda_init_ratio=1e-9, lambda_mult=1e-9)
        assert params.bins == 1


class TestGlobalPlacement:
    @pytest.fixture
    def quick_params(self):
        return XuParams(stages=4, cg_iterations=30)

    def test_reduces_overlap(self, cc_ota_circuit, quick_params):
        placer = XuGlobalPlacer(cc_ota_circuit, quick_params)
        x0, y0 = placer.initial_positions()
        from repro.placement import Placement, total_overlap

        start = total_overlap(Placement(cc_ota_circuit, x0, y0))
        result = placer.place()
        assert total_overlap(result.placement) < 0.5 * start

    def test_deterministic(self, quick_params):
        from repro.circuits import cc_ota

        a = xu_global(cc_ota(), quick_params)
        b = xu_global(cc_ota(), quick_params)
        assert np.allclose(a.placement.x, b.placement.x)

    def test_lambda_schedule_recorded(self, cc_ota_circuit,
                                      quick_params):
        result = xu_global(cc_ota_circuit, quick_params)
        history = result.stats["history"]
        assert len(history) == quick_params.stages
        lambdas = [entry[2] for entry in history]
        assert all(b > a for a, b in zip(lambdas, lambdas[1:]))

    def test_devices_near_region(self, cc_ota_circuit, quick_params):
        """The quadratic fence keeps devices around the region."""
        placer = XuGlobalPlacer(cc_ota_circuit, quick_params)
        result = placer.place()
        margin = placer.region * 0.25
        assert np.all(result.placement.x > -margin)
        assert np.all(result.placement.x < placer.region + margin)

    def test_flow_trails_eplace_a_on_area(self):
        """The Table III claim at small scale: over a few circuits the
        [11]-style flow averages more area than end-to-end ePlace-A."""
        from repro.api import place_eplace_a, place_xu_ispd19
        from repro.circuits import cc_ota, cm_ota1, comp2
        from repro.eplace import EPlaceParams
        from repro.legalize import DetailedParams

        gp = EPlaceParams(max_iters=150, min_iters=30, bins=16,
                          utilization=0.8, eta=0.3)
        dp = DetailedParams(iterate_rounds=2, refine_rounds=2)
        ratio = 0.0
        circuits = (cc_ota, cm_ota1, comp2)
        for make in circuits:
            xu = place_xu_ispd19(make())
            ep = place_eplace_a(make(), gp_params=gp, dp_params=dp)
            ratio += xu.metrics()["area"] / ep.metrics()["area"]
        assert ratio / len(circuits) > 1.0
