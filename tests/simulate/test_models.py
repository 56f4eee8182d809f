"""Closed-form performance model tests: monotonicity and calibration."""

import numpy as np
import pytest

from repro.annealing import SAParams
from repro.api import place
from repro.circuits import PAPER_TESTCASES, make
from repro.simulate import fom, net_length, simulate, spec_of
from repro.simulate.helpers import aggressor_coupling, coupling_pairs


@pytest.fixture(scope="module")
def conv_placements():
    return {name: place(make(name), "eplace-a").placement
            for name in ("CC-OTA", "Comp1", "VCO1", "SCF", "VGA",
                         "Adder")}


class TestDispatch:
    @pytest.mark.parametrize("name", PAPER_TESTCASES)
    def test_all_circuits_simulate(self, name):
        placement = place(make(name), "annealing",
                          params=__import__(
                              "repro.annealing",
                              fromlist=["SAParams"]).SAParams(
                              iterations=400, seed=1)).placement
        metrics = simulate(placement)
        spec = spec_of(placement)
        assert set(metrics) == set(spec.names)
        assert all(np.isfinite(v) for v in metrics.values())
        assert 0.0 <= spec.fom(metrics) <= 1.0

    def test_unknown_family_raises(self, tiny_circuit):
        from repro.placement import Placement

        tiny_circuit.metadata["family"] = "mystery"
        with pytest.raises(KeyError, match="unknown family"):
            simulate(Placement.zeros(tiny_circuit))


class TestMonotonicity:
    def test_spreading_critical_devices_degrades(self, conv_placements):
        """Scaling the whole layout up lengthens critical nets and
        must not improve any circuit's FOM by much."""
        for name, placement in conv_placements.items():
            scaled = placement.copy()
            cx, cy = scaled.x.mean(), scaled.y.mean()
            scaled.x = cx + 3.0 * (scaled.x - cx)
            scaled.y = cy + 3.0 * (scaled.y - cy)
            assert fom(scaled) < fom(placement) + 1e-9, name

    def test_asymmetry_degrades(self, conv_placements):
        for name, placement in conv_placements.items():
            broken = placement.copy()
            group = placement.circuit.constraints.symmetry_groups[0]
            i = placement.circuit.index_of(group.pairs[0][0])
            broken.y[i] += 2.0
            assert fom(broken) < fom(placement), name

    def test_coupling_isolation_helps(self, conv_placements):
        """Separating aggressors from victims reduces the coupling
        penalty on the targeted metric — the mechanism behind the
        paper's perf-driven area growth."""
        placement = conv_placements["Comp1"]
        victims, aggressors = coupling_pairs(placement.circuit)
        spread = placement.copy()
        spread.y[aggressors] -= 3.0  # modest isolation move
        assert aggressor_coupling(spread) < aggressor_coupling(
            placement)
        assert simulate(spread)["offset_mv"] < \
            simulate(placement)["offset_mv"]


class TestCalibration:
    def test_ccota_matches_paper_table6(self, conv_placements):
        """Conventional ePlace-A on CC-OTA reproduces Table VI's row."""
        metrics = simulate(conv_placements["CC-OTA"])
        assert metrics["gain_db"] == pytest.approx(26.2, abs=0.6)
        assert metrics["ugf_mhz"] == pytest.approx(975, rel=0.06)
        assert metrics["bw_mhz"] == pytest.approx(48.2, rel=0.08)
        assert metrics["pm_deg"] == pytest.approx(84.4, abs=2.5)

    def test_conventional_fom_near_paper(self, conv_placements):
        paper = {"CC-OTA": 0.86, "Comp1": 0.77, "VCO1": 0.76,
                 "SCF": 0.83, "VGA": 0.77, "Adder": 0.85}
        for name, placement in conv_placements.items():
            assert fom(placement) == pytest.approx(paper[name],
                                                   abs=0.03), name


class TestNonFinitePins:
    """A NaN or infinite pin fails loudly instead of a NaN FOM."""

    @staticmethod
    def _broken(bad):
        placement = place(make("CC-OTA"), "annealing",
                          params=SAParams(iterations=200, seed=1)
                          ).placement
        circuit = placement.circuit
        net = next(n for n in circuit.nets
                   if n.critical and n.degree >= 2)
        dev = circuit.device_index()[net.terminals[0].device]
        placement.x[dev] = bad
        return placement, net.name

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_net_length_names_circuit_and_net(self, bad):
        placement, name = self._broken(bad)
        with pytest.raises(ValueError, match=(
                f"circuit 'CC-OTA', net '{name}': "
                r"\d+ of \d+ terminal coordinates are non-finite")):
            net_length(placement, name)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fom_raises(self, bad):
        placement, _ = self._broken(bad)
        with pytest.raises(ValueError, match="non-finite"):
            fom(placement)
