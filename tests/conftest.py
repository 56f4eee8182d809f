"""Shared fixtures: small circuits and fast placer configurations."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

# Randomized property search is the default again: the two pre-seed
# solver bugs it had found (ILP seed-1482 infeasibility, Steiner
# translation variance) are fixed with regression tests, so fresh
# entropy hunts new counterexamples instead of rediscovering known
# ones.  HYPOTHESIS_PROFILE=ci pins the derandomized profile for
# bisection and flake reproduction.
settings.register_profile("ci", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "explore"))

from repro.annealing import SAParams
from repro.circuits import adder, cc_ota, comp1, vco1
from repro.eplace import EPlaceParams
from repro.legalize import DetailedParams
from repro.netlist import (
    Circuit,
    Device,
    DeviceType,
    Net,
    Pin,
    SymmetryGroup,
)


@pytest.fixture
def cc_ota_circuit():
    return cc_ota()


@pytest.fixture
def comp1_circuit():
    return comp1()


@pytest.fixture
def adder_circuit():
    return adder()


@pytest.fixture
def vco1_circuit():
    return vco1()


@pytest.fixture
def fast_gp_params():
    """Global-placement settings tuned for test speed, not quality."""
    return EPlaceParams(max_iters=120, min_iters=20, bins=16)


@pytest.fixture
def fast_dp_params():
    """Detailed-placement settings without the LNS refinement."""
    return DetailedParams(iterate_rounds=1, refine_rounds=0,
                          time_limit_s=20.0)


@pytest.fixture
def fast_sa_params():
    return SAParams(iterations=1500, seed=2)


@pytest.fixture
def tiny_circuit():
    """Four devices, two nets, one symmetry pair — hand-checkable."""
    circuit = Circuit(name="tiny")
    for name in ("A", "B"):
        circuit.add_device(Device(
            name=name, dtype=DeviceType.NMOS, width=2.0, height=2.0,
            pins={"p": Pin("p", 0.4, 1.0)},
        ))
    circuit.add_device(Device(
        name="C", dtype=DeviceType.CAPACITOR, width=4.0, height=2.0,
        pins={"p": Pin("p", 0.4, 1.0), "n": Pin("n", 3.6, 1.0)},
    ))
    circuit.add_device(Device(
        name="D", dtype=DeviceType.RESISTOR, width=2.0, height=4.0,
        pins={"p": Pin("p", 1.0, 3.6), "n": Pin("n", 1.0, 0.4)},
    ))
    circuit.add_net(Net("n1", [("A", "p"), ("C", "p")]))
    circuit.add_net(Net("n2", [("B", "p"), ("C", "n"), ("D", "p")],
                        weight=2.0, critical=True))
    circuit.constraints.symmetry_groups.append(
        SymmetryGroup(name="s", pairs=(("A", "B"),))
    )
    circuit.validate()
    return circuit


@pytest.fixture
def rng():
    return np.random.default_rng(42)
