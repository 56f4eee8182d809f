"""The one-pass feature encoder against the per-column reference.

``FeatureEncoder`` shares one smooth-distance matrix between both
interaction columns, takes the critical-net spans as a slice of one
value-only WA pass over every net, and hands ``phi_and_grad`` a tape of
its forward pass instead of recomputing it in the backward pass.  None
of that may change a bit: these tests hold features, position
gradients and every model inference entry point to
``tests.reference.features`` with ``np.array_equal`` on all paper
testcases, with and without device flips.  That includes the
critical-net columns as they are today (``adj_crit`` reads the nets'
``critical`` flags, ``nets_crit`` the model metadata).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.annealing import SAParams, anneal_place
from repro.circuits import PAPER_TESTCASES, make
from repro.gnn import FeatureEncoder, PerformanceModel, generate_dataset
from repro.gnn.features import _clique_adjacency
from repro.netlist import Circuit, Device, DeviceType, Net
from repro.placement import Placement

from ..reference import features as ref


def _coords(circuit, rng) -> tuple[np.ndarray, np.ndarray]:
    """Random device centres over a region a few layouts wide."""
    n = circuit.num_devices
    side = 2.0 * np.sqrt(circuit.total_device_area())
    return rng.uniform(0, side, n), rng.uniform(0, side, n)


def _flips(n: int, rng, flipped: bool):
    if not flipped:
        return None, None
    return rng.random(n) < 0.5, rng.random(n) < 0.5


@pytest.fixture(scope="module")
def quick_models() -> dict[str, PerformanceModel]:
    """One briefly trained two-member ensemble per paper testcase."""
    models = {}
    for name in PAPER_TESTCASES:
        circuit = make(name)
        seed = anneal_place(circuit, SAParams(iterations=300, seed=1))
        dataset = generate_dataset(seed.placement, samples=24, seed=1)
        model = PerformanceModel(circuit, hidden=8, seed=1, ensemble=2)
        model.train(dataset, epochs=2, batch=8)
        models[name] = model
    return models


@pytest.mark.parametrize("flipped", [False, True])
@pytest.mark.parametrize("name", PAPER_TESTCASES)
def test_features_and_position_grad_match_reference(name, flipped):
    circuit = make(name)
    enc = FeatureEncoder(circuit)
    rng = np.random.default_rng(7)
    n = circuit.num_devices
    for _ in range(5):
        x, y = _coords(circuit, rng)
        flip_x, flip_y = _flips(n, rng, flipped)
        feats = enc.encode_xy(x, y, flip_x, flip_y)
        assert np.array_equal(
            feats, ref.encode_xy(enc, x, y, flip_x, flip_y))
        tape_feats, tape = enc.forward(x, y, flip_x, flip_y)
        assert np.array_equal(tape_feats, feats)

        grad = rng.normal(size=feats.shape)
        want_x, want_y = ref.position_grad(
            enc, grad, x, y, flip_x, flip_y)
        gx, gy = enc.position_grad(grad, x, y, flip_x, flip_y)
        assert np.array_equal(gx, want_x)
        assert np.array_equal(gy, want_y)
        gx, gy = enc.backward(grad, tape)
        assert np.array_equal(gx, want_x)
        assert np.array_equal(gy, want_y)


@pytest.mark.parametrize("name", PAPER_TESTCASES)
def test_model_inference_matches_reference(quick_models, name):
    model = quick_models[name]
    enc = model.encoder
    circuit = model.circuit
    rng = np.random.default_rng(11)
    n = circuit.num_devices
    for _ in range(3):
        x, y = _coords(circuit, rng)
        assert model.phi(x, y) == model._phi_from_feats(
            ref.encode_xy(enc, x, y))

        flip_x, flip_y = _flips(n, rng, True)
        placement = Placement(circuit, x, y, flip_x, flip_y)
        assert model.phi_placement(placement) == model._phi_from_feats(
            ref.encode_xy(enc, x, y, flip_x, flip_y))

        phi, gx, gy = model.phi_and_grad(x, y)
        want_phi, want_x, want_y = ref.phi_and_grad(model, x, y)
        assert phi == want_phi
        assert np.array_equal(gx, want_x)
        assert np.array_equal(gy, want_y)


# -- clique-model adjacency ----------------------------------------------


def test_clique_adjacency_weights(tiny_circuit):
    adj = _clique_adjacency(tiny_circuit, critical_only=False)
    index = tiny_circuit.device_index()
    assert adj.shape == (4, 4)
    assert np.array_equal(adj, adj.T)
    # n2 (weight 2, degree 3) contributes 2*2/3 to each pair
    assert adj[index["B"], index["C"]] == pytest.approx(4.0 / 3.0)
    assert adj[index["C"], index["D"]] == pytest.approx(4.0 / 3.0)
    # n1 (weight 1, degree 2) contributes 1.0
    assert adj[index["A"], index["C"]] == pytest.approx(1.0)
    # only n2 is critical
    crit = _clique_adjacency(tiny_circuit, critical_only=True)
    assert crit[index["A"], index["C"]] == 0.0
    assert crit[index["B"], index["D"]] == pytest.approx(4.0 / 3.0)


def test_parallel_nets_accumulate_clique_weight():
    c = Circuit("c")
    for name in ("A", "B"):
        c.add_device(Device(name, DeviceType.NMOS, width=2.0, height=2.0))
    c.add_net(Net("n1", ["A", "B"]))
    c.add_net(Net("n2", ["A", "B"]))
    adj = _clique_adjacency(c, critical_only=False)
    assert adj[0, 1] == pytest.approx(2.0)
    assert adj[1, 0] == pytest.approx(2.0)
