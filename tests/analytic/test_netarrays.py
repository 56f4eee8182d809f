"""NetArrays segment-machinery tests."""

import numpy as np
import pytest

from repro.analytic import NetArrays


def test_excludes_singleton_nets(cc_ota_circuit):
    arrays = NetArrays(cc_ota_circuit)
    wire_nets = [n for n in cc_ota_circuit.nets if n.degree >= 2]
    assert arrays.num_nets == len(wire_nets)
    assert arrays.num_pins == sum(n.degree for n in wire_nets)


def test_include_filter(cc_ota_circuit):
    crit = NetArrays(cc_ota_circuit, include=lambda n: n.critical)
    assert crit.num_nets == sum(
        1 for n in cc_ota_circuit.nets if n.critical and n.degree >= 2)
    assert set(crit.net_names) <= {
        n.name for n in cc_ota_circuit.nets if n.critical}


def test_pin_net_segments_consistent(cc_ota_circuit):
    arrays = NetArrays(cc_ota_circuit)
    # pin_net must be non-decreasing and match starts
    assert np.all(np.diff(arrays.pin_net) >= 0)
    for k, start in enumerate(arrays.starts):
        assert arrays.pin_net[start] == k


def test_segment_reductions(tiny_circuit):
    arrays = NetArrays(tiny_circuit)
    values = np.arange(arrays.num_pins, dtype=float)
    sums = arrays.segment_sum(values)
    maxs = arrays.segment_max(values)
    mins = arrays.segment_min(values)
    # net n1 has 2 pins, net n2 has 3
    assert sums.tolist() == [0 + 1, 2 + 3 + 4]
    assert maxs.tolist() == [1, 4]
    assert mins.tolist() == [0, 2]


def test_scatter_to_devices(tiny_circuit):
    arrays = NetArrays(tiny_circuit)
    ones = np.ones(arrays.num_pins)
    per_device = arrays.scatter_to_devices(ones)
    # device pin counts: A=1, B=1, C=2, D=1
    assert per_device.tolist() == [1.0, 1.0, 2.0, 1.0]


def test_exact_hpwl_weighted(tiny_circuit, rng):
    from repro.placement import Placement, hpwl

    arrays = NetArrays(tiny_circuit)
    x = rng.uniform(0, 10, 4)
    y = rng.uniform(0, 10, 4)
    assert arrays.exact_hpwl(x, y) == pytest.approx(
        hpwl(Placement(tiny_circuit, x, y)))


def test_scatter_to_devices_equals_add_at(cc_ota_circuit, rng):
    arrays = NetArrays(cc_ota_circuit)
    values = rng.normal(size=arrays.num_pins)
    want = np.zeros(cc_ota_circuit.num_devices)
    np.add.at(want, arrays.pin_dev, values)
    assert np.array_equal(arrays.scatter_to_devices(values), want)


def test_tiled_pass_is_each_copy_bitwise(cc_ota_circuit, rng):
    """One WA pass over the x pins then the y pins of the tiled layout
    gives each axis's spans and pin gradients bit for bit."""
    from repro.analytic.wa import _wa_axis, wa_span

    arrays = NetArrays(cc_ota_circuit)
    tiled = arrays.tiled(2)
    assert tiled.num_nets == 2 * arrays.num_nets
    assert tiled.num_pins == 2 * arrays.num_pins
    e, p = arrays.num_nets, arrays.num_pins
    px = rng.uniform(0, 10, p)
    py = rng.uniform(0, 10, p)
    spans, grads = _wa_axis(tiled, np.concatenate((px, py)), 0.4)
    for k, coords in enumerate((px, py)):
        want_span, want_grad = _wa_axis(arrays, coords, 0.4)
        assert np.array_equal(spans[k * e:(k + 1) * e], want_span)
        assert np.array_equal(grads[k * p:(k + 1) * p], want_grad)
        assert np.array_equal(wa_span(arrays, coords, 0.4), want_span)
