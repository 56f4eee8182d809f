"""Circuit container unit tests."""

import pytest

from repro.netlist import (
    Axis,
    Circuit,
    CircuitError,
    Device,
    DeviceType,
    Net,
    OrderingChain,
    SymmetryGroup,
)


def _mos(name, w=2.0, h=2.0):
    return Device(name, DeviceType.NMOS, width=w, height=h)


def test_duplicate_device_rejected():
    c = Circuit("c")
    c.add_device(_mos("A"))
    with pytest.raises(CircuitError, match="duplicate device"):
        c.add_device(_mos("A"))


def test_duplicate_net_rejected():
    c = Circuit("c")
    c.add_device(_mos("A"))
    c.add_net(Net("n", ["A"]))
    with pytest.raises(CircuitError, match="duplicate net"):
        c.add_net(Net("n", ["A"]))


def test_validate_unknown_device_in_net():
    c = Circuit("c")
    c.add_device(_mos("A"))
    c.add_net(Net("n", ["A", "B"]))
    with pytest.raises(CircuitError, match="unknown device 'B'"):
        c.validate()


def test_validate_unknown_pin():
    c = Circuit("c")
    c.add_device(_mos("A"))
    c.add_net(Net("n", [("A", "nopin")]))
    with pytest.raises(CircuitError) as info:
        c.validate()
    message = str(info.value)
    assert "'n'" in message and "'A'" in message and "'nopin'" in message


def test_validate_unknown_constraint_device():
    c = Circuit("c")
    c.add_device(_mos("A"))
    c.constraints.symmetry_groups.append(
        SymmetryGroup("g", pairs=(("A", "Z"),))
    )
    with pytest.raises(CircuitError, match="unknown devices"):
        c.validate()


def test_validate_mismatched_pair_dimensions():
    c = Circuit("c")
    c.add_device(_mos("A", w=2.0))
    c.add_device(_mos("B", w=4.0))
    c.constraints.symmetry_groups.append(
        SymmetryGroup("g", pairs=(("A", "B"),))
    )
    with pytest.raises(CircuitError, match="mismatched"):
        c.validate()


def test_validate_mixed_type_pair():
    c = Circuit("c")
    c.add_device(_mos("MN"))
    c.add_device(Device("MP", DeviceType.PMOS, width=2.0, height=2.0))
    c.constraints.symmetry_groups.append(
        SymmetryGroup("g", pairs=(("MN", "MP"),))
    )
    with pytest.raises(CircuitError, match="device types") as info:
        c.validate()
    assert "'MN'" in str(info.value) and "'MP'" in str(info.value)


def test_validate_device_in_two_groups():
    c = Circuit("c")
    for name in ("A", "B", "C"):
        c.add_device(_mos(name))
    c.constraints.symmetry_groups.append(
        SymmetryGroup("g1", pairs=(("A", "B"),)))
    c.constraints.symmetry_groups.append(
        SymmetryGroup("g2", pairs=(("A", "C"),)))
    with pytest.raises(CircuitError, match="more than one"):
        c.validate()


def test_validate_cyclic_ordering_chains():
    c = Circuit("c")
    for name in ("A", "B", "C"):
        c.add_device(_mos(name))
    c.constraints.orderings.append(OrderingChain(("A", "B")))
    c.constraints.orderings.append(OrderingChain(("B", "C")))
    c.validate()  # one order split over two chains is fine
    c.constraints.orderings.append(OrderingChain(("C", "A")))
    with pytest.raises(CircuitError, match="cyclic") as info:
        c.validate()
    message = str(info.value)
    assert "'A'" in message and "'B'" in message and "'C'" in message


def test_validate_opposite_orderings_on_different_axes():
    c = Circuit("c")
    for name in ("A", "B"):
        c.add_device(_mos(name))
    c.constraints.orderings.append(
        OrderingChain(("A", "B"), axis=Axis.VERTICAL))
    c.constraints.orderings.append(
        OrderingChain(("B", "A"), axis=Axis.HORIZONTAL))
    c.validate()


def test_empty_circuit_invalid():
    with pytest.raises(CircuitError, match="no devices"):
        Circuit("c").validate()


def test_index_and_sizes(tiny_circuit):
    assert tiny_circuit.index_of("C") == 2
    widths, heights = tiny_circuit.sizes()
    assert widths.tolist() == [2.0, 2.0, 4.0, 2.0]
    assert heights.tolist() == [2.0, 2.0, 2.0, 4.0]
    assert tiny_circuit.total_device_area() == pytest.approx(24.0)


def test_index_of_unknown():
    c = Circuit("c")
    c.add_device(_mos("A"))
    with pytest.raises(CircuitError, match="no device"):
        c.index_of("Z")


def test_net_pin_arrays_offsets_from_centre(tiny_circuit):
    arrays = tiny_circuit.net_pin_arrays()
    idx, offx, offy = arrays[0]  # net n1: A.p, C.p
    assert idx.tolist() == [0, 2]
    # A.p at (0.4, 1.0) of a 2x2 device -> centre offset (-0.6, 0.0)
    assert offx[0] == pytest.approx(-0.6)
    assert offy[0] == pytest.approx(0.0)


def test_repr_mentions_counts(tiny_circuit):
    text = repr(tiny_circuit)
    assert "devices=4" in text
    assert "nets=2" in text
