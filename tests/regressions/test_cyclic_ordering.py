"""Cyclic ordering chains are rejected before any placement work.

Shrunk from Comp1 with the chains ``(MB1, MB2)`` and ``(MB2, MB1)``
on one axis.  Validation used to accept them, so ePlace-A ran its
whole global placement before ``legalize.pairs`` raised a bare
``ValueError``; :meth:`Circuit.validate` now names the cycle up front.
"""

from __future__ import annotations

import pytest

from repro.api import place
from repro.circuits import PAPER_TESTCASES, make, random_circuit
from repro.netlist import Circuit, CircuitError, OrderingChain

#: the two opposing chains of the original Comp1 reproduction
_CYCLE = (OrderingChain(("MB1", "MB2")), OrderingChain(("MB2", "MB1")))


@pytest.fixture
def shrunk():
    """The two Comp1 devices on the cycle, and nothing else."""
    comp1 = make("Comp1")
    circuit = Circuit("comp1-cyclic-ordering")
    for name in ("MB1", "MB2"):
        circuit.add_device(comp1.devices[name])
    circuit.constraints.orderings.extend(_CYCLE)
    return circuit


def test_shrunk_cycle_is_named(shrunk):
    with pytest.raises(CircuitError, match="cyclic through") as info:
        shrunk.validate()
    assert "'MB1'" in str(info.value) and "'MB2'" in str(info.value)


def test_place_fails_before_global_placement():
    circuit = make("Comp1")
    circuit.constraints.orderings.extend(_CYCLE)
    with pytest.raises(CircuitError, match="cyclic through"):
        place(circuit, "eplace-a")


def test_generated_circuits_still_validate():
    for name in PAPER_TESTCASES:
        make(name).validate()
    for seed in range(500):
        random_circuit(seed).validate()
