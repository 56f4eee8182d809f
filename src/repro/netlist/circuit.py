"""Circuit container: devices, nets, constraints and derived indices."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import Axis, ConstraintSet
from .device import Device
from .net import Net
from .order import find_cycle


class CircuitError(ValueError):
    """Raised when a circuit fails validation."""


@dataclass
class Circuit:
    """A placement problem instance.

    Holds the devices (by insertion order, which fixes the index used by
    all vectorised placement code), the nets, the analog geometric
    constraints and optional metadata (performance specs live in
    :mod:`repro.perf`).
    """

    name: str
    devices: dict[str, Device] = field(default_factory=dict)
    nets: list[Net] = field(default_factory=list)
    constraints: ConstraintSet = field(default_factory=ConstraintSet)
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_device(self, device: Device) -> Device:
        """Register a device; names must be unique."""
        if device.name in self.devices:
            raise CircuitError(
                f"circuit {self.name!r}: duplicate device {device.name!r}"
            )
        self.devices[device.name] = device
        return device

    def add_net(self, net: Net) -> Net:
        """Register a net; names must be unique."""
        if any(existing.name == net.name for existing in self.nets):
            raise CircuitError(
                f"circuit {self.name!r}: duplicate net {net.name!r}"
            )
        self.nets.append(net)
        return net

    # ------------------------------------------------------------------
    # indices and views
    # ------------------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def num_nets(self) -> int:
        return len(self.nets)

    @property
    def device_names(self) -> list[str]:
        """Device names in index order."""
        return list(self.devices)

    def index_of(self, device_name: str) -> int:
        """Index of a device in the canonical ordering."""
        try:
            return self.device_names.index(device_name)
        except ValueError:
            raise CircuitError(
                f"circuit {self.name!r} has no device {device_name!r}"
            ) from None

    def device_index(self) -> dict[str, int]:
        """Mapping from device name to canonical index."""
        return {name: i for i, name in enumerate(self.devices)}

    def sizes(self) -> tuple[np.ndarray, np.ndarray]:
        """Width and height vectors in index order."""
        widths = np.array([d.width for d in self.devices.values()])
        heights = np.array([d.height for d in self.devices.values()])
        return widths, heights

    def total_device_area(self) -> float:
        """Sum of device rectangle areas."""
        return float(sum(d.area for d in self.devices.values()))

    def net_pin_arrays(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-net arrays ``(device_indices, pin_off_x, pin_off_y)``.

        Pin offsets are measured from the device *centre* (not the
        lower-left corner) so pin positions are ``centre + offset``;
        unflipped orientation is assumed.  Vectorised wirelength code in
        :mod:`repro.placement.metrics` and the analytic smoothers consume
        this layout.
        """
        index = self.device_index()
        out = []
        for net in self.nets:
            idx = np.array([index[t.device] for t in net.terminals], dtype=int)
            offx = np.array(
                [
                    self.devices[t.device].pin(t.pin).offset_x
                    - self.devices[t.device].width / 2.0
                    for t in net.terminals
                ]
            )
            offy = np.array(
                [
                    self.devices[t.device].pin(t.pin).offset_y
                    - self.devices[t.device].height / 2.0
                    for t in net.terminals
                ]
            )
            out.append((idx, offx, offy))
        return out

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check referential integrity; raise :class:`CircuitError`."""
        if not self.devices:
            raise CircuitError(f"circuit {self.name!r} has no devices")
        for net in self.nets:
            for term in net.terminals:
                if term.device not in self.devices:
                    raise CircuitError(
                        f"net {net.name!r} references unknown device "
                        f"{term.device!r}"
                    )
                if term.pin not in self.devices[term.device].pins:
                    raise CircuitError(
                        f"net {net.name!r} references unknown pin "
                        f"{term.pin!r} of device {term.device!r}"
                    )
        unknown = self.constraints.constrained_devices() - set(self.devices)
        if unknown:
            raise CircuitError(
                f"constraints reference unknown devices: {sorted(unknown)}"
            )
        for group in self.constraints.symmetry_groups:
            for a, b in group.pairs:
                da, db = self.devices[a], self.devices[b]
                if da.dtype != db.dtype:
                    raise CircuitError(
                        f"symmetry pair ({a!r}, {b!r}) mixes device types "
                        f"{da.dtype.value} and {db.dtype.value}"
                    )
                if (da.width, da.height) != (db.width, db.height):
                    raise CircuitError(
                        f"symmetry pair ({a!r}, {b!r}) has mismatched "
                        f"dimensions {da.width}x{da.height} vs "
                        f"{db.width}x{db.height}"
                    )
        seen: set[str] = set()
        for group in self.constraints.symmetry_groups:
            overlap = seen & set(group.devices)
            if overlap:
                raise CircuitError(
                    f"device(s) {sorted(overlap)} appear in more than one "
                    "symmetry group"
                )
            seen.update(group.devices)
        for axis in Axis:
            cycle = find_cycle(
                edge
                for chain in self.constraints.orderings
                if chain.axis is axis
                for edge in chain.pairs
            )
            if cycle is not None:
                raise CircuitError(
                    f"{axis.value} ordering chains are cyclic through "
                    f"{cycle}; no placement can satisfy them"
                )

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, devices={self.num_devices}, "
            f"nets={self.num_nets}, "
            f"symmetry_groups={len(self.constraints.symmetry_groups)})"
        )
