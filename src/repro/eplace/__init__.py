"""ePlace-A global placement (the paper's new analytical technique)."""

from .global_place import EPlaceGlobalPlacer, eplace_global
from .hard_symmetry import HardSymmetryMap
from .params import EPlaceParams

__all__ = [
    "EPlaceGlobalPlacer",
    "EPlaceParams",
    "HardSymmetryMap",
    "eplace_global",
]
