"""Legalization and detailed placement: single-stage ILP (ePlace-A) and
two-stage LP (the previous analytical work [11])."""

from .ilp import (
    DEFAULT_GRID,
    DetailedParams,
    DetailedPlacementError,
    ilp_detailed_placement,
    detailed_place,
    iterate_directions,
    lns_rounds,
    refine_directions,
)
from .lp_twostage import lp_two_stage_detailed_placement
from .pairs import (
    HORIZONTAL,
    VERTICAL,
    SeparationConstraint,
    separation_constraints,
)
from .presym import presymmetrize

__all__ = [
    "DEFAULT_GRID",
    "DetailedParams",
    "DetailedPlacementError",
    "HORIZONTAL",
    "SeparationConstraint",
    "VERTICAL",
    "detailed_place",
    "ilp_detailed_placement",
    "iterate_directions",
    "lns_rounds",
    "refine_directions",
    "lp_two_stage_detailed_placement",
    "presymmetrize",
    "separation_constraints",
]
