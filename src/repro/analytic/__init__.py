"""Differentiable building blocks for analytical placement.

Smoothers (WA/LSE wirelength, WA area), constraint penalties, the two
density models (electrostatic eDensity and NTUplace3 bell-shaped), and
the NLP solvers (Nesterov, conjugate gradient).
"""

from .area import area_term
from .bell import BellDensityGrid, bell_profile
from .cg import CGResult, conjugate_gradient
from .density import DensityGrid, poisson_solve_dct
from .gradcheck import finite_difference_grad, max_grad_error
from .lse import lse_wirelength
from .nesterov import NesterovOptimizer, StepInfo, same_bits
from .netarrays import NetArrays
from .penalties import ConstraintPenalties
from .wa import wa_wirelength

__all__ = [
    "BellDensityGrid",
    "CGResult",
    "ConstraintPenalties",
    "DensityGrid",
    "NesterovOptimizer",
    "NetArrays",
    "StepInfo",
    "area_term",
    "bell_profile",
    "conjugate_gradient",
    "finite_difference_grad",
    "lse_wirelength",
    "max_grad_error",
    "poisson_solve_dct",
    "same_bits",
    "wa_wirelength",
]
