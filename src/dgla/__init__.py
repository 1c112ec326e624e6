"""Exact-rational deformation engine for finite-dimensional DGLAs.

The pipeline: describe a differential graded Lie algebra by structure
constants, validate the axioms, split each degree as boundaries + harmonic
representatives + complement, build the contraction h, and run the Hodge
package and the Maurer-Cartan machinery (fixed-point solver, Kuranishi map
and inverse, obstructions, gauge action) over truncated formal power series,
each vector held as integers over one denominator (the form dgla.linalg
owns; values are handed out as Fractions).  Every identity the library
claims is exact; there are no tolerances anywhere.
"""

__version__ = "0.1.0"

from .algebra import (
    DGLA,
    ValidationIssue,
    ValidationReport,
    antisymmetric_closure,
    koszul_sign,
    validate_dgla,
)
from .catalog import BUILTIN_NAMES, builtin_example
from .deform import (
    MCSolution,
    contraction_step,
    gauge_act,
    gauge_equivalent,
    gauge_fix,
    kuranishi_inverse,
    kuranishi_map,
    obstruction,
    solve_by_recursion,
    solve_mc_ivp,
    universal_solution,
)
from .formal import CoefficientRing, FormalElement
from .graded import GradedLinearMap
from .hodge import check_cartan
from .linalg import (
    Matrix,
    SubspaceBasis,
    complement_basis,
    image_basis,
    kernel_basis,
    solve_linear,
)
from .sdr import (
    SDRData,
    Splitting,
    build_contraction,
    build_splitting,
    verify_sdr,
)

__all__ = [
    "BUILTIN_NAMES",
    "CoefficientRing",
    "DGLA",
    "FormalElement",
    "GradedLinearMap",
    "MCSolution",
    "Matrix",
    "SDRData",
    "Splitting",
    "SubspaceBasis",
    "ValidationIssue",
    "ValidationReport",
    "antisymmetric_closure",
    "koszul_sign",
    "build_contraction",
    "build_splitting",
    "builtin_example",
    "check_cartan",
    "complement_basis",
    "contraction_step",
    "gauge_act",
    "gauge_equivalent",
    "gauge_fix",
    "image_basis",
    "kernel_basis",
    "kuranishi_inverse",
    "kuranishi_map",
    "obstruction",
    "solve_by_recursion",
    "solve_linear",
    "solve_mc_ivp",
    "universal_solution",
    "validate_dgla",
    "verify_sdr",
]
