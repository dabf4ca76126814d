"""Kahler operator calculus and holomorphic bundles on noncommutative even tori."""

from .torus import ThetaMatrix, TorusElement, TorusMatrix, DimensionMismatch
from .clifford import GammaRep, build_gamma, charge_conjugation, grading_product_check
from .ncdiff import NCDiffOp
from .kahler import (
    KahlerPackage,
    Matching,
    build_dirac,
    build_kahler_package,
    enumerate_matchings,
    verify_distinctness,
    verify_grid,
    verify_n22,
    verify_pm_conjugation,
    verify_real_structure,
)
from .forms import (
    FormBasisMatrices,
    bidegree_decomposition_check,
    build_form_matrices,
    form_rank,
    product_map,
)
from .holomorphic import (
    Connection,
    delbar_tuple,
    flatness_check,
    grassmannian,
    h0_solve,
    holomorphic_kernel,
    morphism_check,
    ps_compare,
)
from .report import Check, VerificationReport

__version__ = "0.1.0"
