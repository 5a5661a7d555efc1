"""Exact bracket tables for the framed vertex.

The package generates the descendant bracket tables attached to the
framed mirror curve x = y^f (1 - y) by a spectral-curve recursion in
polynomial form, entirely over exact rational functions of the framing
parameter f, and verifies the result against an independent
differential-recursive identity (the symmetrized cut-and-join equation).
"""

from .curve import CurveSeries, build_curve_series
from .curvefun import (EtaFamily, PhiTower, euler_field, phi_prime_decompose,
                       phi_prime_decompose_pair, plus_part)
from .cutjoin import CutJoinReport, CutJoinVerifier, psi_oracle
from .engine import (BracketTable, assemble_H, budget_cells, recursion_step,
                     run_to_budget, seed_initial_data, support_bound)
from .kernels import (KernelWorkspace, kernel_I, kernel_I_via_involution,
                      kernel_II, kernel_II_symmetrized)
from .ratfunc import FPolynomial, FRational
from .tpoly import TPolynomial
from .vseries import VSeries, compose_polynomial

__version__ = "0.1.0"

__all__ = [
    "BracketTable", "CurveSeries", "CutJoinReport", "CutJoinVerifier",
    "EtaFamily", "FPolynomial", "FRational", "KernelWorkspace",
    "PhiTower", "TPolynomial", "VSeries", "assemble_H", "budget_cells",
    "build_curve_series", "compose_polynomial", "euler_field",
    "kernel_I", "kernel_I_via_involution", "kernel_II",
    "kernel_II_symmetrized", "phi_prime_decompose",
    "phi_prime_decompose_pair", "plus_part", "psi_oracle",
    "recursion_step", "run_to_budget", "seed_initial_data",
    "support_bound",
]
