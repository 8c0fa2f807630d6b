"""Kernel-based solver for nonlinear degenerate advection-diffusion equations.

Spatial derivatives are represented through exponentially decaying kernel
convolutions (evaluated in O(N) by recursive sweeps) whose truncated operator
series, combined with explicit SSP Runge-Kutta stepping, give a scheme that
is unconditionally stable up to third order for a suitable stabilization
parameter beta.
"""

from .core import (Boundary, Grid1D, Grid2D, ProblemSpec, ProblemSpec2D,
                   SchemeConfig, SolutionField, WaveBounds, build_grid_1d,
                   build_grid_2d, compute_bounds, compute_dt, initial_field_2d)
from .kernelops import KernelParams, local_integrals, sweep_left
from .operator import build_H, flux_split
from .problems import (BenchmarkCase, ErrorReport, barenblatt, error_norms,
                       exact_advdiff, make_problem, reference_solution,
                       solve_case)
from .stability import (EquationKind, StabilityReport, amplification,
                        compute_report, export_contours, scan_beta_max)
from .timestep import UnstableSolution, advance, rk_step

__version__ = "0.1.0"

__all__ = [
    "Boundary", "Grid1D", "Grid2D", "ProblemSpec", "SchemeConfig",
    "SolutionField", "WaveBounds", "build_grid_1d", "build_grid_2d",
    "compute_bounds", "compute_dt",
    "KernelParams", "local_integrals", "sweep_left",
    "build_H", "flux_split",
    "BenchmarkCase", "ErrorReport", "barenblatt", "error_norms",
    "exact_advdiff", "make_problem", "reference_solution", "solve_case",
    "ProblemSpec2D", "initial_field_2d",
    "EquationKind", "StabilityReport", "amplification",
    "compute_report", "export_contours", "scan_beta_max",
    "UnstableSolution", "advance", "rk_step",
]
