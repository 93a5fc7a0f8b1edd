"""Solver and verification harness for anisotropic doubly nonlinear
parabolic problems with truncation-regularized approximations."""

from .model import (
    Exponents,
    BarExponents,
    CoefficientSpec,
    ProblemSpec,
    compute_bar_exponents,
    check_admissibility,
    truncate,
)
from .discretization import Grid, ScalarField, TimeSeries
from .solver import (
    SolverConfig,
    SolveReport,
    StepFailure,
    implicit_step,
    solve_problem,
    manufactured_rhs,
    regularization_cascade,
    ordering_tolerance,
)

__version__ = "0.1.0"
