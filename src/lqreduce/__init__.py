"""Hamiltonian reduction of singular linear-quadratic optimal control problems.

The package turns an LQ problem whose control cost R is singular — so the
stationarity conditions of the maximum principle cannot be solved for the
controls directly — into a consistent reduced Hamiltonian system: the final
constraint subspace, a partial optimal feedback law for the solvable
control combinations, the residual gauge controls, and the first/second
class split of the constraints.  The names below are what a user of the
reducer needs; internals are imported from their modules, such as
``lqreduce.reduction.step`` or ``lqreduce.classify.poisson_brackets``.
"""

from .errors import (
    AsymmetricQ,
    AsymmetricR,
    DimensionMismatch,
    EmptySubspace,
    InsufficientData,
    InvalidShape,
    InvalidTolerance,
    LQReduceError,
    NonConvergence,
    NonFiniteEntry,
    ValidationError,
)
from .experiments import (
    ExperimentRecord,
    fit_loglog_slope,
    gen_exp1,
    gen_exp2,
    gen_exp3,
    make_problem,
    perturb,
    run_sweep,
)
from .linalg import DEFAULT_TOL, independent_rows, subspace_angle
from .model import (
    InitialMatrices,
    LQProblem,
    initial_matrices,
    pontryagin_hamiltonian,
    validate,
)
from .oracle import OracleResult, compare_final_subspaces, recursive_reduce
from .reduction import ReductionResult, reduce

__all__ = [
    "DEFAULT_TOL",
    "AsymmetricQ",
    "AsymmetricR",
    "DimensionMismatch",
    "EmptySubspace",
    "ExperimentRecord",
    "InitialMatrices",
    "InsufficientData",
    "InvalidShape",
    "InvalidTolerance",
    "LQProblem",
    "LQReduceError",
    "NonConvergence",
    "NonFiniteEntry",
    "OracleResult",
    "ReductionResult",
    "ValidationError",
    "compare_final_subspaces",
    "fit_loglog_slope",
    "gen_exp1",
    "gen_exp2",
    "gen_exp3",
    "independent_rows",
    "initial_matrices",
    "make_problem",
    "perturb",
    "pontryagin_hamiltonian",
    "recursive_reduce",
    "reduce",
    "run_sweep",
    "subspace_angle",
    "validate",
]

__version__ = "0.1.0"
