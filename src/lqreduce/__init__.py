"""Hamiltonian reduction of singular linear-quadratic optimal control problems.

The package turns an LQ problem whose control cost R is singular — so the
stationarity conditions of the maximum principle cannot be solved for the
controls directly — into a consistent reduced Hamiltonian system: the final
constraint subspace, a partial optimal feedback law for the solvable
control combinations, the residual gauge controls, and the first/second
class split of the constraints.
"""

from .classify import (
    poisson_brackets,
    split_first_second,
)
from .constraints import (
    ConstraintMatrix,
    apply_feedback_to_constraints,
    strip_coisotropic,
)
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
from .linalg import (
    DEFAULT_TOL,
    equilibrate_rows,
    extend_rows,
    independent_rows,
    numerical_ker,
    rank_tol,
    subspace_angle,
    symplectic_matrix,
)
from .model import (
    InitialMatrices,
    LQProblem,
    initial_matrices,
    pontryagin_hamiltonian,
    validate,
)
from .oracle import OracleResult, compare_final_subspaces, recursive_reduce
from .reduction import ReductionResult, StepState, reduce, step

__all__ = [
    "DEFAULT_TOL",
    "AsymmetricQ",
    "AsymmetricR",
    "ConstraintMatrix",
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
    "StepState",
    "ValidationError",
    "apply_feedback_to_constraints",
    "compare_final_subspaces",
    "equilibrate_rows",
    "extend_rows",
    "fit_loglog_slope",
    "gen_exp1",
    "gen_exp2",
    "gen_exp3",
    "independent_rows",
    "initial_matrices",
    "make_problem",
    "numerical_ker",
    "perturb",
    "poisson_brackets",
    "pontryagin_hamiltonian",
    "rank_tol",
    "recursive_reduce",
    "reduce",
    "run_sweep",
    "split_first_second",
    "step",
    "strip_coisotropic",
    "subspace_angle",
    "symplectic_matrix",
    "validate",
]

__version__ = "0.1.0"
