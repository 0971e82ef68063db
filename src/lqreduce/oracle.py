"""Plain recursive constraints algorithm, used as an independent reference.

No feedback, no symplectic extension: the dynamics G0, Z0 are never
modified.  At each pass the full accumulated constraint set over (x, p, u)
is differentiated along the flow with a free control derivative; the
conditions that no choice of control derivative can absorb (the left null
space of the stacked control coefficients) become the next constraints.
The two algorithms find the same final subspace, which is what
:func:`compare_final_subspaces` measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence
from .linalg import (
    DEFAULT_TOL,
    check_tol,
    equilibrate_rows,
    independent_rows,
    numerical_ker,
    rank_tol,
    subspace_angle,
)
from .model import LQProblem, initial_matrices
from .reduction import ReductionResult


@dataclass(frozen=True)
class OracleResult:
    """Final constraint rows over (x, p, u) and the recursive index.

    m_res counts the controls the final rows leave free,
    m - rank(final_constraints[:, 2n:]); it is the oracle's side of the
    reduction's residual control count.
    """

    final_constraints: np.ndarray
    index_k: int
    m_res: int


def recursive_reduce(problem: LQProblem, tol: float = DEFAULT_TOL) -> OracleResult:
    """Largest subspace of (x, p, u) on which the optimality DAE is consistent.

    index_k counts the constraint-generation passes that produced new
    independent rows, the primary constraints included; a regular problem
    therefore has index 1.

    Raises InvalidTolerance unless ``tol`` is finite and positive.
    """
    check_tol(tol)
    n, m = problem.n, problem.m
    two_n = 2 * n
    init = initial_matrices(problem)
    g0, z0 = init.g0, init.z0

    rows = independent_rows(np.hstack([init.s1, -init.r1]), tol)
    index_k = 1 if rows.shape[0] else 0
    cap = 2 * n + m + 2
    for _ in range(cap):
        s_all = rows[:, :two_n]
        p_all = rows[:, two_n:]
        # conditions not absorbable by any control derivative
        ker, _ = numerical_ker(p_all.T, tol)
        w = ker.T
        candidates = w @ np.hstack([s_all @ g0, s_all @ z0])
        stacked = independent_rows(
            equilibrate_rows(np.vstack([rows, candidates]), tol), tol
        )
        if stacked.shape[0] == rows.shape[0]:
            return OracleResult(
                final_constraints=rows,
                index_k=index_k,
                m_res=m - rank_tol(rows[:, two_n:], tol),
            )
        rows = stacked
        index_k += 1
    raise NonConvergence(f"recursive constraint chain exceeded {cap} passes")


def compare_final_subspaces(
    a: OracleResult, b: ReductionResult, tol: float = DEFAULT_TOL
) -> float:
    """Largest principal angle between the two final constraint subspaces.

    The reduction result is re-inflated to (x, p, u) coordinates (residual
    controls pulled back through nofeed, solved controls re-expressed as
    feedback relations) and compared against the oracle rows.

    Raises DimensionMismatch when the reconstructions live in spaces of
    different dimension, and EmptySubspace when either side carries no
    constraints: both map to a "not computable" comparison.
    """
    reconstructed = b.final_constraints_original_controls()
    return subspace_angle(a.final_constraints, reconstructed, tol)
