"""Plain recursive constraints algorithm, used as an independent reference.

No feedback, no symplectic extension: the dynamics G0 = [[A, 0], [Q, -A']],
Z0 = [B; N] are never modified, nor built.  The constraints over (x, p, u),
from dH/du = [-N', B', -R], are differentiated along the flow with a free
control derivative, a row (z_x, z_p) giving [z_x A + z_p Q, -z_p A',
z_x B + z_p N] from the problem's blocks; the combinations that no choice
of control derivative can absorb (those whose u-block vanishes) become the
next constraints (Rabier & Rheinboldt 1994, J. Differential Equations 109).

The constraint set is held as one orthonormal row basis that each pass
extends (:func:`~lqreduce.linalg.extend_rows`), in the leading rows of a
buffer that it appends to, as ``reduce`` does.  A zero-u combination of
rows held before the last pass was differentiated on an earlier pass, so
each pass differentiates only the new zero-u combinations: those of the
rows it added and of the rows whose u-block has full row rank.  Candidates
come from unit rows, so they are judged at the scale of what was
differentiated.  The two algorithms find the same final subspace, which is
what :func:`compare_final_subspaces` measures; both sides hand it
orthonormal rows, so it factors neither a second time.

A pass whose rows have a negligible u-block, every pass of a chain that
reaches no control, pays only for its products and its extension: one
norm decides the block's rank 0, and its (x, p) columns are then the
zero-u combinations as they stand, with no kernel factored or applied.
The level is written into one array, and the loop enters one
``np.errstate`` for all its passes.  A level of one unit row is mostly
new to the span, so it is usually projected out of the basis once
(:func:`~lqreduce.linalg.extend_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NonConvergence
from .linalg import (
    DEFAULT_TOL,
    _room,
    check_tol,
    empty_matrix,
    extend_rows,
    negligible,
    numerical_ker,
    principal_angle,
    rank_tol,
    row_space_basis,
)
from .model import LQProblem

if TYPE_CHECKING:
    from .reduction import ReductionResult


@dataclass(frozen=True)
class OracleResult:
    """Final constraint rows over (x, p, u) and the recursive index.

    The rows of final_constraints are orthonormal.

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

    Raises InvalidTolerance unless ``tol`` is a finite, positive real
    number, and NonConvergence if the chain exceeds 2n + m + 2 passes or a
    new level overflows; the problem data is not checked again.
    """
    check_tol(tol)
    a, b, q, n_mat = problem.A, problem.B, problem.Q, problem.N
    n, m = problem.n, problem.m
    two_n = 2 * n

    rows = row_space_basis(np.hstack([-n_mat.T, b.T, -problem.R]), tol)
    index_k = 1 if rows.shape[0] else 0
    # piv: rows of the span whose u-block has full row rank; new: the rows
    # the last pass added.  Every other row of the span has a zero u-block
    # and was differentiated on an earlier pass.
    piv, new = empty_matrix(rows.shape[1]), rows
    rows_buf = None
    cap = 2 * n + m + 2
    # an overflowing product leaves inf or NaN in a new level, which
    # extend_rows rejects with NonConvergence; the state is entered once,
    # not once a pass
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cap):
            block = np.concatenate((piv, new)) if piv.shape[0] else new
            u_block = block[:, two_n:]
            if negligible(u_block, tol):
                # rank 0: every row is a zero-u combination
                zero_u, piv = block[:, :two_n], block[:0]
            else:
                # combinations no control derivative can absorb
                ker, compl = numerical_ker(u_block.T, tol)
                zero_u = ker.T @ block[:, :two_n]
                piv = compl.T @ block
            held = rows.shape[0]
            zx, zp = zero_u[:, :n], zero_u[:, n:]
            # [zero_u G0, zero_u Z0], written into one array
            level = np.empty((zero_u.shape[0], rows.shape[1]))
            lx, lp, lu = level[:, :n], level[:, n:two_n], level[:, two_n:]
            np.matmul(zx, a, out=lx)
            lx += zp @ q
            np.matmul(zp, a.T, out=lp)
            np.negative(lp, out=lp)
            np.matmul(zx, b, out=lu)
            lu += zp @ n_mat
            rows_buf = _room(rows_buf, held + level.shape[0], held, level.shape[1])
            rows = extend_rows(rows, level, tol, out=rows_buf)
            new = rows[held:]
            if new.shape[0] == 0:
                return OracleResult(
                    final_constraints=rows,
                    index_k=index_k,
                    m_res=m - rank_tol(rows[:, two_n:], tol),
                )
            index_k += 1
    raise NonConvergence(f"recursive constraint chain exceeded {cap} passes")


def compare_final_subspaces(a: OracleResult, b: ReductionResult) -> float:
    """Largest principal angle between the two final constraint subspaces.

    The reduction result is re-inflated to (x, p, u) coordinates (residual
    controls pulled back through nofeed, solved controls re-expressed as
    feedback relations) and compared against the oracle rows.  Both sides
    are orthonormal row sets: the reconstruction is built by extension from
    the reduction's orthonormal parts
    (:meth:`~lqreduce.reduction.ReductionResult.final_constraints_original_controls`),
    which factors only the residuals that its later parts add, at the
    reduction's own tolerance, and nothing for a chain.  The angle is
    taken with :func:`~lqreduce.linalg.principal_angle`; no rank is
    decided here.  The result agrees to rounding with
    :func:`~lqreduce.linalg.subspace_angle` of the same two row sets.

    Raises DimensionMismatch when the reconstructions live in spaces of
    different dimension, and EmptySubspace when either side carries no
    constraints: both map to a "not computable" comparison.
    """
    reconstructed = b.final_constraints_original_controls()
    return principal_angle(a.final_constraints, reconstructed)
