"""Linear constraint sets over the extended phase space (x, p, u, v).

A constraint row [sigma | beta | rho | omega] represents the linear function
sigma.x + beta.p + rho.u + omega.v on R^{2n + 2 m_cur}.  The control and
coisotropic blocks shrink together as partial feedback solves controls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import (
    DEFAULT_TOL,
    as_matrix,
    equilibrate_rows,
    independent_rows,
    row_space_basis,
)


@dataclass(frozen=True)
class ConstraintMatrix:
    """Rows of linear constraints with explicit (x, p, u, v) block layout.

    Attributes:
        rows: q x (2n + 2*m_cur) coefficient matrix.
        n: state dimension (x and p blocks each have n columns).
        m_cur: current control dimension (u and v blocks each have m_cur
            columns); shrinks as feedback is applied.
    """

    rows: np.ndarray
    n: int
    m_cur: int

    def __post_init__(self):
        rows = as_matrix(self.rows)
        object.__setattr__(self, "rows", rows)
        if rows.shape[1] != 2 * self.n + 2 * self.m_cur:
            raise DimensionMismatch(
                f"constraint rows have {rows.shape[1]} columns, "
                f"expected {2 * self.n + 2 * self.m_cur}"
            )

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def xp(self) -> np.ndarray:
        return self.rows[:, : 2 * self.n]

    @property
    def u_block(self) -> np.ndarray:
        return self.rows[:, 2 * self.n : 2 * self.n + self.m_cur]

    @property
    def v_block(self) -> np.ndarray:
        return self.rows[:, 2 * self.n + self.m_cur :]

    def with_rows(self, rows: np.ndarray) -> "ConstraintMatrix":
        return ConstraintMatrix(rows, self.n, self.m_cur)


def with_zero_order(phi: ConstraintMatrix) -> ConstraintMatrix:
    """``phi`` with the zero-order constraints v = 0 placed before its rows.

    One row e_v per remaining control, so the result has phi.m_cur more
    rows.  :func:`~lqreduce.reduction.reduce` holds only rows with a zero v
    block and leaves these implied; its full bracket builds and its class
    split take the set this returns.
    """
    m = phi.m_cur
    zero_order = np.hstack([np.zeros((m, 2 * phi.n + m)), np.eye(m)])
    return phi.with_rows(np.vstack([zero_order, phi.rows]))


def apply_feedback_to_constraints(
    phi: ConstraintMatrix,
    v_rot: np.ndarray,
    feed: np.ndarray,
    r: int,
    tol: float = DEFAULT_TOL,
) -> ConstraintMatrix:
    """Fold a rank-r partial feedback into a constraint set.

    ``v_rot`` is the orthogonal control rotation whose first r rotated
    controls are solved as feed @ (x; p).  The u and v blocks are rotated by
    ``v_rot``; the solved control columns are substituted into the (x, p)
    block; the solved coisotropic columns are dropped outright (those
    coordinates vanish on the zero-order constraints).  Rows that become
    dependent (or zero) are removed, and the set comes back as an
    orthonormal basis of what survives
    (:func:`~lqreduce.linalg.row_space_basis` of the equilibrated rows,
    whose rank is the count of their singular values > tol), the form in
    which :func:`~lqreduce.reduction.reduce` holds its constraint set.

    Unlike :func:`strip_coisotropic`, the fold equilibrates before its rank
    decision: substituting the feedback leaves rows that are neither
    orthonormal nor of comparable norm (their (x, p) part grows with the
    feedback gain), so their unscaled singular values mix that gain into
    the decision.  Without the equilibration, counts move away from the
    exact problem's: the last constraint count of
    ``perturb(gen_exp1(16, 6, 4, seed=3), 1e-6, seed=3)`` goes from 45 to
    46, and that of ``gen_exp1(8, 3, 2)`` with its cost scaled by 1e9 from
    23 to 24.
    """
    v_rot = as_matrix(v_rot)
    feed = as_matrix(feed) if np.asarray(feed).size else np.zeros((r, 2 * phi.n))
    if v_rot.shape != (phi.m_cur, phi.m_cur):
        raise DimensionMismatch(
            f"rotation is {v_rot.shape}, expected ({phi.m_cur}, {phi.m_cur})"
        )
    if r > phi.m_cur:
        raise DimensionMismatch(f"cannot solve {r} of {phi.m_cur} controls")
    if feed.shape != (r, 2 * phi.n):
        raise DimensionMismatch(
            f"feedback block is {feed.shape}, expected ({r}, {2 * phi.n})"
        )
    u_rot = phi.u_block @ v_rot
    v_cois = phi.v_block @ v_rot
    xp = phi.xp + u_rot[:, :r] @ feed
    rows = equilibrate_rows(np.hstack([xp, u_rot[:, r:], v_cois[:, r:]]), tol)
    return ConstraintMatrix(row_space_basis(rows, tol), phi.n, phi.m_cur - r)


def strip_coisotropic(phi: ConstraintMatrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Project a constraint set onto the (x, p, u) coordinates.

    Drops the coisotropic columns and re-independentizes; rows that were
    pure v-coordinate directions vanish.  Returns a plain matrix with
    2n + m_cur columns.

    The rows of ``phi`` are orthonormal (``reduce`` holds its set that way
    and splits it with orthogonal transforms), so the singular values of
    the projection are the same in any basis of the span of ``phi``, and
    the rank decision, made on the projection as it is, does not depend on
    which basis it was handed.  Rescaling the projected rows to unit norm
    first, as the fold does, would make the count depend on that basis.
    """
    kept = phi.rows[:, : 2 * phi.n + phi.m_cur]
    return independent_rows(kept, tol)
