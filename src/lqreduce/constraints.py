"""Linear constraint sets over the extended phase space (x, p, u, v).

A constraint row [sigma | beta | rho | omega] represents the linear function
sigma.x + beta.p + rho.u + omega.v on R^{2n + 2 m_cur}.  The control and
coisotropic blocks shrink together as partial feedback solves controls.

Besides the zero-order rows v = 0, no constraint involves v, so
:func:`~lqreduce.reduction.reduce` holds its set as rows over (x, p, u) and
leaves those rows implied.  The final split hands back combinations of the
extended set, the m zero-order rows e_v first, as coefficient rows over
its m + q rows; :func:`with_zero_order` alone writes v columns, to form
the extended set or those combinations of it for the report.  The e_v rows
project to zero on (x, p, u), so :func:`strip_coisotropic` decides the
stripped rank on the q-column block of the coefficients that combines the
held rows.
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


def with_zero_order(
    rows: np.ndarray, n: int, coeffs: np.ndarray | None = None
) -> ConstraintMatrix:
    """The extended set of the zero-order rows v = 0 and ``rows``, or combinations of it.

    ``rows`` are q constraint rows over (x, p, u), 2n + m columns.  The
    set, over (x, p, u, v), is [[0, I], [rows, 0]]: the m rows e_v first,
    then ``rows`` with a zero v block.  ``coeffs``, k x (m + q), gives the
    k combinations coeffs @ [[0, I], [rows, 0]] instead, formed by blocks
    as [coeffs[:, m:] @ rows | coeffs[:, :m]], so the zero blocks are
    neither built nor multiplied.
    """
    q, width = rows.shape
    m = width - 2 * n
    if coeffs is not None:
        return ConstraintMatrix(np.hstack([coeffs[:, m:] @ rows, coeffs[:, :m]]), n, m)
    ext = np.zeros((m + q, width + m))
    ext[:m, width:] = np.eye(m)
    ext[m:, :width] = rows
    return ConstraintMatrix(ext, n, m)


def apply_feedback_to_constraints(
    rows: np.ndarray,
    n: int,
    v_rot: np.ndarray,
    feed: np.ndarray,
    r: int,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Fold a rank-r partial feedback into constraint rows over (x, p, u).

    ``v_rot`` is the orthogonal control rotation whose first r rotated
    controls are solved as feed @ (x; p).  The u block of ``rows`` is
    rotated by ``v_rot`` and its solved columns are substituted into the
    (x, p) block.  Rows that become dependent (or zero) are removed, and
    the set comes back over (x, p, u_res) as an orthonormal basis of what
    survives (:func:`~lqreduce.linalg.row_space_basis` of the equilibrated
    rows, whose rank is the count of their singular values > tol), the
    form in which :func:`~lqreduce.reduction.reduce` holds its set.

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
    rows = as_matrix(rows)
    two_n = 2 * n
    m_cur = rows.shape[1] - two_n
    v_rot = as_matrix(v_rot)
    feed = as_matrix(feed) if np.asarray(feed).size else np.zeros((r, two_n))
    if v_rot.shape != (m_cur, m_cur):
        raise DimensionMismatch(f"rotation is {v_rot.shape}, expected ({m_cur}, {m_cur})")
    if r > m_cur:
        raise DimensionMismatch(f"cannot solve {r} of {m_cur} controls")
    if feed.shape != (r, two_n):
        raise DimensionMismatch(f"feedback block is {feed.shape}, expected ({r}, {two_n})")
    u_rot = rows[:, two_n:] @ v_rot
    xp = rows[:, :two_n] + u_rot[:, :r] @ feed
    return row_space_basis(equilibrate_rows(np.hstack([xp, u_rot[:, r:]]), tol), tol)


def strip_coisotropic(
    coeffs: np.ndarray, rows: np.ndarray, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Project combinations of the extended set onto the (x, p, u) coordinates.

    The set is ``coeffs @ with_zero_order(rows, n)``: ``rows`` are q
    orthonormal rows over (x, p, u), as ``reduce`` holds its set, and
    ``coeffs`` k x (m + q) combines the m zero-order rows e_v and ``rows``.
    The coisotropic columns are dropped and the result re-independentized;
    combinations that were pure v directions vanish.  Returns a plain
    matrix with 2n + m columns.

    The e_v rows project to zero, so the projection is C @ rows with
    C = coeffs[:, m:], the k x q block that combines ``rows``.  Since
    those rows are orthonormal, the projection has the singular values and
    the left singular vectors of C, so ``independent_rows(C) @ rows`` is
    the rows :func:`~lqreduce.linalg.independent_rows` gives of the
    projection, from an SVD of k x q instead of k x (2n + m).  When the
    rows of ``coeffs`` are orthonormal (``reduce`` splits its set with
    orthogonal transforms), those singular values are the same for any
    basis of their span, and the rank decision, made on C as it is, does
    not depend on which basis it was handed.  Rescaling the projected rows
    to unit norm first, as the fold does, would make the count depend on
    that basis.
    """
    m = coeffs.shape[1] - rows.shape[0]
    return independent_rows(coeffs[:, m:], tol) @ rows
