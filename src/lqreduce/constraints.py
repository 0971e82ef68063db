"""Linear constraint sets over the extended phase space (x, p, u, v).

A constraint row [sigma | beta | rho | omega] represents the linear function
sigma.x + beta.p + rho.u + omega.v on R^{2n + 2 m_cur}.  A set is a plain
array of such rows, whose blocks the state dimension n locates.  The control
and coisotropic blocks shrink together as partial feedback solves controls.

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

import numpy as np

from .errors import DimensionMismatch
from .linalg import (
    DEFAULT_TOL,
    as_matrix,
    equilibrate_rows,
    rank_svd,
    row_space_basis,
)

# unused here: the benchmark's tracer self-test pins this module as an import
# site of independent_rows, until the next benchmark change (ROADMAP item 1)
from .linalg import independent_rows


def with_zero_order(
    rows: np.ndarray, n: int, coeffs: np.ndarray | None = None
) -> np.ndarray:
    """The extended set of the zero-order rows v = 0 and ``rows``, or combinations of it.

    ``rows`` are q constraint rows over (x, p, u), 2n + m columns.  The
    set, over (x, p, u, v), is [[0, I], [rows, 0]]: the m rows e_v first,
    then ``rows`` with a zero v block.  ``coeffs``, k x (m + q), gives the
    k combinations coeffs @ [[0, I], [rows, 0]] instead, formed by blocks
    as [coeffs[:, m:] @ rows | coeffs[:, :m]], so the zero blocks are
    neither built nor multiplied.  Either way the result is a plain array
    with 2n + 2m columns.
    """
    q, width = rows.shape
    m = width - 2 * n
    if coeffs is not None:
        return np.hstack([coeffs[:, m:] @ rows, coeffs[:, :m]])
    ext = np.zeros((m + q, width + m))
    ext[:m, width:] = np.eye(m)
    ext[m:, :width] = rows
    return ext


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
    rows), the form in which :func:`~lqreduce.reduction.reduce` holds its
    set.

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
    The coisotropic columns are dropped and an orthonormal basis of what
    is left is returned; combinations that were pure v directions vanish.
    Returns a plain matrix with 2n + m columns and orthonormal rows.

    The e_v rows project to zero, so the projection is C @ rows with
    C = coeffs[:, m:], the k x q block that combines ``rows``.  Since
    those rows are orthonormal, the projection has the singular values of
    C, and with C = U Sigma V' its rows U_r' C @ rows, those that
    :func:`~lqreduce.linalg.independent_rows` gives of the projection, are
    the rows of V_r' @ rows, each times its sigma_i.  So the rank is decided
    on the k x q block (:func:`~lqreduce.linalg.rank_svd`) instead of
    k x (2n + m), and V_r' @ rows, a product of orthonormal rows, is the
    orthonormal basis, with no factorization after it.  Dividing the
    sigma-scaled rows by their norms instead would leave their mutual
    orthogonality with errors of about eps sigma_1^2 / (sigma_i sigma_j),
    up to 1e-4 for a kept sigma near ``tol``.

    When the rows of ``coeffs`` are orthonormal (``reduce`` splits its set
    with orthogonal transforms), those singular values are the same for
    any basis of their span, and the rank decision, made on C as it is,
    does not depend on which basis it was handed.  Rescaling the projected
    rows to unit norm first, as the fold does, would make the count depend
    on that basis.
    """
    m = coeffs.shape[1] - rows.shape[0]
    _, _, vt, r = rank_svd(coeffs[:, m:], tol)
    return vt[:r] @ rows
