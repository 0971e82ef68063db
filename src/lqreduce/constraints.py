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
    extend_rows,
    negligible,
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


def _substitute(rows, two_n, v_rot, feed, r):
    """``rows`` over (x, p, u_cur) with the first r controls rotated by
    ``v_rot`` replaced by feed @ (x; p): rows over (x, p, u_res)."""
    u_rot = rows[:, two_n:] @ v_rot
    return np.hstack([rows[:, :two_n] + u_rot[:, :r] @ feed, u_rot[:, r:]])


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
    controls are solved as feed @ (x; p).  The fold substitutes the solved
    columns of the rotated u block into the (x, p) block, and returns an
    orthonormal basis, over (x, p, u_res), of the span of what survives:
    the form in which :func:`~lqreduce.reduction.reduce` holds its set.

    The substitution annuls exactly the span of the r solved relations
    rel = [-feed, V_r'] over (x, p, u_cur), V_r' = v_rot[:, :r]', whose
    Gram matrix is feed feed' + I.  ``reduce`` hands over rows whose span
    holds them (each pass's level, from which they were solved, was
    extended into the set), so it factors only the complement: one
    complete QR of c' = rows rel' gives an orthogonal change of rows whose
    last q - r combinations Z' rows have no part along the relations.
    Those are substituted, equilibrated and reduced to their basis
    (:func:`~lqreduce.linalg.row_space_basis`).  For orthonormal rows that
    hold the relations, c c' = rel rel' >= I, so c has full row rank, and
    the stack that is factored is generically of full row rank: it takes
    a QR and a values-only SVD, where the whole substituted set,
    rank-deficient by r, would take singular vectors as well.  Of the
    first r combinations only what lies off the relations' span survives:
    none of it, to the held rows' rounding, in ``reduce``.  Any part above
    ``tol``, as when rows that lack a relation are folded, is substituted
    and appended (:func:`~lqreduce.linalg.extend_rows`), so the span is
    that of every row substituted.

    Unlike :func:`strip_coisotropic`, the fold equilibrates before its rank
    decision: substituting the feedback leaves rows that are neither
    orthonormal nor of comparable norm (their (x, p) part grows with the
    feedback gain), so their unscaled singular values mix that gain into
    the decision.  Without the equilibration, counts move away from the
    exact problem's: the last constraint count of
    ``perturb(gen_exp1(16, 6, 4, seed=3), 1e-6, seed=3)`` goes from 45 to
    46, and that of ``gen_exp1(8, 3, 2)`` with its cost scaled by 1e9 from
    23 to 24.  For the same reason the part of the first r combinations
    off the relations is judged before the substitution, at the rows'
    scale: after it, rounding of about eps ||feed|| could pass ``tol``.
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

    # the last q - r combinations have no part along the solved relations
    rel = np.hstack([-feed, v_rot[:, :r].T])
    mixed = np.linalg.qr(rows @ rel.T, mode="complete")[0].T @ rows
    folded = _substitute(mixed[r:], two_n, v_rot, feed, r)
    kept = row_space_basis(equilibrate_rows(folded, tol), tol)
    # what of the first r lies off the relations' span, projected out with
    # their Gram matrix
    lead = mixed[:r]
    off = lead - np.linalg.solve(feed @ feed.T + np.eye(r), rel @ lead.T).T @ rel
    if not negligible(off, tol):
        extra = equilibrate_rows(off, tol)
        kept = extend_rows(kept, _substitute(extra, two_n, v_rot, feed, r), tol)
    return kept


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
