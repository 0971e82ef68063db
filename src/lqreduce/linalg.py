"""Tolerance-aware dense linear algebra used throughout the reduction.

All rank decisions in this package are made against an *absolute* threshold
on singular values (count of sigma > tol), mirroring MATLAB-style
``rank(A, tol)``.  Problems should therefore be scaled so that meaningful
entries are well above the tolerance.

Empty matrices (zero rows and/or columns) are first-class values: every
routine accepts and may return them.

A constraint set that grows level by level is kept as an orthonormal row
basis that :func:`extend_rows` extends: the new rows are projected out of
the basis and only their residual is factored, so the rank of a new level
is the count of the residual's singular values above the threshold, not of
the whole stack's.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, EmptySubspace, InvalidTolerance

#: Default singular-value threshold used by the whole package.
DEFAULT_TOL = 1e-6


def check_tol(tol) -> None:
    """Raise InvalidTolerance unless ``tol`` is finite and positive.

    A negative threshold counts every singular value and a NaN or infinite
    one counts none, so either would decide every rank wrongly.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise InvalidTolerance(f"tolerance must be finite and positive, got {tol!r}")


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-d float array; 1-d input becomes a single row."""
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={m.ndim}")
    return m


def empty_matrix(cols: int) -> np.ndarray:
    """The canonical 0 x cols matrix."""
    return np.zeros((0, cols))


def asymmetry(m: np.ndarray) -> float:
    """Relative asymmetry ||m - m'||_F / (1 + ||m||_F) of a square matrix."""
    return float(np.linalg.norm(m - m.T) / (1.0 + np.linalg.norm(m)))


def _svd(m: np.ndarray, full_matrices: bool = True, compute_uv: bool = True):
    """``np.linalg.svd``, retried on the transpose if LAPACK does not converge.

    The divide-and-conquer routine (gesdd) fails to converge on some finite
    matrices whose transpose it factors; the retry swaps the factors back,
    so the result has the shapes and meaning of a direct call.
    """
    try:
        return np.linalg.svd(m, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        out = np.linalg.svd(m.T, full_matrices=full_matrices, compute_uv=compute_uv)
    if not compute_uv:
        return out
    u, s, vt = out
    return vt.T, s, u.T


def rank_tol(m, tol: float = DEFAULT_TOL) -> int:
    """Number of singular values of ``m`` strictly greater than ``tol``.

    An empty matrix has rank 0.  Since sigma_max <= ||m||_F, a Frobenius
    norm <= tol gives rank 0 without an SVD, the same answer the singular
    values would give.  A NaN norm, or one that overflows to inf, fails
    that test and takes the SVD.
    """
    m = as_matrix(m)
    if m.size == 0:
        return 0
    with np.errstate(over="ignore"):
        if np.linalg.norm(m) <= tol:
            return 0
    s = _svd(m, compute_uv=False)
    return int(np.count_nonzero(s > tol))


def independent_rows(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Replace ``m`` by r mutually orthogonal rows spanning its row space.

    r is the numerical rank of ``m``; the rows returned are the first r rows
    of U^T m from the SVD of m, so they keep the data's scale (row i has
    norm sigma_i).  Rank-zero input collapses to the empty matrix, so
    "numerically zero" and "empty" behave identically downstream.

    The primary rows that seed the step recursion of ``reduce`` and the
    recursive oracle's stack take these data-scaled rows, because their
    later rank decisions compare singular values at the data's scale.
    ``reduce``'s own constraint set is held orthonormal instead
    (:func:`row_space_basis`, :func:`extend_rows`); the coisotropic strip
    and the final-constraint accessors apply this routine to equilibrated
    rows.
    """
    m = as_matrix(m)
    if m.size == 0:
        return empty_matrix(m.shape[1])
    u, s, _ = _svd(m, full_matrices=False)
    r = int(np.count_nonzero(s > tol))
    if r == 0:
        return empty_matrix(m.shape[1])
    return u[:, :r].T @ m


def equilibrate_rows(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Scale every row to unit norm; rows of norm <= tol are dropped.

    A row of norm below the tolerance is the zero function at working
    tolerance, so removing it matches treating sub-tolerance singular
    values as zero.  Row scaling never changes row spaces or exact ranks,
    but it makes subsequent independence decisions at an absolute
    threshold scale-free: without it, constraint rows of very different
    magnitudes let perturbation noise cross the threshold.
    """
    m = as_matrix(m)
    if m.size == 0:
        return empty_matrix(m.shape[1])
    norms = np.linalg.norm(m, axis=1)
    keep = norms > tol
    if not np.any(keep):
        return empty_matrix(m.shape[1])
    return m[keep] / norms[keep, None]


def extend_rows(basis, rows, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Append to an orthonormal row basis an orthonormal basis of what ``rows`` add.

    The rows of ``basis`` must be orthonormal; they come back unchanged as
    the first rows of the result, followed by orthonormal rows that extend
    the span to that of ``basis`` and ``rows`` together.  ``rows`` are
    equilibrated first (rows of norm <= tol are dropped), then projected
    out of the basis twice: one classical Gram-Schmidt pass loses
    orthogonality once a row is nearly in the span, two are enough
    (Daniel, Gragg, Kaufman & Stewart 1976, Math. Comp. 30).  One SVD of
    the residual gives the new rows, its right singular vectors for
    singular values > tol.

    Rank rule: a new direction counts when a singular value of the
    residual exceeds tol, where a stacked factorization would compare the
    stack's smallest singular value.  At the threshold the two agree
    within a factor sqrt(1 + cos theta) <= sqrt(2), theta the angle
    between the new row and the basis span.
    """
    basis = as_matrix(basis)
    rows = equilibrate_rows(rows, tol)
    if basis.shape[1] != rows.shape[1]:
        raise DimensionMismatch(
            f"cannot extend a basis of R^{basis.shape[1]} by rows of R^{rows.shape[1]}"
        )
    if rows.shape[0] == 0:
        return basis
    for _ in range(2):
        rows = rows - (rows @ basis.T) @ basis
    return np.vstack([basis, row_space_basis(rows, tol)])


def numerical_ker(a, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Split column-coordinate space into numerical kernel and its complement.

    Returns ``(v, w)`` where the columns of ``v`` are an orthonormal basis of
    the kernel of ``a`` at tolerance ``tol`` (right singular vectors for
    singular values <= tol) and the columns of ``w`` complete them to an
    orthonormal basis of R^cols.  ``v`` has cols - r columns and ``w`` has r,
    with r the numerical rank.
    """
    a = as_matrix(a)
    n = a.shape[1]
    if a.size == 0:
        return np.eye(n), np.zeros((n, 0))
    _, s, vt = _svd(a, full_matrices=True)
    r = int(np.count_nonzero(s > tol))
    v = vt[r:, :].T
    w = vt[:r, :].T
    return v, w


def row_space_basis(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the row space of ``m`` (rows of the result)."""
    m = as_matrix(m)
    if m.size == 0:
        return empty_matrix(m.shape[1])
    _, s, vt = _svd(m, full_matrices=False)
    r = int(np.count_nonzero(s > tol))
    return vt[:r, :]


def subspace_angle(m1, m2, tol: float = DEFAULT_TOL) -> float:
    """Largest principal angle between the row spaces of ``m1`` and ``m2``.

    Returns an angle in [0, pi/2]; 0 exactly when the row spaces coincide
    (within ``tol``).  When the ranks differ, the angle is taken over the
    min(rank1, rank2) principal angle pairs, matching how perturbed and
    exact constraint sets of different sizes are compared.

    Computed with the combined sine/cosine recipe of Knyazev & Argentati
    (2002, SIAM J. Sci. Comput. 23(6)): the sines, singular values of the
    smaller basis minus its projection onto the larger one, resolve angles
    far below 1e-8 where a pure arccos of cosines saturates; the cosines,
    singular values of the cross products of the bases, are accurate for
    angles above pi/4.

    Raises:
        DimensionMismatch: column counts differ (the two matrices live in
            different coordinate spaces, so no angle exists).
        EmptySubspace: either argument has numerical rank 0.
    """
    m1 = as_matrix(m1)
    m2 = as_matrix(m2)
    if m1.shape[1] != m2.shape[1]:
        raise DimensionMismatch(
            f"cannot compare subspaces of R^{m1.shape[1]} and R^{m2.shape[1]}"
        )
    q1 = row_space_basis(m1, tol)
    q2 = row_space_basis(m2, tol)
    if q1.shape[0] == 0 or q2.shape[0] == 0:
        raise EmptySubspace("subspace angle against a rank-zero matrix")
    if q1.shape[0] < q2.shape[0]:
        q1, q2 = q2, q1
    cosines = q2 @ q1.T
    sines = _svd(q2 - cosines @ q1, compute_uv=False)
    if sines[0] ** 2 <= 0.5:
        return float(np.arcsin(sines[0]))
    return float(np.arccos(_svd(cosines, compute_uv=False)[-1]))


def symplectic_matrix(n: int) -> np.ndarray:
    """The canonical 2n x 2n symplectic matrix, oriented as [[0, -I], [I, 0]].

    This orientation makes J (xdot; pdot) = (dH/dx; dH/dp) hold exactly for
    Hamilton's equations and gives the primary-constraint identity
    S1 = -Z0' J.
    """
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j
