"""Tolerance-aware dense linear algebra used throughout the reduction.

The rank rule, which the rest of the package cites rather than restates:

- A rank is the count of singular values sigma > tol, an *absolute*
  threshold, as in MATLAB's ``rank(A, tol)``; problems should therefore be
  scaled so that meaningful entries are well above it.  The comparison is
  written once, here; code outside this module decides ranks through
  :func:`rank_tol`, :func:`rank_svd` and the routines built on them.
- A matrix with ``||m||_F <= tol`` is :func:`negligible`: since
  sigma_max <= ||m||_F, its rank is 0, the answer its singular values
  would give, and it is not factored.  A NaN or overflowing norm is not
  negligible, so such a matrix goes on to its SVD.
- The seam is :func:`rank_svd`, which owns rank 0: a negligible matrix,
  the empty one included, gets the exact SVD of the zero matrix (identity
  factors in the shapes ``np.linalg.svd`` returns, zero values, r = 0),
  so the routines built on it only slice its factors.  For a matrix of
  at most 64 rows and columns those factors are read-only views of one
  identity and one zero vector, so such a rank-0 decision allocates no
  array data.  Every other SVD goes to LAPACK through ``_svd``.  The one
  other factorization is the Householder QR with which
  :func:`row_space_basis` and :func:`scaled_row_space` reduce a large
  wide matrix to a square triangle; its rank is the same count, of the
  triangle's singular values.
- One decision bypasses the seam and keeps the count: a single row that
  :func:`extend_rows` appends is judged from two norms, each one dot
  product: the row's own, against which it is dropped or normalized, and
  its residual's after the projections, the residual's one singular
  value.  A row or residual whose sum of squares overflows, is at most
  1e-200, or is not finite takes the general route.

Sines of principal angles come from an eigenvalue solve
(:func:`principal_angle`), which decides no rank.  Empty matrices (zero
rows and/or columns) are first-class values: every routine accepts and
may return them.

A constraint set that grows level by level is kept as an orthonormal row
basis that :func:`extend_rows` extends: the new rows are projected out of
the basis and only their residual is factored, so the rank of a new level
is that of the residual, not of the whole stack.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, EmptySubspace, InvalidTolerance, NonConvergence

#: Default singular-value threshold used by the whole package.
DEFAULT_TOL = 1e-6

# entries up to this size square to at most 1e300, so no row norm overflows
_LARGE_ENTRY = 1e150
# a sum of squares above this owes nothing that matters to subnormal terms
_SMALL_SQUARE = 1e-200
# row_space_basis factors a matrix of at least this many entries through a
# QR of its transpose; below it one SVD is faster
_QR_MIN_ENTRIES = 2048
# rank_svd hands out the zero matrix's factors, up to this many rows and
# columns, as read-only views of these, so a rank-0 decision allocates no
# array data.  They are made at import: a cache filled on first use would
# leave small arrays alive above the large ones of the first problems,
# where they keep the heap from shrinking (5.6 MB more peak RSS over a run
# of family 1 and 2 problems at n = 160 and 640)
_SHARED_SIZE = 64
_EYE = np.eye(_SHARED_SIZE)
_ZEROS = np.zeros(_SHARED_SIZE)
_EYE.flags.writeable = _ZEROS.flags.writeable = False


def check_tol(tol) -> None:
    """Raise InvalidTolerance unless ``tol`` is a finite, positive real number.

    A negative threshold counts every singular value and a NaN or infinite
    one counts none, so either would decide every rank wrongly.  A Python
    or NumPy integer or float, or a 0-d array of one, is a real number; a
    bool, string, None, complex number or array with a shape is not, even
    where NumPy would coerce it (``True`` would read as 1).
    """
    try:
        value = np.asarray(tol)
    except ValueError:  # a ragged sequence
        value = None
    if value is None or value.ndim or value.dtype.kind not in "fiu":
        raise InvalidTolerance(f"tolerance must be a real number, got {tol!r}")
    if not (np.isfinite(value) and value > 0):
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
    """Relative asymmetry ||m - m'||_F / (1 + ||m||_F) of a finite square matrix.

    Entries above about 1e154 overflow ||m||_F, and inf / inf would make the
    ratio NaN, which compares below any threshold.  Such an ``m`` is
    divided by its largest |entry| first, and the 1 likewise.
    """
    with np.errstate(over="ignore"):
        size = np.linalg.norm(m)
        skew = np.linalg.norm(m - m.T)
    if size == np.inf:
        top = np.abs(m).max()
        m = m / top
        return float(np.linalg.norm(m - m.T) / (1.0 / top + np.linalg.norm(m)))
    return float(skew / (1.0 + size))


def _svd(m: np.ndarray, full_matrices: bool = True, compute_uv: bool = True):
    """``np.linalg.svd``, retried on the transpose if LAPACK does not converge.

    The divide-and-conquer routine (gesdd) fails to converge on some finite
    matrices whose transpose it factors; the retry swaps the factors back,
    so the result has the shapes and meaning of a direct call.  A finite
    matrix on which both calls fail raises NonConvergence; a non-finite one
    keeps numpy's LinAlgError, since no factorization of it exists.
    """
    try:
        return np.linalg.svd(m, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        try:
            out = np.linalg.svd(m.T, full_matrices=full_matrices, compute_uv=compute_uv)
        except np.linalg.LinAlgError as exc:
            if not np.all(np.isfinite(m)):
                raise
            raise NonConvergence(
                f"SVD of a finite {m.shape[0]} x {m.shape[1]} matrix did not "
                "converge, nor that of its transpose"
            ) from exc
    if not compute_uv:
        return out
    u, s, vt = out
    return vt.T, s, u.T


def _row_norm(row: np.ndarray):
    """||row|| of a 1-d array from one dot product, or None for the general route.

    None stands for a sum of squares that is zero, NaN, overflowing or at
    most 1e-200, where a dot product loses the row's norm.  The caller
    silences the overflow.
    """
    squares = row @ row
    if _SMALL_SQUARE < squares < np.inf:  # NaN fails this comparison as well
        return np.sqrt(squares)
    return None


def negligible(m, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``||m||_F <= tol``, rank 0 without an SVD by the rank rule.

    The norm is formed as ``np.linalg.norm`` forms it, one dot product of
    the entries in memory order, without that routine's dispatch.
    """
    flat = np.asarray(m, dtype=float).ravel(order="K")
    with np.errstate(over="ignore"):
        return bool(np.sqrt(flat.dot(flat)) <= tol)


def rank_tol(m, tol: float = DEFAULT_TOL) -> int:
    """Rank of ``m`` by the rank rule; a :func:`negligible` one is not factored."""
    m = as_matrix(m)
    if negligible(m, tol):
        return 0
    return _count_above(_svd(m, compute_uv=False), tol)


def _above(sigma, tol: float):
    """Whether singular values count toward the rank: sigma > tol."""
    return sigma > tol


def _count_above(s: np.ndarray, tol: float) -> int:
    """Numerical rank from singular values: the count of sigma > tol."""
    return int(np.count_nonzero(_above(s, tol)))


def rank_svd(m: np.ndarray, tol: float = DEFAULT_TOL, full_matrices: bool = False):
    """SVD ``(u, s, vt)`` of a 2-d array ``m`` and its rank r: the rank seam.

    Returns ``(u, s, vt, r)``; the first r rows of vt span the numerical
    row space and the rest its kernel.  A :func:`negligible` matrix gets
    the exact SVD of the zero matrix without a factorization: identities
    and zeros, which for a matrix of at most 64 rows and columns are
    read-only views of arrays made once, at import.
    """
    if negligible(m, tol):
        k, c = m.shape
        p = min(k, c)
        size_u, size_v = (k, c) if full_matrices else (p, p)
        if max(k, c) <= _SHARED_SIZE:
            return _EYE[:k, :size_u], _ZEROS[:p], _EYE[:size_v, :c], 0
        return np.eye(k, size_u), np.zeros(p), np.eye(size_v, c), 0
    u, s, vt = _svd(m, full_matrices=full_matrices)
    return u, s, vt, _count_above(s, tol)


def independent_rows(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Replace ``m`` by r mutually orthogonal rows spanning its row space.

    r is the rank of ``m``; the rows returned are the first r rows of
    U^T m from :func:`rank_svd`, so they keep the data's scale (row i has
    norm sigma_i).  Rank-zero input, the empty one included, collapses to
    the empty matrix, so "numerically zero" and "empty" behave identically
    downstream.  Constraint sets are held orthonormal instead
    (:func:`row_space_basis`, :func:`extend_rows`).
    """
    m = as_matrix(m)
    u, _, _, r = rank_svd(m, tol)
    return u[:, :r].T @ m


def equilibrate_rows(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Scale every row to unit norm; rows of norm <= tol are dropped.

    A row of norm below the tolerance is the zero function at working
    tolerance, so removing it matches treating sub-tolerance singular
    values as zero.  Row scaling never changes row spaces or exact ranks,
    but it makes subsequent independence decisions at an absolute
    threshold scale-free: without it, constraint rows of very different
    magnitudes let perturbation noise cross the threshold.

    A row with an entry above 1e150 could overflow its squared norm and be
    divided by inf to zero.  Such a row is first scaled by the power of two
    nearest its largest entry, and the threshold with it; the scaling is
    exact, so the decision and the unit row are those of exact arithmetic.
    Every other row is normalized as it is.

    Raises NonConvergence if an entry is inf or NaN: such rows come from a
    product that overflowed double precision, and a NaN row would otherwise
    fail the norm test and vanish without a trace.
    """
    m = as_matrix(m)
    if m.size == 0:
        return empty_matrix(m.shape[1])
    threshold = tol
    top = np.abs(m).max()
    if not top <= _LARGE_ENTRY:  # NaN fails this comparison as well
        if not np.isfinite(top):
            raise NonConvergence(
                "constraint rows with non-finite coefficients: a product "
                "overflowed double precision; rescale the problem data"
            )
        peak = np.max(np.abs(m), axis=1)
        _, exponent = np.frexp(np.where(peak > _LARGE_ENTRY, peak, 1.0))
        shift = 1 - exponent
        m = np.ldexp(m, shift[:, None])
        threshold = np.ldexp(tol, shift)
    norms = np.linalg.norm(m, axis=1)
    keep = _above(norms, threshold)
    if not keep.any():
        return empty_matrix(m.shape[1])
    return m[keep] / norms[keep, None]


def extend_rows(
    basis, rows, tol: float = DEFAULT_TOL, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Append to an orthonormal row basis an orthonormal basis of what ``rows`` add.

    The rows of ``basis`` must be orthonormal; they come back unchanged as
    the first rows of the result, followed by orthonormal rows that extend
    the span to that of ``basis`` and ``rows`` together.  ``rows`` are
    equilibrated first (rows of norm <= tol are dropped), then projected
    out of the basis twice: one classical Gram-Schmidt pass loses
    orthogonality once a row is nearly in the span, two are enough
    (Daniel, Gragg, Kaufman & Stewart 1976, Math. Comp. 30).  The new
    rows are :func:`row_space_basis` of the residual; a single row takes
    the one-row bypass of the rank rule instead.

    A new direction counts when a singular value of the residual exceeds
    tol, where a stacked factorization would compare the stack's smallest
    singular value.  At the threshold the two agree within a factor
    sqrt(1 + cos theta) <= sqrt(2), theta the angle between the new row
    and the basis span.

    ``out``, when given, is an array with the columns of ``basis`` and
    room for all its rows and those of ``rows``.  The result is written
    into its leading rows and returned as a view of them.  ``basis`` may
    already be those leading rows, which are then not copied, so a caller
    that extends a set pass by pass appends to one buffer instead of
    restacking the set.

    Raises NonConvergence, from :func:`equilibrate_rows`, if ``rows`` hold
    an inf or NaN: a constraint level whose coefficients overflowed.
    """
    basis = as_matrix(basis)
    rows = as_matrix(rows)
    if basis.shape[1] != rows.shape[1]:
        raise DimensionMismatch(
            f"cannot extend a basis of R^{basis.shape[1]} by rows of R^{rows.shape[1]}"
        )
    new = _one_row_extension(basis, rows[0], tol) if rows.shape[0] == 1 else None
    if new is None:
        rows = equilibrate_rows(rows, tol)
        if rows.shape[0]:
            for _ in range(2):
                rows = rows - (rows @ basis.T) @ basis
        new = row_space_basis(rows, tol)
    q, t = basis.shape[0], new.shape[0]
    if out is None:
        return np.vstack([basis, new]) if t else basis
    if not np.may_share_memory(basis, out):
        out[:q] = basis
    out[q : q + t] = new
    return out[: q + t]


def _one_row_extension(basis: np.ndarray, row: np.ndarray, tol: float):
    """What one row adds to an orthonormal basis, or None for the general route.

    Returns a 1 x c or 0 x c matrix, or None when the row's or the
    residual's sum of squares does not give its norm (see :func:`_row_norm`).
    """
    with np.errstate(over="ignore"):
        norm = _row_norm(row)
    if norm is None:
        return None
    if not _above(norm, tol):
        return empty_matrix(row.shape[0])
    res = row / norm
    for _ in range(2):
        res = res - (basis @ res) @ basis
    sigma = _row_norm(res)
    if sigma is None:
        return None
    if not _above(sigma, tol):
        return empty_matrix(row.shape[0])
    return (res / sigma).reshape(1, -1)


def numerical_ker(a, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Split column-coordinate space into numerical kernel and its complement.

    Returns ``(v, w)`` where the columns of ``v`` are an orthonormal basis of
    the kernel of ``a`` at tolerance ``tol`` (right singular vectors for
    singular values <= tol) and the columns of ``w`` complete them to an
    orthonormal basis of R^cols.  ``v`` has cols - r columns and ``w`` has r,
    with r the rank.  Both are slices of the full vt of :func:`rank_svd`,
    so a :func:`negligible` matrix gives ``(I, empty)``, read-only views
    when it has at most 64 rows and columns.
    """
    _, _, vt, r = rank_svd(as_matrix(a), tol, full_matrices=True)
    return vt[r:, :].T, vt[:r, :].T


def row_space_basis(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical row space of ``m`` (rows of the result).

    Its r rows, r the rank of ``m``, span the same space as its leading
    right singular vectors (they are those vectors, to rounding, whenever
    r < k).

    A k x c matrix with 1 < k <= c and at least 2048 entries is first
    reduced by a Householder QR of its transpose, m' = Q R, as in Chan
    (1982, ACM TOMS 8(1)): R is k x k with the singular values of ``m``,
    so r is counted from a values-only SVD of R, and at full rank the
    rows of Q' are the basis, with no singular vector computed.  A
    rank-deficient R is factored with vectors, R = W S V', r is counted
    from S, and the basis is the first r rows of W'Q'.  Since
    sigma_min(R) <= min |r_ii|, a diagonal entry <= tol already shows the
    lost rank, and the values-only SVD is skipped.  Smaller, single-row
    and tall inputs, the empty one included, take :func:`rank_svd` of
    ``m``, which is faster there (the crossover was measured on one BLAS
    thread).
    """
    return _row_space(as_matrix(m), tol)[1]


def scaled_row_space(m, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """``(scaled, basis)``: rows spanning the row space of ``m`` at its scale, and its basis.

    ``basis`` is :func:`row_space_basis` of ``m``, and ``scaled`` comes
    from the same one factorization: r rows, r the rank of ``m``, with its
    r leading singular values.  Where :func:`row_space_basis` takes the
    SVD of ``m``, ``scaled`` is U_r' m, the rows :func:`independent_rows`
    returns.  Where it takes the QR, ``scaled`` is ``m`` itself at full
    row rank, an orthogonal change of rows of U'm, for which no singular
    vector is computed; at rank r < k the rows of ``basis`` are the
    leading right singular vectors of ``m``, and ``scaled`` is the first
    r rows of Sigma V', row i of ``basis`` times sigma_i, which is U_r' m
    to rounding.
    """
    return _row_space(as_matrix(m), tol)


def _row_space(m: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``(scaled, basis)`` of :func:`scaled_row_space`, for a 2-d array ``m``."""
    k, c = m.shape
    if k == 1 or k > c or m.size < _QR_MIN_ENTRIES:
        u, _, vt, r = rank_svd(m, tol)
        return u[:, :r].T @ m, vt[:r, :]
    if negligible(m, tol):
        return empty_matrix(c), empty_matrix(c)
    q, tri = np.linalg.qr(m.T)
    if np.abs(np.diagonal(tri)).min() > tol:
        if _count_above(_svd(tri, compute_uv=False), tol) == k:
            return m, q.T
    w, s, _ = _svd(tri, full_matrices=False)
    r = _count_above(s, tol)
    basis = w[:, :r].T @ q.T
    return s[:r, None] * basis, basis


def principal_angle(q1, q2) -> float:
    """Largest principal angle between the spans of two orthonormal row sets.

    The rows of ``q1`` and of ``q2`` must each be orthonormal; nothing is
    re-factored, so no rank is decided here.  Returns an angle in
    [0, pi/2].  When the row counts differ, the angle is taken over the
    min(rows1, rows2) principal angle pairs.

    Computed with the combined sine/cosine recipe of Knyazev & Argentati
    (2002, SIAM J. Sci. Comput. 23(6)): the sines, singular values of the
    residual of the smaller basis after its projection onto the larger
    one, resolve angles far below 1e-8 where a pure arccos of cosines
    saturates; the cosines, singular values of the cross products of the
    bases, are accurate for angles above pi/4.  Only the largest sine is
    needed.  It is read as sqrt(max(lambda, 0)), lambda the largest
    eigenvalue of the smaller Gram matrix of the residual, which a
    symmetric eigensolver returns to relative accuracy; clamping at 0
    keeps rounding from turning identical sets into NaN.  The cosines are
    factored only when that sine exceeds sin(pi/4).

    Raises:
        DimensionMismatch: column counts differ (the two sets live in
            different coordinate spaces, so no angle exists).
        EmptySubspace: either set has no rows.
    """
    q1 = as_matrix(q1)
    q2 = as_matrix(q2)
    if q1.shape[1] != q2.shape[1]:
        raise DimensionMismatch(
            f"cannot compare subspaces of R^{q1.shape[1]} and R^{q2.shape[1]}"
        )
    if q1.shape[0] == 0 or q2.shape[0] == 0:
        raise EmptySubspace("subspace angle against a rank-zero matrix")
    if q1.shape[0] < q2.shape[0]:
        q1, q2 = q2, q1
    cosines = q2 @ q1.T
    res = q2 - cosines @ q1
    # orthonormal rows are at most as many as columns: the smaller Gram
    gram = res @ res.T
    sine = np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0))
    if sine ** 2 <= 0.5:
        return float(np.arcsin(sine))
    return float(np.arccos(_svd(cosines, compute_uv=False)[-1]))


def subspace_angle(m1, m2, tol: float = DEFAULT_TOL) -> float:
    """Largest principal angle between the row spaces of ``m1`` and ``m2``.

    Returns an angle in [0, pi/2]; 0 exactly when the row spaces coincide
    (within ``tol``).  When the ranks differ, the angle is taken over the
    min(rank1, rank2) principal angle pairs, matching how perturbed and
    exact constraint sets of different sizes are compared.

    Each argument is reduced to an orthonormal basis of its row space at
    ``tol`` (:func:`row_space_basis`) and the two bases are handed to
    :func:`principal_angle`.  This is the route for rows of any scale;
    callers that already hold orthonormal rows call
    :func:`principal_angle` and skip the two factorizations.

    Raises:
        DimensionMismatch: column counts differ (the two matrices live in
            different coordinate spaces, so no angle exists).
        EmptySubspace: either argument has numerical rank 0.
    """
    m1 = as_matrix(m1)
    m2 = as_matrix(m2)
    # checked before factoring: sweeps compare sets of different widths
    if m1.shape[1] != m2.shape[1]:
        raise DimensionMismatch(
            f"cannot compare subspaces of R^{m1.shape[1]} and R^{m2.shape[1]}"
        )
    return principal_angle(row_space_basis(m1, tol), row_space_basis(m2, tol))


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


def signed_swap(rows) -> np.ndarray:
    """``-rows J`` for rows over two blocks of n columns: ``[-rows_p, rows_x]``.

    J is that of :func:`symplectic_matrix`, but it is not formed.  For rows
    a and b over (x, p), ``signed_swap(a) @ b.T`` holds their canonical
    brackets a_x.b_p - a_p.b_x, and ``signed_swap(a) @ hess`` is the
    derivative of a along the field z' = -J hess z.
    """
    rows = as_matrix(rows)
    half = rows.shape[1] // 2
    return np.concatenate((-rows[:, half:], rows[:, :half]), axis=1)
