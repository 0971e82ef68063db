"""Poisson brackets of linear constraints and first/second class splitting.

All constraints handled here are linear in the canonical coordinates
(x, p, u, v), so every pairwise Poisson bracket is a constant and the whole
classification reduces to the kernel of one antisymmetric matrix.  Brackets
are never evaluated pointwise.

The loop of ``reduce`` holds its rows over (x, p, u) and leaves the
zero-order rows v = 0 implied; :func:`extend_brackets` returns the matrix of
the extended set, those rows first, in block form: the brackets of the
zero-order rows with the held ones are the held rows' u block, so only the
held rows' own brackets, over (x, p), are a product.  A set that only grows
by appended rows keeps its bracket matrix as the leading block of the next
one, so :func:`extend_brackets` computes only the brackets of the new rows;
a change of coordinates (a feedback fold) needs a full rebuild.  Counting
classes takes the rank of that matrix by the rank rule of
:mod:`lqreduce.linalg`.  Its rank-0 test needs only the matrix's sum of
squares, which a bordered matrix updates from its border
(:func:`bracket_squares`), so a count whose brackets all vanish reads
neither the matrix nor its singular values.  The final split takes the
same matrix and its kernel from one SVD, which also decides the last
pass's count, so the last count and the split read one factorization.  The split returns coefficient
rows over the extended set rather than the combined rows, so the
coisotropic strip can decide on their kernel block.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .linalg import (
    DEFAULT_TOL,
    as_matrix,
    negligible_squares,
    numerical_ker,
    rank_tol,
    signed_swap,
)


def poisson_brackets(rows, n: int) -> np.ndarray:
    """Antisymmetric matrix of pairwise canonical brackets of constraint rows.

    ``rows`` are over (x, p, u, v), 2n + 2m columns for some m >= 0, and
    the bracket of rows a and b is sigma_a.beta_b - beta_a.sigma_b +
    rho_a.omega_b - omega_a.rho_b, so the matrix is one product: the rows
    signed-swapped within (x, p) and within (u, v)
    (:func:`~lqreduce.linalg.signed_swap`) against the rows.  The result
    is antisymmetrized as (P - P') / 2 to remove rounding; an empty
    constraint set gives the empty matrix.

    Raises DimensionMismatch unless the width is 2n + 2m.
    """
    rows = as_matrix(rows)
    two_n = 2 * n
    width = rows.shape[1]
    if width < two_n or (width - two_n) % 2:
        raise DimensionMismatch(
            f"constraint rows have {width} columns, not 2n + 2m with n = {n}"
        )
    if rows.shape[0] == 0:
        return np.zeros((0, 0))
    swapped = np.hstack([signed_swap(rows[:, :two_n]), signed_swap(rows[:, two_n:])])
    poi = swapped @ rows.T
    return (poi - poi.T) / 2.0


def extend_brackets(
    poi: np.ndarray | None, rows: np.ndarray, n: int, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Bracket matrix of the zero-order rows and ``rows``, bordering ``poi``.

    ``rows`` are q constraint rows over (x, p, u), and the matrix is that of
    the set :func:`~lqreduce.constraints.with_zero_order` makes of them:
    the m zero-order rows e_v first, then ``rows``.  With U the u block of
    ``rows`` and P0 their own brackets, it reads [[0, -U'], [U, P0]]: a
    row's bracket with e_v is its u block, and with no v coefficients the
    brackets of two held rows are those of their (x, p) blocks.  ``poi``
    None, as after a feedback fold changes coordinates, builds the matrix
    in full in that block form, P0 from :func:`poisson_brackets` of the
    (x, p) blocks alone, a q x 2n product rather than one over the
    2n + 2m columns of the extended set.  When ``rows`` extend a set whose
    matrix is ``poi`` (k x k), that matrix is its leading block, so only
    the border of the t new rows is computed, [U_new | their brackets with
    ``rows``], in O(t q n) rather than O(q^2 n): one product, the
    signed-swapped (x, p) block of the new rows against that of every row.
    Their t x t block is antisymmetrized as in :func:`poisson_brackets` and
    the k x t block is its mirror.

    ``out``, when given with ``poi``, is a square array of at least m + q
    rows.  The bordered matrix is written into its leading block and
    returned as a view of it; ``poi`` may already be its leading k x k
    block, which is then not copied.
    """
    two_n = 2 * n
    m = rows.shape[1] - two_n
    size = m + rows.shape[0]
    if poi is None:
        u = rows[:, two_n:]
        full = np.empty((size, size))
        full[:m, :m] = 0.0
        full[:m, m:] = -u.T
        full[m:, :m] = u
        full[m:, m:] = poisson_brackets(rows[:, :two_n], n)
        return full
    k = poi.shape[0]
    held = k - m  # rows that poi covers
    if out is None:
        out = np.empty((size, size))
    if not np.may_share_memory(poi, out):
        out[:k, :k] = poi
    border = out[k:size, :size]
    # a row's bracket with e_v is its u block
    border[:, :m] = rows[held:, two_n:]
    xp = rows[:, :two_n]
    np.matmul(signed_swap(xp[held:]), xp.T, out=border[:, m:])
    corner = border[:, k:]
    corner[...] = (corner - corner.T) / 2.0
    out[:k, k:size] = -border[:, :k].T
    return out[:size, :size]


def bracket_squares(poi: np.ndarray, k: int = 0) -> float:
    """The part of ||poi||_F^2 that lies outside the leading k x k block of ``poi``.

    ``poi`` is an exactly antisymmetric bracket matrix, as
    :func:`extend_brackets` returns it.  With B its rows from k on
    against its first k columns, and C its trailing block, that part is
    2 ||B||^2 + ||C||^2, since the block above C is -B'.  So ``k = 0``
    gives the whole sum of squares, and a caller that knows the sum of
    the leading block adds this to it after a border of t rows, in
    O(t q) for a q x q matrix.  Each block is one dot product of its
    entries; only a block of several rows of a larger buffer is copied
    for it.
    """
    b, c = poi[k:, :k].ravel(), poi[k:, k:].ravel()
    with np.errstate(over="ignore"):  # an overflowing sum is inf, not negligible
        return float(2.0 * b.dot(b) + c.dot(c))


def class_counts(
    poi: np.ndarray, tol: float = DEFAULT_TOL, squares: float | None = None
) -> tuple[int, int]:
    """First- and second-class row counts from the bracket matrix ``poi``.

    The second-class count is :func:`rank_tol` of ``poi``, so a set whose
    brackets all vanish is counted without an SVD.  ``squares``, when
    given, is ||poi||_F^2 as :func:`bracket_squares` carries it, and a
    matrix that it shows :func:`~lqreduce.linalg.negligible` is counted
    rank 0 without reading ``poi``.  The count is that of ``poi`` itself:
    ``poi`` is antisymmetric, so sigma_max <= ||poi||_F / sqrt(2), and a
    carried sum that differs from the direct one by rounding cannot move
    a singular value across ``tol``.
    """
    if squares is not None and negligible_squares(squares, tol):
        return poi.shape[0], 0
    second = rank_tol(poi, tol)
    return poi.shape[0] - second, second


def split_first_second(
    poi: np.ndarray, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """First- and second-class combinations ``(first, second)`` of a constraint set.

    ``poi`` is the bracket matrix of the set's rows, as
    :func:`poisson_brackets` or :func:`extend_brackets` returns it, and
    the split does not rebuild it.  One SVD (:func:`numerical_ker`) gives
    its rank, the second-class count, and both bases: ``first`` holds the
    rows of a kernel basis, whose combinations of the set commute (to
    tolerance) with every constraint, and ``second`` those of its
    orthonormal completion, whose combinations carry an invertible bracket
    pairing and so always come in pairs.  A negligible matrix is not
    factored: every row is first class, ``first`` the identity.  Both come
    back as coefficient rows over the set's rows; ``first @ rows`` and
    ``second @ rows`` are the two sets, orthonormal when the set's rows
    are.  A rank read here is the one :func:`class_counts` reads from the
    same matrix, unless rounding puts a singular value on the other side
    of ``tol`` in one of the two LAPACK routes.
    """
    ker, compl = numerical_ker(poi, tol)
    return ker.T, compl.T
