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
:mod:`lqreduce.linalg`.  Between two folds, every pass's matrix is a
leading block of the last one, so :func:`class_counts` counts them all
from that one matrix, and when it is negligible, reads no block.  The
final split takes the same matrix and its kernel from one SVD, which also
decides the last pass's count, so the last count and the split read one
factorization.  The split returns coefficient rows over the extended set
rather than the combined rows, so the coisotropic strip can decide on
their kernel block.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .linalg import (
    DEFAULT_TOL,
    as_matrix,
    negligible,
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


def class_counts(
    poi: np.ndarray, sizes, tol: float = DEFAULT_TOL
) -> list[tuple[int, int]]:
    """First- and second-class row counts of the leading blocks of ``poi``.

    Returns one ``(first, second)`` for each k in ``sizes``, counted from
    the leading k x k block of the bracket matrix ``poi``: the
    second-class count is :func:`rank_tol` of that block.  A set that
    only grows keeps each of its matrices, bit for bit, as a leading block
    of the next (:func:`extend_brackets`), so one call counts every pass
    between two folds.  No block's Frobenius norm exceeds that of ``poi``,
    so a :func:`~lqreduce.linalg.negligible` ``poi`` counts every block
    rank 0 without reading one.  Where rounding makes a block's norm
    exceed the whole matrix's, the block is still rank 0: it is
    antisymmetric, so sigma_max <= ||block||_F / sqrt(2).
    """
    if negligible(poi, tol):
        return [(k, 0) for k in sizes]
    counts = []
    for k in sizes:
        second = rank_tol(poi[:k, :k], tol)
        counts.append((k - second, second))
    return counts


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
