"""Poisson brackets of linear constraints and first/second class splitting.

All constraints handled here are linear in the canonical coordinates
(x, p, u, v), so every pairwise Poisson bracket is a constant and the whole
classification reduces to the kernel of one antisymmetric matrix.  Brackets
are never evaluated pointwise.

The loop of ``reduce`` holds its rows over (x, p, u) and leaves the
zero-order rows v = 0 implied; :func:`bracket_matrix` returns the matrix of
the extended set, those rows first, in block form: the brackets of the
zero-order rows with the held ones are the held rows' u block, so only the
held rows' own brackets P0, over (x, p), are a product.  Counting classes
takes the rank of that matrix by the rank rule of :mod:`lqreduce.linalg`,
read from its blocks: with U the held rows' u block, the rank of
[[0, -U'], [U, P0]] is 2 rank(U) + rank(K' P0 K), K the left kernel of U,
so only U and the brackets of the held combinations with no u part are
factored.  Between two folds the set only grows by appended rows, so
every pass's matrix is a leading block of the last one, and
:func:`class_counts` counts them all from the blocks of that one matrix,
built once where the segment ends: at a fold only P0, at the exit the
whole matrix.  When the blocks are negligible, none is read.  The final
split takes the whole matrix and its kernel from one SVD, which also
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
    empty_matrix,
    negligible,
    numerical_ker,
    rank_svd,
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


def bracket_matrix(rows: np.ndarray, n: int) -> np.ndarray:
    """Bracket matrix of the zero-order rows and ``rows``.

    ``rows`` are q constraint rows over (x, p, u), and the matrix is that of
    the set :func:`~lqreduce.constraints.with_zero_order` makes of them:
    the m zero-order rows e_v first, then ``rows``.  With U the u block of
    ``rows`` and P0 their own brackets, it reads [[0, -U'], [U, P0]]: a
    row's bracket with e_v is its u block, and with no v coefficients the
    brackets of two held rows are those of their (x, p) blocks.  P0 comes
    from :func:`poisson_brackets` of the (x, p) blocks alone, a q x 2n
    product rather than one over the 2n + 2m columns of the extended set.
    """
    two_n = 2 * n
    m = rows.shape[1] - two_n
    size = m + rows.shape[0]
    u = rows[:, two_n:]
    full = np.empty((size, size))
    full[:m, :m] = 0.0
    full[:m, m:] = -u.T
    full[m:, :m] = u
    full[m:, m:] = poisson_brackets(rows[:, :two_n], n)
    return full


def class_counts(
    poi: np.ndarray,
    sizes,
    tol: float = DEFAULT_TOL,
    quiet: bool | None = None,
    u: np.ndarray | None = None,
) -> list[tuple[int, int]]:
    """First- and second-class row counts of a set that grows by appended rows.

    ``poi`` holds the q x q brackets P0 of the held rows among themselves
    and ``u`` their q x m u block U, the brackets with the m zero-order
    rows that stand first (none when ``u`` is None).  The set's bracket
    matrix is then [[0, -U'], [U, P0]] (:func:`bracket_matrix`), and the
    set of each size k in ``sizes``, the zero-order rows and the first
    k - m held rows, has its leading k x k block.  Returns one
    ``(first, second)`` for each k, with the second-class count the rank
    of that block, read from its blocks as

        rank [[0, -U_k'], [U_k, P0_k]] = 2 rank(U_k) + rank(K' P0_k K),

    K an orthonormal basis of the left kernel of U_k, from
    :func:`~lqreduce.linalg.rank_svd` of U_k (K = I when U_k has rank 0,
    with no factorization when it is negligible): the zero-order rows
    pair with rank(U_k) held combinations, and what is left is the
    brackets of the combinations with no u part.  Each rank is counted by
    the rank rule, so only q_k x m and (q_k - rank U_k)^2 matrices are
    factored, never the k x k block; with no zero-order rows the count is
    :func:`rank_tol` of the leading block of ``poi``.  The rows of a set
    that only grows keep their order, so one call counts every pass
    between two folds.

    ``quiet`` is whether the whole bracket matrix is
    :func:`~lqreduce.linalg.negligible`, when the caller has tested it;
    None has ``poi`` and ``u`` tested here.  Either way a negligible
    matrix counts every set rank 0 without reading a block: no block's
    norm exceeds the whole's, and where rounding makes a leading block of
    the exactly antisymmetric ``poi`` exceed it, the block is still rank
    0, since sigma_max <= ||block||_F / sqrt(2).
    """
    if quiet is None:
        quiet = negligible(poi, tol) and (u is None or negligible(u, tol))
    if quiet:
        return [(k, 0) for k in sizes]
    m = 0 if u is None else u.shape[1]
    counts = []
    for k in sizes:
        held = k - m
        block = poi[:held, :held]
        pairs = 0
        if m:
            left, _, _, pairs = rank_svd(u[:held], tol, full_matrices=True)
            if pairs:
                ker = left[:, pairs:]
                block = ker.T @ block @ ker
        second = 2 * pairs + rank_tol(block, tol)
        counts.append((k - second, second))
    return counts


def split_first_second(
    poi: np.ndarray, tol: float = DEFAULT_TOL, quiet: bool | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """First- and second-class combinations ``(first, second)`` of a constraint set.

    ``poi`` is the bracket matrix of the set's rows, as
    :func:`poisson_brackets` or :func:`bracket_matrix` returns it, and
    the split does not rebuild it.  One SVD (:func:`numerical_ker`) gives
    its rank, the second-class count, and both bases: ``first`` holds the
    rows of a kernel basis, whose combinations of the set commute (to
    tolerance) with every constraint, and ``second`` those of its
    orthonormal completion, whose combinations carry an invertible bracket
    pairing and so always come in pairs.  A negligible matrix is not
    factored: every row is first class, ``first`` the identity.  Both come
    back as coefficient rows over the set's rows; ``first @ rows`` and
    ``second @ rows`` are the two sets, orthonormal when the set's rows
    are.  In ``reduce`` the rank read here is the last pass's count.
    :func:`class_counts` would read it from the matrix's blocks, factoring
    U and K' P0 K instead, and the two agree unless rounding puts a
    singular value on the other side of ``tol`` in one of the routes.
    ``quiet`` is whether ``poi`` is negligible, when the caller has tested
    it: a negligible one is then not read again.
    """
    if quiet:
        return np.eye(poi.shape[0]), empty_matrix(poi.shape[0])
    ker, compl = numerical_ker(poi, tol)
    return ker.T, compl.T
