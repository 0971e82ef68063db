"""Poisson brackets of linear constraints and first/second class splitting.

All constraints handled here are linear in the canonical coordinates
(x, p, u, v), so every pairwise Poisson bracket is a constant and the whole
classification reduces to the kernel of one antisymmetric matrix.  Brackets
are never evaluated pointwise.

A set that only grows by appended rows keeps its bracket matrix as the
leading block of the next one, so :func:`extend_brackets` computes only the
brackets of the new rows; a change of coordinates (a feedback fold) needs a
full rebuild.  Counting classes takes the rank of that matrix, and rank 0 is
decided from its Frobenius norm without an SVD.  The final split builds its
matrix afresh and takes its kernel from one SVD.
"""

from __future__ import annotations

import numpy as np

from .constraints import ConstraintMatrix
from .linalg import DEFAULT_TOL, numerical_ker, rank_tol


def _brackets(rows: np.ndarray, phi: ConstraintMatrix) -> np.ndarray:
    """t x q brackets of t ``rows`` over phi's coordinates with its q rows.

    With the (x, p, u, v) block layout the bracket of rows a and b is
    sigma_a.beta_b - beta_a.sigma_b + rho_a.omega_b - omega_a.rho_b.  The
    result is not antisymmetrized.
    """
    n, m = phi.n, phi.m_cur
    two_n = 2 * n
    sx = phi.rows[:, :n]
    sp = phi.rows[:, n:two_n]
    su = phi.u_block
    sv = phi.v_block
    return (
        rows[:, :n] @ sp.T
        - rows[:, n:two_n] @ sx.T
        + rows[:, two_n : two_n + m] @ sv.T
        - rows[:, two_n + m :] @ su.T
    )


def poisson_brackets(phi: ConstraintMatrix) -> np.ndarray:
    """Antisymmetric matrix of pairwise canonical brackets of the rows.

    The result is antisymmetrized as (P - P') / 2 to remove rounding; an
    empty constraint set gives the empty matrix.
    """
    if phi.n_rows == 0:
        return np.zeros((0, 0))
    poi = _brackets(phi.rows, phi)
    return (poi - poi.T) / 2.0


def extend_brackets(poi: np.ndarray | None, phi: ConstraintMatrix) -> np.ndarray:
    """Bracket matrix of ``phi``, bordering ``poi``, that of its leading rows.

    When the rows of ``phi`` extend a set whose bracket matrix is ``poi``
    (k x k), that matrix is the leading block of the new one, so only the
    brackets of the t new rows with all q rows are computed, in O(t q n)
    rather than O(q^2 n).  Their t x t block is antisymmetrized as in
    :func:`poisson_brackets` and the k x t block is its mirror.  ``poi``
    None, as after a feedback fold changes coordinates, builds the matrix
    in full with :func:`poisson_brackets`.
    """
    if poi is None:
        return poisson_brackets(phi)
    k, q = poi.shape[0], phi.n_rows
    border = _brackets(phi.rows[k:], phi)
    corner = border[:, k:]
    out = np.empty((q, q))
    out[:k, :k] = poi
    out[k:, :k] = border[:, :k]
    out[:k, k:] = -border[:, :k].T
    out[k:, k:] = (corner - corner.T) / 2.0
    return out


def class_counts(poi: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[int, int]:
    """First- and second-class row counts from the bracket matrix ``poi``.

    The second-class count is the rank of ``poi``; :func:`rank_tol` decides
    rank 0 from the Frobenius norm alone, so a set whose brackets all
    vanish is counted without an SVD.
    """
    second = rank_tol(poi, tol)
    return poi.shape[0] - second, second


def split_first_second(
    phi: ConstraintMatrix, tol: float = DEFAULT_TOL
) -> tuple[ConstraintMatrix, ConstraintMatrix]:
    """Split independent constraint rows into ``(first, second)`` class.

    The kernel basis v of the bracket matrix gives the first-class
    combinations v' phi, which commute (to tolerance) with every
    constraint; the orthonormal completion w (from the same SVD) gives the
    second-class combinations w' phi, which carry an invertible bracket
    pairing and so always come in pairs.  Both come back as constraint
    sets over the coordinates of ``phi``.
    """
    poi = poisson_brackets(phi)
    ker, compl = numerical_ker(poi, tol)
    return phi.with_rows(ker.T @ phi.rows), phi.with_rows(compl.T @ phi.rows)
