"""Poisson brackets of linear constraints and first/second class splitting.

All constraints handled here are linear in the canonical coordinates
(x, p, u, v), so every pairwise Poisson bracket is a constant and the whole
classification reduces to the kernel of one antisymmetric matrix.  Brackets
are never evaluated pointwise.
"""

from __future__ import annotations

import numpy as np

from .constraints import ConstraintMatrix
from .linalg import DEFAULT_TOL, numerical_ker, rank_tol


def poisson_brackets(phi: ConstraintMatrix) -> np.ndarray:
    """Antisymmetric matrix of pairwise canonical brackets of the rows.

    With the (x, p, u, v) block layout the bracket of rows i and j is
    sigma_i.beta_j - beta_i.sigma_j + rho_i.omega_j - omega_i.rho_j.  The
    result is antisymmetrized as (P - P') / 2 to remove rounding; an empty
    constraint set gives the empty matrix.
    """
    if phi.n_rows == 0:
        return np.zeros((0, 0))
    n = phi.n
    sx = phi.rows[:, :n]
    sp = phi.rows[:, n : 2 * n]
    su = phi.u_block
    sv = phi.v_block
    poi = sx @ sp.T - sp @ sx.T + su @ sv.T - sv @ su.T
    return (poi - poi.T) / 2.0


def class_counts(phi: ConstraintMatrix, tol: float = DEFAULT_TOL) -> tuple[int, int]:
    """First- and second-class row counts; the latter is the bracket rank."""
    second = rank_tol(poisson_brackets(phi), tol)
    return phi.n_rows - second, second


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
