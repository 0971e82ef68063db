"""Problem data, Pontryagin's Hamiltonian, and the initial reduction matrices.

An LQ optimal control problem is the data (A, B, Q, N, R): dynamics
xdot = A x + B u and quadratic running cost
L(x, u) = x'Qx/2 + x'Nu + u'Ru/2, with Q and R symmetric.  When R is
invertible the stationarity condition dH/du = 0 has the closed-form
feedback solution; when R is singular the problem requires the constraint
reduction implemented in :mod:`lqreduce.reduction`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetricQ,
    AsymmetricR,
    DimensionMismatch,
    NonFiniteEntry,
    ValidationError,
)
from .linalg import asymmetry

_SYM_RTOL = 1e-12


def _as_float_matrix(a, label: str) -> np.ndarray:
    """``a`` as a 2-d float array; integers are read as doubles.

    Complex, bool, string and object entries raise ValidationError rather
    than being cast: a cast would drop an imaginary part or read ``True``
    and ``"1"`` as 1.0.
    """
    m = np.asarray(a)
    if m.dtype.kind not in "fiu":
        raise ValidationError(f"matrix {label} has {m.dtype} entries, not real numbers")
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"matrix expected, got array of ndim={m.ndim}")
    return m


@dataclass(frozen=True)
class LQProblem:
    """The five constant matrices of an LQ problem.

    Attributes:
        A: n x n state matrix.
        B: n x m control matrix.
        Q: n x n symmetric state-cost matrix.
        N: n x m cross-cost matrix.
        R: m x m symmetric control-cost matrix.
        name: optional label carried through reports.
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    N: np.ndarray
    R: np.ndarray
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        for attr in ("A", "B", "Q", "N", "R"):
            object.__setattr__(self, attr, _as_float_matrix(getattr(self, attr), attr))

    @property
    def n(self) -> int:
        """State dimension."""
        return self.A.shape[0]

    @property
    def m(self) -> int:
        """Control dimension."""
        return self.B.shape[1]


@dataclass(frozen=True)
class InitialMatrices:
    """Seed matrices of the reduction.

    hess0 = J G0 = [[-Q, A'], [A, 0]] is the 2n x 2n Hessian of the
    Hamiltonian in (x; p), where G0 = -J hess0 = [[A, 0], [Q, -A']] is the
    drift block of the Hamilton equations (x; p)' = G0 (x; p) + z0 u.  Both
    reduction routes differentiate along hess0, so G0 is never built.  z0
    is the 2n x m control block and (s1, r1) the coefficients of the
    primary constraints dH/du = s1 (x; p) - r1 u.  They satisfy
    s1 = -z0' J.
    """

    hess0: np.ndarray
    z0: np.ndarray
    s1: np.ndarray
    r1: np.ndarray


def validate(problem: LQProblem) -> None:
    """Raise a ValidationError subclass if the problem data is inconsistent.

    Checks, in order: finiteness of all entries, mutual shape consistency of
    the five blocks, and symmetry of Q and R (relative tolerance 1e-12).
    Symmetry is enforced rather than silently repaired so that user input
    errors surface.
    """
    for label in ("A", "B", "Q", "N", "R"):
        block = getattr(problem, label)
        if not np.all(np.isfinite(block)):
            raise NonFiniteEntry(f"matrix {label} contains NaN or Inf")
    n, m = problem.n, problem.m
    if n < 1 or m < 1:
        raise DimensionMismatch(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    expected = {"A": (n, n), "B": (n, m), "Q": (n, n), "N": (n, m), "R": (m, m)}
    for label, shape in expected.items():
        actual = getattr(problem, label).shape
        if actual != shape:
            raise DimensionMismatch(f"matrix {label} has shape {actual}, expected {shape}")
    if asymmetry(problem.Q) > _SYM_RTOL:
        raise AsymmetricQ("state-cost matrix Q is not symmetric")
    if asymmetry(problem.R) > _SYM_RTOL:
        raise AsymmetricR("control-cost matrix R is not symmetric")


def pontryagin_hamiltonian(problem: LQProblem, x, p, u) -> float:
    """Evaluate H(x, p, u) = p'(Ax + Bu) - x'Qx/2 - x'Nu - u'Ru/2.

    ``x``, ``p`` and ``u`` are flattened to vectors of n, n and m floats.
    The coisotropic coordinates v of the extended space do not enter: the
    extension term vanishes on v = 0 and the arbitrary extension functions
    are never materialized.
    """
    n, m = problem.n, problem.m
    x, p, u = (np.asarray(a, dtype=float).reshape(-1) for a in (x, p, u))
    if x.shape != (n,) or p.shape != (n,) or u.shape != (m,):
        raise DimensionMismatch(
            f"point shapes {x.shape}/{p.shape}/{u.shape} do not match n={n}, m={m}"
        )
    drift = problem.A @ x + problem.B @ u
    cost = 0.5 * x @ problem.Q @ x + x @ problem.N @ u + 0.5 * u @ problem.R @ u
    return float(p @ drift - cost)


def initial_matrices(problem: LQProblem) -> InitialMatrices:
    """Build hess0 = J G0, Z0 and the primary-constraint coefficients S1, R1.

    hess0 = [[-Q, A'], [A, 0]], Z0 = [B; N], S1 = [-N' | B'] and R1 = R.
    hess0 is written block by block into one array.  The identity
    S1 = -Z0' J holds exactly by construction.
    """
    validate(problem)
    n = problem.n
    hess0 = np.zeros((2 * n, 2 * n))
    np.negative(problem.Q, out=hess0[:n, :n])
    hess0[:n, n:] = problem.A.T
    hess0[n:, :n] = problem.A
    z0 = np.vstack([problem.B, problem.N])
    s1 = np.hstack([-problem.N.T, problem.B.T])
    r1 = problem.R.copy()
    return InitialMatrices(hess0=hess0, z0=z0, s1=s1, r1=r1)


__all__ = [
    "LQProblem",
    "InitialMatrices",
    "validate",
    "pontryagin_hamiltonian",
    "initial_matrices",
]
