"""Problem data, Pontryagin's Hamiltonian, and the primary constraints.

An LQ optimal control problem is the data (A, B, Q, N, R): dynamics
xdot = A x + B u and quadratic running cost
L(x, u) = x'Qx/2 + x'Nu + u'Ru/2, with Q and R symmetric.  When R is
invertible the stationarity condition dH/du = 0 has the closed-form
feedback solution; when R is singular the problem requires the constraint
reduction implemented in :mod:`lqreduce.reduction`.  An :class:`LQProblem`
is checked once, when it is built, and never again: its blocks are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import (
    AsymmetricQ,
    AsymmetricR,
    DimensionMismatch,
    NonFiniteEntry,
    ValidationError,
)
from .linalg import asymmetry, real_number

_SYM_RTOL = 1e-12


def _as_float_matrix(a, label: str) -> np.ndarray:
    """``a`` as a read-only 2-d float array that no caller can write.

    Integers are read as doubles.  A nested list with a Python int too
    large for int64, of which NumPy makes an object array, is read entry
    by entry by the scalar rule (:func:`~lqreduce.linalg.real_number`), so
    an int beyond double range is inf, which :func:`validate` rejects.
    Complex, bool, string and other object entries raise ValidationError
    rather than being cast: a cast would drop an imaginary part or read
    ``True`` and ``"1"`` as 1.0, as NumPy reads a bool among numbers in a
    list.  A ragged list or an ndim other than 2 raises DimensionMismatch.

    An array that NumPy makes here, from a list or by a cast, is private
    and kept as it is; so is a read-only array that owns its data, such
    as another problem's block.  Any other array is copied, since its
    caller could still write it: a writable one given as it is, or a view.
    """
    try:
        m = np.asarray(a)
    except ValueError as exc:  # a ragged list
        raise DimensionMismatch(f"matrix {label} is ragged, not a rectangular array") from exc
    if m.ndim != 2:
        raise DimensionMismatch(f"matrix {label} must be 2-d, got ndim={m.ndim}")
    nested = isinstance(a, (list, tuple))
    if nested and m.dtype == object:
        entries = [real_number(entry) for entry in m.flat]
        if None in entries:
            raise ValidationError(f"matrix {label} has entries that are not real numbers")
        m = np.array(entries).reshape(m.shape)
    else:
        types = set(map(type, chain.from_iterable(a))) if nested else ()
        if m.dtype.kind not in "fiu" or bool in types or np.bool_ in types:
            raise ValidationError(f"matrix {label} has entries that are not real numbers")
        m = np.asarray(m, dtype=float)
        if m.base is not None or (m is a and m.flags.writeable):
            m = m.copy()
    m.flags.writeable = False
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

    Building a problem checks each block, that ``name`` is None or a string,
    and then the whole (:func:`validate`), raising a ValidationError subclass.
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
        if self.name is not None and not isinstance(self.name, str):
            raise ValidationError(f"name must be a string, got {self.name!r}")
        validate(self)

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
    """The primary stack of the reduction.

    (s1, r1) are the coefficients of the primary constraints
    dH/du = s1 (x; p) - r1 u.  The Hamilton equations
    (x; p)' = G0 (x; p) + Z0 u have G0 = [[A, 0], [Q, -A']] and
    Z0 = [B; N], which satisfy s1 = -Z0' J;
    :func:`~lqreduce.reduction.reduce` and the oracle read G0 and Z0 from
    the problem's own blocks, so neither is built.
    """

    s1: np.ndarray
    r1: np.ndarray


def validate(problem: LQProblem) -> None:
    """Raise a ValidationError subclass if the problem data is inconsistent.

    Building an :class:`LQProblem` calls it.  Checks, in order: finiteness
    of all entries, mutual shape consistency of the five blocks, and
    symmetry of Q and R (relative tolerance 1e-12).  Symmetry is enforced
    rather than silently repaired so that user input errors surface.
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
    """The primary-constraint coefficients S1 = [-N' | B'] and R1 = R.

    R1 is the problem's read-only block itself.  The identity S1 = -Z0' J,
    with Z0 = [B; N], holds exactly by construction.
    """
    s1 = np.hstack([-problem.N.T, problem.B.T])
    return InitialMatrices(s1=s1, r1=problem.R)


__all__ = [
    "LQProblem",
    "InitialMatrices",
    "validate",
    "pontryagin_hamiltonian",
    "initial_matrices",
]
