"""Problem families, norm-bounded perturbations, and stability sweeps.

Three families probe the reducer: a small-index family with partial
feedback at two levels (family 1), a small-index family whose final
subspace is known in closed form, sum(x) = sum(p) = u = 0 (family 2), and a
large-index family driven by a nilpotent drift, which stabilizes only after
n passes and leaves one gauge control (family 3).  Sweeps perturb the data
at spectral norm below delta, re-reduce, and record the principal angle
between perturbed and exact final constraint sets; the angle scales like
O(delta) until the perturbation reaches the rank tolerance, where the
structure (step count, residual controls, class counts) breaks down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySubspace, InsufficientData, InvalidShape
from .linalg import DEFAULT_TOL, is_integer, principal_angle, real_number, row_space_basis
from .model import LQProblem
from .reduction import reduce


@dataclass(frozen=True)
class ExperimentRecord:
    """One sweep row: exact-problem facts against perturbed-problem facts.

    ``alpha`` is the angle between the final constraint sets in radians, or
    None when the comparison is not computable (the residual control counts
    differ, or a constraint set is empty).
    """

    n: int
    delta: float
    steps_exact: int
    steps: int
    m: int
    m1: int
    rp: int
    rp1: int
    alpha: float | None


def _seeded_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    # fix the QR sign ambiguity so the draw is reproducible across BLAS builds
    return q * np.sign(np.diag(r))


def _handed_over(name: str, **blocks: np.ndarray) -> LQProblem:
    """An LQProblem of arrays made here and held nowhere else.

    They are made read-only first, so the problem keeps them rather than
    copying arrays that no caller can write any more.
    """
    for block in blocks.values():
        block.flags.writeable = False
    return LQProblem(**blocks, name=name)


def _check_integers(**values) -> None:
    """Raise InvalidShape unless every value is an integer, a ``seed`` a nonnegative one.

    Without the check numpy's constructors reject a float size such as 4.0
    with a bare TypeError and read a bool as 0 or 1, and SeedSequence raises
    a bare ValueError or TypeError.
    """
    for name, value in values.items():
        if not is_integer(value) or (name == "seed" and value < 0):
            kind = "a nonnegative integer" if name == "seed" else "an integer"
            raise InvalidShape(f"{name} must be {kind}, got {value!r}")


def gen_exp1(n: int, r: int, l: int, seed: int = 0) -> LQProblem:
    """Family 1: square control space, rank-r cost R, two feedback levels.

    A = I, B a seeded orthogonal matrix, Q = diag(1..n), and R = U' S U with
    S carrying r singular values drawn from [1, 2].  The cross cost is
    N = B V with V = B' D_l B / 2, D_l the diagonal of Q with its first l
    entries zeroed, which makes the second-level control coefficients
    B'QB - 2V = B' (Q - D_l) B of rank exactly l.  The reduction then takes
    3 steps and leaves m = n - (r + l) residual controls.
    """
    _check_integers(n=n, r=r, l=l, seed=seed)
    if not (0 < r <= n):
        raise InvalidShape(f"need 0 < r <= n, got r={r}, n={n}")
    if not (0 < l <= n) or (r < n and r + l > n):
        raise InvalidShape(f"need 0 < l and r + l <= n, got r={r}, l={l}, n={n}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    u = _seeded_orthogonal(rng, n)
    s_vals = np.zeros(n)
    s_vals[:r] = rng.uniform(1.0, 2.0, size=r)
    r_mat = u.T @ np.diag(s_vals) @ u
    r_mat = (r_mat + r_mat.T) / 2.0
    b = _seeded_orthogonal(rng, n)
    d = np.diag(np.arange(1.0, n + 1.0))
    d_l = d.copy()
    d_l[:l, :l] = 0.0
    v = 0.5 * b.T @ d_l @ b
    return _handed_over(f"exp1(n={n},r={r},l={l})", A=np.eye(n), B=b, Q=d, N=b @ v, R=r_mat)


def gen_exp2(n: int) -> LQProblem:
    """Family 2: A = Q = I, B = (1..1)', N = 0, R = 0.

    Exact reduction facts, independent of n: 3 steps, residual controls 0,
    two second-class constraints, final subspace sum(x) = sum(p) = u = 0.
    """
    _check_integers(n=n)
    if n < 2:
        raise InvalidShape(f"need n >= 2, got n={n}")
    return _handed_over(
        f"exp2(n={n})",
        A=np.eye(n),
        B=np.ones((n, 1)),
        Q=np.eye(n),
        N=np.zeros((n, 1)),
        R=np.zeros((1, 1)),
    )


def gen_exp3(n: int) -> LQProblem:
    """Family 3: nilpotent drift of index n, one gauge control.

    A is the upper-shift matrix, Q = A + A', B = N = (1..1)'.  No level
    ever produces feedback, the chain stabilizes after n passes, and the
    single control stays free; every surviving constraint is first class.
    """
    _check_integers(n=n)
    if n < 2:
        raise InvalidShape(f"need n >= 2, got n={n}")
    a = np.diag(np.ones(n - 1), 1)
    ones = np.ones((n, 1))
    return _handed_over(f"exp3(n={n})", A=a, B=ones, Q=a + a.T, N=ones, R=np.zeros((1, 1)))


def _perturbation_size(delta) -> float | None:
    """``delta`` as a float if it is a finite :func:`~lqreduce.linalg.real_number` >= 0."""
    size = real_number(delta)
    return size if size is not None and np.isfinite(size) and size >= 0 else None


# rows of a draw per block of its Gram matrix (see _norm_bounded)
_GRAM_BLOCK = 32


def _norm_bounded(rng: np.random.Generator, shape, bound: float, symmetric=False):
    """A uniform(-1, 1) draw of ``shape``, symmetrized if asked, at spectral norm ``bound``.

    The norm comes from a symmetric eigensolver, not an SVD: it is the
    largest |eigenvalue| of a symmetrized draw, and otherwise the square
    root of the largest eigenvalue of the smaller Gram matrix.  A tall or
    square draw's Gram matrix e'e is summed over blocks of 32 of its
    rows, drawn one block at a time; the generator is then put back and
    the draw made whole, the same numbers in the same order.  So no more
    n x n arrays are alive at once than an SVD would hold, and no product
    has a long inner dimension: one would make OpenBLAS touch, and keep
    resident, about 1.5 MB more of its packing buffer at n = 640.
    """
    rows, cols = shape
    if symmetric:
        e = rng.uniform(-1.0, 1.0, size=shape)
        e = (e + e.T) / 2.0
        eigs = np.linalg.eigvalsh(e)
        nrm = max(-eigs[0], eigs[-1])
    elif rows < cols:
        e = rng.uniform(-1.0, 1.0, size=shape)
        nrm = np.sqrt(max(np.linalg.eigvalsh(e @ e.T)[-1], 0.0))
    else:
        start = rng.bit_generator.state
        gram = np.zeros((cols, cols))
        part = np.empty((cols, cols))
        for top in range(0, rows, _GRAM_BLOCK):
            block = rng.uniform(-1.0, 1.0, size=(min(_GRAM_BLOCK, rows - top), cols))
            gram += np.matmul(block.T, block, out=part)
        del part
        nrm = np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0))
        del gram
        rng.bit_generator.state = start
        e = rng.uniform(-1.0, 1.0, size=shape)
    if nrm == 0.0:
        return e
    return e * (bound / nrm)


def perturb(
    problem: LQProblem,
    delta: float,
    seed: int = 0,
    preserve_structure: bool = False,
) -> LQProblem:
    """Random perturbation of every data block at spectral norm below delta.

    Each of A, B, N, Q, R gets an independent uniform(-1, 1) draw rescaled
    so its spectral norm equals delta * rho with rho ~ uniform(0, 1); the Q
    and R perturbations are symmetrized before rescaling so the result
    stays a valid problem.  The spectral norm is read from a symmetric
    eigensolver, not an SVD: the largest |eigenvalue| of a symmetrized
    draw, and the square root of the largest eigenvalue of the smaller
    Gram matrix (e'e or ee') of any other.  With ``preserve_structure``
    the perturbed Q is rebuilt as A~ + A~' instead of perturbed
    independently (family 3 keeps its structure that way).  delta is a finite real number >= 0; delta = 0
    returns the problem as is; a fixed seed gives identical output.

    Perturbing R matters only for launching the chain: once delta reaches
    the rank tolerance, a singular R gains spurious full rank and the
    reduction solves every control on its first pass, which is the
    breakdown mode the sweep is meant to expose.
    """
    size = _perturbation_size(delta)
    if size is None:
        raise InvalidShape(f"need a real, finite delta >= 0, got {delta!r}")
    _check_integers(seed=seed)
    if size == 0.0:
        return problem
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    a = problem.A + _norm_bounded(rng, problem.A.shape, size * rng.uniform())
    b = problem.B + _norm_bounded(rng, problem.B.shape, size * rng.uniform())
    n_mat = problem.N + _norm_bounded(rng, problem.N.shape, size * rng.uniform())
    if preserve_structure:
        q = a + a.T
    else:
        q = problem.Q + _norm_bounded(
            rng, problem.Q.shape, size * rng.uniform(), symmetric=True
        )
    r_mat = problem.R + _norm_bounded(
        rng, problem.R.shape, size * rng.uniform(), symmetric=True
    )
    return _handed_over(problem.name, A=a, B=b, Q=q, N=n_mat, R=r_mat)


def sweep_child_seed(seed: int, index: int) -> int:
    """Per-delta perturbation seed; independent of evaluation order."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def make_problem(family: int, n: int, r: int | None = None, l: int | None = None,
                 seed: int = 0) -> LQProblem:
    """Build the exact problem of one family; family 1 needs r and l.

    Families 2 and 3 take no r or l: a value given for either raises
    InvalidShape rather than being ignored, as does a non-integer family.
    """
    _check_integers(family=family)
    if family == 1:
        if r is None or l is None:
            raise InvalidShape("family 1 needs the rank r and truncation l")
        return gen_exp1(n, r, l, seed)
    if family in (2, 3) and (r is not None or l is not None):
        raise InvalidShape(f"family {family} takes no r or l, got r={r}, l={l}")
    if family == 2:
        return gen_exp2(n)
    if family == 3:
        return gen_exp3(n)
    raise InvalidShape(f"unknown experiment family {family!r}")


def run_sweep(
    family: int,
    n: int,
    deltas,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    r: int | None = None,
    l: int | None = None,
) -> list[ExperimentRecord]:
    """Reduce the exact problem once, then once per perturbation size.

    Every delta derives its own perturbation seed from (seed, index), so
    records do not depend on evaluation order.  A record's alpha is None
    when the angle is not computable.  The exact final rows are factored
    once, so each delta factors only its own rows; the angle is the one
    :func:`~lqreduce.linalg.subspace_angle` gives, bit for bit.
    """
    _check_integers(seed=seed)
    deltas = [_perturbation_size(d) for d in deltas] if np.iterable(deltas) else []
    if not deltas or None in deltas:
        raise InvalidShape("deltas must be a nonempty list of finite nonnegative reals")
    problem = make_problem(family, n, r=r, l=l, seed=seed)
    exact = reduce(problem, tol)
    exact_basis = row_space_basis(exact.final_constraints(), tol)
    records = []
    for index, delta in enumerate(deltas):
        pert_problem = perturb(
            problem, delta, seed=sweep_child_seed(seed, index),
            preserve_structure=(family == 3),
        )
        pert = reduce(pert_problem, tol)
        pert_rows = pert.final_constraints()
        alpha = None
        # sets of different widths have no angle; checked before factoring
        if pert_rows.shape[1] == exact_basis.shape[1]:
            try:
                alpha = principal_angle(exact_basis, row_space_basis(pert_rows, tol))
            except EmptySubspace:
                pass
        records.append(
            ExperimentRecord(
                n=n,
                delta=delta,
                steps_exact=exact.index_k,
                steps=pert.index_k,
                m=exact.m_res,
                m1=pert.m_res,
                rp=exact.rp,
                rp1=pert.rp,
                alpha=alpha,
            )
        )
    return records


def fit_loglog_slope(records) -> float:
    """Least-squares slope of log10(alpha) against log10(delta).

    Only computable records (finite alpha > 0, delta > 0) enter the fit;
    unless they cover at least two distinct deltas, InsufficientData is
    raised (a fit through one abscissa has no slope).
    """
    pts = [
        (np.log10(rec.delta), np.log10(rec.alpha))
        for rec in records
        if rec.alpha is not None and rec.alpha > 0.0 and rec.delta > 0.0
    ]
    distinct = len({x for x, _ in pts})
    if distinct < 2:
        raise InsufficientData(
            f"need computable records at 2 distinct deltas, got {distinct}"
        )
    xs, ys = zip(*pts)
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)
