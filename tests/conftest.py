from functools import lru_cache
from typing import NamedTuple

import numpy as np
import pytest

from lqreduce import LQProblem, gen_exp1, gen_exp2, gen_exp3, reduce
from lqreduce.experiments import _seeded_orthogonal
from lqreduce.linalg import empty_matrix, equilibrate_rows, row_space_basis


def random_problem(rng, n, m, spd_r=False, singular_r=False):
    """Random LQ problem with symmetric Q, R; optionally SPD or singular R."""
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, m))
    q = rng.standard_normal((n, n))
    q = (q + q.T) / 2.0
    nm = rng.standard_normal((n, m))
    if spd_r:
        w = rng.standard_normal((m, m))
        r = w @ w.T + np.eye(m)
    else:
        r = rng.standard_normal((m, m))
        r = (r + r.T) / 2.0
        if singular_r:
            r[:, -1] = 0.0
            r[-1, :] = 0.0
    return LQProblem(A=a, B=b, Q=q, N=nm, R=r)


def symplectic_matrix(n):
    """The canonical 2n x 2n symplectic matrix, oriented as [[0, -I], [I, 0]].

    This orientation makes J (xdot; pdot) = (dH/dx; dH/dp) hold exactly for
    Hamilton's equations and gives the primary-constraint identity
    S1 = -Z0' J.  The package never forms J; tests check its row copies
    against it.
    """
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


def drift_blocks(problem):
    """G0 = [[A, 0], [Q, -A']] and Z0 = [B; N] of the Hamilton equations
    (x; p)' = G0 (x; p) + Z0 u, built densely from the problem's blocks."""
    n = problem.n
    g0 = np.block([[problem.A, np.zeros((n, n))], [problem.Q, -problem.A.T]])
    return g0, np.vstack([problem.B, problem.N])


def max_orthonormality_error(rows):
    """max |rows rows' - I| over the entries, 0 for an empty set."""
    return float(np.abs(rows @ rows.T - np.eye(rows.shape[0])).max(initial=0.0))


def stacked_reconstruction(res):
    """The final subspace in original controls, from one factorization of the stack.

    The pulled-back phi_first and phi_second and the feedback relations are
    stacked, equilibrated and reduced to an orthonormal basis at the
    reduction's tolerance: the reference that
    ``final_constraints_original_controls`` builds by extension instead.
    """
    two_n = 2 * res.n
    parts = [
        np.hstack([phi[:, :two_n], phi[:, two_n:] @ res.nofeed])
        for phi in (res.phi_first, res.phi_second)
    ]
    parts.append(np.hstack([-res.feedtot, res.feedsel]))
    stack = np.vstack(parts)
    if stack.shape[0] == 0:
        return empty_matrix(two_n + res.m)
    return row_space_basis(equilibrate_rows(stack, res.tol), res.tol)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def integrator_chain(j):
    """x_1' = x_2, ..., x_j' = u with cost x_1^2, N = 0 and R = 0.

    A singular arc of order j (Kelley, Kopp & Moyer 1967; Bell & Jacobson
    1975): the reduction takes 2j + 1 passes, solves its one control at the
    last, and leaves 2j second-class constraints.
    """
    a = np.diag(np.ones(j - 1), 1)
    b = np.zeros((j, 1))
    b[-1, 0] = 1.0
    q = np.zeros((j, j))
    q[0, 0] = 1.0
    return LQProblem(A=a, B=b, Q=q, N=np.zeros((j, 1)), R=np.zeros((1, 1)))


def _block(spec):
    """The problem of one block spec and its exact ``(index_k, m_res, rp)``."""
    kind, *size = spec
    if kind == "exp1":
        n, r, l = size
        # a second-class pair for each control solved at the second level
        return gen_exp1(n, r, l), (3, n - r - l, 2 * l)
    if kind == "exp2":
        return gen_exp2(*size), (3, 0, 2)
    if kind == "exp3":
        return gen_exp3(*size), (size[0], 1, 0)
    if kind == "chain":
        return integrator_chain(*size), (2 * size[0] + 1, 0, 2 * size[0])
    raise ValueError(f"unknown block {kind!r}")


def _block_diag(mats):
    out = np.zeros((sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)))
    i = j = 0
    for m in mats:
        out[i : i + m.shape[0], j : j + m.shape[1]] = m
        i, j = i + m.shape[0], j + m.shape[1]
    return out


class Expected(NamedTuple):
    """What :func:`compose` predicts of a direct sum from its blocks alone."""

    index_k: int
    m_res: int
    rp: int
    # the second-class count of each pass's set, ``class_counts``' second
    # entries, and the controls each pass solves, ``feedback_ranks``
    second_counts: tuple
    feedback_ranks: tuple


@lru_cache(maxsize=None)
def _block_passes(spec):
    """``(second_counts, feedback_ranks)`` of one block's own, unmixed run."""
    res = reduce(_block(spec)[0], 1e-6)
    return tuple(c[1] for c in res.class_counts), res.feedback_ranks


def _pass_sums(lists, fill):
    """The lists summed pass by pass, each padded with ``fill(list)`` to the longest."""
    size = max(len(lst) for lst in lists)
    padded = [lst + (fill(lst),) * (size - len(lst)) for lst in lists]
    return tuple(int(sum(entries)) for entries in zip(*padded))


def compose(blocks, seed):
    """A problem of known structure: the direct sum of ``blocks``, mixed.

    Each block is ``("exp1", n, r, l)``, ``("exp2", n)``, ``("exp3", n)``
    or ``("chain", j)`` (:func:`integrator_chain`).  The blocks' data are
    summed directly, then mixed by a seeded orthogonal state change x = T z
    and control rotation u = V w, which change no structure.  Returns
    ``(problem, expected)``, with ``expected`` an :class:`Expected`.  The
    blocks' chains run side by side, so its first three entries are
    (max index_k, sum of m_res, sum of rp), from closed forms, and its
    per-pass lists add up pass by pass those of the blocks' own runs,
    unmixed (ROADMAP item 19): each block's second-class counts are padded
    with its last one once its chain has ended, its feedback ranks with 0.
    """
    parts = [_block(spec) for spec in blocks]
    probs = [p for p, _ in parts]
    a, b, q, nm, r = (
        _block_diag([getattr(p, name) for p in probs]) for name in ("A", "B", "Q", "N", "R")
    )
    rng = np.random.default_rng(seed)
    t = _seeded_orthogonal(rng, a.shape[0])
    v = _seeded_orthogonal(rng, b.shape[1])
    q, r = t.T @ q @ t, v.T @ r @ v
    problem = LQProblem(
        A=t.T @ a @ t, B=t.T @ b @ v, Q=(q + q.T) / 2.0, N=t.T @ nm @ v, R=(r + r.T) / 2.0
    )
    counts = [c for _, c in parts]
    passes = [_block_passes(tuple(spec)) for spec in blocks]
    expected = Expected(
        max(c[0] for c in counts),
        sum(c[1] for c in counts),
        sum(c[2] for c in counts),
        _pass_sums([second for second, _ in passes], lambda lst: lst[-1]),
        _pass_sums([ranks for _, ranks in passes], lambda lst: 0),
    )
    return problem, expected
