import numpy as np
import pytest

from lqreduce import LQProblem


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
