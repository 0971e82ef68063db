"""Exact symmetries of the problem data, under which the structure must not move.

Each relation maps a problem to one whose constraint chain is the same,
up to the sign or the place of coordinates, so every count of the
reduction must be the same at every pass:

- time reversal, (A, B) -> (-A, -B);
- cost negation, (Q, N, R) -> (-Q, -N, -R);
- a permutation of the states and one of the controls.

Each changes only the sign or the place of entries, never their
magnitude.  The permuted problem's final subspace, mapped back to the
original coordinates, must also be the original's.
"""

import numpy as np
import pytest

from lqreduce import LQProblem, gen_exp1, gen_exp2, gen_exp3, perturb, reduce
from lqreduce.linalg import principal_angle
from conftest import random_problem

TOL = 1e-6


def problems():
    """200 random singular draws, then families 1-3 perturbed at 1e-10."""
    rng = np.random.default_rng(215)
    out = [
        random_problem(rng, int(rng.integers(2, 7)), int(rng.integers(1, 5)), singular_r=True)
        for _ in range(200)
    ]
    for seed in range(5):
        out.append(perturb(gen_exp1(8, 3, 2, seed=seed), 1e-10, seed=seed))
        out.append(perturb(gen_exp2(4 + seed), 1e-10, seed=seed))
        out.append(perturb(gen_exp3(4 + seed), 1e-10, seed=seed, preserve_structure=True))
    return out


def counts(res):
    return (
        res.index_k, res.m_res, res.rp,
        res.constraint_counts, res.class_counts, res.feedback_ranks,
    )


def time_reversed(p):
    return LQProblem(A=-p.A, B=-p.B, Q=p.Q, N=p.N, R=p.R)


def cost_negated(p):
    return LQProblem(A=p.A, B=p.B, Q=-p.Q, N=-p.N, R=-p.R)


@pytest.mark.parametrize("relation", [time_reversed, cost_negated])
def test_sign_relations_keep_every_count(relation):
    moved = [
        i for i, p in enumerate(problems())
        if counts(reduce(relation(p), TOL)) != counts(reduce(p, TOL))
    ]
    assert moved == []


def test_permutations_keep_every_count_and_the_final_subspace():
    # states z = x[ps] and controls w = u[pu]: a row d over (z, p_z, w) is
    # the row over (x, p, u) whose columns ps, n + ps and 2n + pu hold d
    rng = np.random.default_rng(19)
    moved, worst = [], 0.0
    for i, p in enumerate(problems()):
        n, m = p.n, p.m
        ps, pu = rng.permutation(n), rng.permutation(m)
        permuted = LQProblem(
            A=p.A[np.ix_(ps, ps)], B=p.B[np.ix_(ps, pu)], Q=p.Q[np.ix_(ps, ps)],
            N=p.N[np.ix_(ps, pu)], R=p.R[np.ix_(pu, pu)],
        )
        res, res_p = reduce(p, TOL), reduce(permuted, TOL)
        if counts(res_p) != counts(res):
            moved.append(i)
            continue
        rows = res.final_constraints_original_controls()
        rows_p = res_p.final_constraints_original_controls()
        assert rows_p.shape == rows.shape
        if rows.shape[0]:
            back = np.empty_like(rows_p)
            back[:, np.concatenate((ps, n + ps, 2 * n + pu))] = rows_p
            worst = max(worst, principal_angle(back, rows))
    assert moved == []
    assert worst <= 1e-12
