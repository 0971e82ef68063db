"""Direct sums of closed-form blocks, mixed by exact symmetries.

The blocks' constraint chains run side by side, so both routes must find
the structure that :func:`conftest.compose` predicts from the blocks alone.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lqreduce import compare_final_subspaces, recursive_reduce, reduce
from lqreduce import oracle
from lqreduce.linalg import principal_angle
from conftest import (
    compose,
    integrator_chain,
    max_orthonormality_error,
    stacked_reconstruction,
)

TOL = 1e-6


@st.composite
def blocks(draw):
    kind = draw(st.sampled_from(["exp1", "exp2", "exp3", "chain"]))
    if kind == "exp1":
        n = draw(st.integers(2, 12))
        r = draw(st.integers(1, n - 1))
        return (kind, n, r, draw(st.integers(1, n - r)))
    if kind == "chain":
        return (kind, draw(st.integers(1, 12)))
    return (kind, draw(st.integers(2, 12)))


def check_both_routes(problem, expected, angle=1e-10):
    res = reduce(problem, TOL)
    out = recursive_reduce(problem, TOL)
    assert (res.index_k, res.m_res, res.rp) == expected
    assert (out.index_k, out.m_res) == expected[:2]
    # the stripped sets are held orthonormal, and the reconstruction built
    # from them by extension spans the stacked reference's subspace
    assert max_orthonormality_error(res.phi_first) <= 1e-13
    assert max_orthonormality_error(res.phi_second) <= 1e-13
    rows = res.final_constraints_original_controls()
    ref = stacked_reconstruction(res)
    assert rows.shape[0] == ref.shape[0]
    if rows.shape[0]:
        assert principal_angle(rows, ref) <= 1e-12
    assert out.final_constraints.shape[0] == rows.shape[0]
    assert compare_final_subspaces(out, res) <= angle
    return res


NEAR_DEPENDENT = [("exp1", 3, 1, 1), ("chain", 2), ("exp1", 12, 6, 6)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(parts=st.lists(blocks(), min_size=1, max_size=5), seed=st.integers(0, 2 ** 32 - 1))
@example(parts=NEAR_DEPENDENT, seed=0)
def test_both_routes_find_the_composed_structure(parts, seed):
    # at most five blocks of at most 12 states: n <= 60.  The angle bound
    # is the structure snapshot's: where a block of family 1 folds beside a
    # chain, reduce's reconstruction can sit up to about 2e-7 rad from the
    # oracle (test_reconstruction_near_dependent_rows)
    check_both_routes(*compose(parts, seed), angle=1e-6)


@pytest.mark.xfail(
    strict=True,
    reason="the reduced sets carry a 1.9e-8 rad error into the reconstruction "
    "(ROADMAP items 15 and 18)",
)
def test_reconstruction_near_dependent_rows():
    # the structure is exact, and the oracle lies within 3e-13 rad of the
    # direct sum of the blocks' own answers, but the reconstruction sits
    # 1.9488e-8 rad from it.  Built by extension from orthonormal parts, it
    # reads the same angle as one factorization of the stacked parts, so
    # the error lies in the parts that reduce hands over, not in how they
    # are combined; its structure is checked with the property above
    check_both_routes(*compose(NEAR_DEPENDENT, 0))


def test_chain_that_folds_mid_chain(monkeypatch):
    # integrator chains of lengths 10, 20 and 40 fold at passes 21, 41 and
    # 81 while gen_exp3(60) goes on: the only sizeable input whose oracle
    # meets a u-block of full rank in the middle of its chain
    problem, expected = compose([("chain", 10), ("chain", 20), ("chain", 40), ("exp3", 60)], 0)
    assert (problem.n, expected) == (130, (81, 1, 140))
    calls = []
    real_ker = oracle.numerical_ker

    def recording(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real_ker(a, *args, **kwargs)

    monkeypatch.setattr(oracle, "numerical_ker", recording)
    res = check_both_routes(problem, expected)
    assert [k + 1 for k, r in enumerate(res.feedback_ranks) if r] == [21, 41, 81]
    # R = 0, so the u-block is negligible until the shortest chain reaches
    # its control at pass 21, and factored on every pass from there to 81
    assert len(calls) == 61


@pytest.mark.parametrize("j", [1, 2, 3, 5, 8])
def test_integrator_chain_counts_each_pass(j):
    # the chain reaches its control at pass 2j.  Until then the
    # second-class count stays 0 for j passes and then grows by a pair a
    # pass; the fold at the exit solves the control, and the final set
    # keeps 2j second-class rows
    res = reduce(integrator_chain(j), TOL)
    second = [c[1] for c in res.class_counts]
    assert second == [0] * j + [2 * (k - j + 1) for k in range(j, 2 * j + 1)] + [2 * j]
    assert res.feedback_ranks == (0,) * (2 * j) + (1,)
    assert (res.index_k, res.m_res, res.rp) == (2 * j + 1, 0, 2 * j)
