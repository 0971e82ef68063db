"""Acceptance suite: one test per criterion, each printing a pass line.

Criteria 1-5 populate a shared inventory of reductions; criterion 6 checks
that the reduced field of every one of them is Hamiltonian, and
criterion 8 re-examines every final constraint set from criteria 1-4.
"""

import time

import numpy as np
import pytest

from lqreduce import (
    gen_exp2,
    gen_exp3,
    fit_loglog_slope,
    make_problem,
    perturb,
    reduce,
    run_sweep,
    subspace_angle,
)
from lqreduce.classify import poisson_brackets
from lqreduce.experiments import sweep_child_seed
from lqreduce.linalg import numerical_ker, rank_tol, symplectic_matrix
from conftest import random_problem

TOL = 1e-6
STABLE_DELTAS = [1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8]
SLOPE_DELTAS = [1e-12, 1e-11, 1e-10, 1e-9, 1e-8]
FAMILIES = {
    1: dict(n=40, r=20, l=5),
    2: dict(n=50),
    3: dict(n=10),
}


def family_problems(family, deltas, seed=0):
    """Exact problem of a family plus its perturbed copies, one per delta."""
    spec = FAMILIES[family]
    exact = make_problem(family, spec["n"], r=spec.get("r"), l=spec.get("l"), seed=seed)
    perturbed = [
        perturb(exact, d, seed=sweep_child_seed(seed, i),
                preserve_structure=(family == 3))
        for i, d in enumerate(deltas)
    ]
    return exact, perturbed


@pytest.fixture(scope="module")
def inventory():
    """Reductions backing criteria 1-5, keyed by the criterion they serve."""
    inv = {"c1": [], "c2": [], "c4": [], "c5": []}
    for n in (3, 10, 50):
        t0 = time.perf_counter()
        res = reduce(gen_exp2(n), TOL)
        inv["c1"].append((n, res, time.perf_counter() - t0))
    for n in (4, 10, 20):
        t0 = time.perf_counter()
        res = reduce(gen_exp3(n), TOL)
        inv["c2"].append((n, res, time.perf_counter() - t0))
    for family in (1, 2, 3):
        exact, perturbed = family_problems(family, STABLE_DELTAS + [1e-5])
        inv["c4"].append(
            (family, reduce(exact, TOL), [reduce(p, TOL) for p in perturbed])
        )
    rng = np.random.default_rng(777)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        prob = random_problem(rng, n, m, spd_r=True)
        inv["c5"].append((prob, reduce(prob, TOL), rng.standard_normal((5, 2 * n))))
    return inv


def test_criterion_1_exp2_exactness(inventory):
    for n, res, elapsed in inventory["c1"]:
        assert res.index_k == 3, f"n={n}: steps {res.index_k} != 3"
        assert res.m_res == 0, f"n={n}: m_res {res.m_res} != 0"
        assert res.rp == 2, f"n={n}: rp {res.rp} != 2"
        ref = np.zeros((3, 2 * n + 1))
        ref[0, :n] = 1.0      # sum of states
        ref[1, n:2 * n] = 1.0  # sum of costates
        ref[2, 2 * n] = 1.0    # the control
        angle = subspace_angle(res.final_constraints_original_controls(), ref, TOL)
        assert angle < 1e-10, f"n={n}: angle {angle}"
        assert elapsed < 1.0, f"n={n}: took {elapsed:.2f}s"
    print("criterion 1 PASS: family 2 gives (3, 0, 2) and the exact subspace "
          "at n in {3, 10, 50}")


def test_criterion_2_exp3_large_index(inventory):
    for n, res, elapsed in inventory["c2"]:
        assert res.index_k == n, f"n={n}: steps {res.index_k} != {n}"
        assert res.m_res == 1, f"n={n}: m_res {res.m_res} != 1"
        assert res.rp == 0, f"n={n}: rp {res.rp} != 0"
        assert res.phi_second.shape[0] == 0
        if n == 20:
            assert elapsed < 5.0, f"n=20 took {elapsed:.2f}s"
    print("criterion 2 PASS: family 3 gives (n, 1, 0) at n in {4, 10, 20}")


def test_criterion_3_perturbation_slope():
    t0 = time.perf_counter()
    slopes = {}
    for family in (2, 3):
        spec = FAMILIES[family]
        records = []
        for seed in range(5):
            records += run_sweep(
                family, spec["n"], SLOPE_DELTAS, seed=seed,
                tol=TOL, r=spec.get("r"), l=spec.get("l"),
            )
        slope = fit_loglog_slope(records)
        assert 0.85 <= slope <= 1.15, f"family {family}: slope {slope}"
        slopes[family] = slope
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"sweeps took {elapsed:.1f}s"
    print(f"criterion 3 PASS: log-log slopes {slopes} within [0.85, 1.15]")


def test_criterion_4_stability_regime():
    for family in (1, 2, 3):
        spec = FAMILIES[family]
        records = run_sweep(
            family, spec["n"], STABLE_DELTAS + [1e-5], seed=0,
            tol=TOL, r=spec.get("r"), l=spec.get("l"),
        )
        for rec in records[:-1]:
            triple = (rec.steps, rec.m1, rec.rp1)
            exact = (rec.steps_exact, rec.m, rec.rp)
            assert triple == exact, (
                f"family {family} delta={rec.delta:g}: {triple} != {exact}"
            )
        if family == 1:
            assert records[0].m == 15  # m_res = n - (r + l)
        broke = records[-1]
        assert broke.steps != broke.steps_exact or broke.alpha is None, (
            f"family {family} shows no breakdown at delta=1e-5"
        )
    print("criterion 4 PASS: exact (steps, m, rp) reproduced for delta <= 1e-8 "
          "on all families; breakdown at delta = 1e-5")


def test_criterion_5_regular_feedback_closed_form(inventory):
    worst = 0.0
    for prob, res, points in inventory["c5"]:
        assert res.index_k == 1 and res.m_res == 0
        law = res.feedback_law()
        n = prob.n
        for zeta in points:
            expected = np.linalg.solve(
                prob.R, prob.B.T @ zeta[n:] - prob.N.T @ zeta[:n]
            )
            err = np.linalg.norm(law @ zeta - expected) / (
                1.0 + np.linalg.norm(expected)
            )
            worst = max(worst, err)
            assert err < 1e-10
    print(f"criterion 5 PASS: 100 regular problems match R^-1(B'p - N'x); "
          f"worst relative error {worst:.2e}")


def test_criterion_6_hamiltonian_invariant(inventory):
    violations = 0
    total = 0
    worst = 0.0
    results = (
        [res for _, res, _ in inventory["c1"]]
        + [res for _, res, _ in inventory["c2"]]
        + [r for _, exact, perts in inventory["c4"] for r in [exact] + perts]
        + [res for _, res, _ in inventory["c5"]]
    )
    # criterion 3 runs the same two families over 5 seeds; audit those too
    for family in (2, 3):
        spec = FAMILIES[family]
        for seed in range(5):
            exact, perturbed = family_problems(family, SLOPE_DELTAS, seed=seed)
            results.append(reduce(exact, TOL))
            results.extend(reduce(p, TOL) for p in perturbed)
    for res in results:
        g = np.block([[res.ax, res.ap], [res.qx, res.qp]])
        jg = symplectic_matrix(res.n) @ g
        residual = np.linalg.norm(jg - jg.T) / (1 + np.linalg.norm(g))
        total += 1
        worst = max(worst, residual)
        if residual > 1e-10:
            violations += 1
    assert violations == 0, f"{violations} of {total} reduced fields violate J G symmetry"
    print(f"criterion 6 PASS: 0/{total} reduced fields violate the Hamiltonian "
          f"symmetry (worst residual {worst:.2e})")


def test_criterion_7_oracle_equivalence():
    from lqreduce import compare_final_subspaces, recursive_reduce

    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        prob = random_problem(rng, n, m, singular_r=True)
        angle = compare_final_subspaces(
            recursive_reduce(prob, TOL), reduce(prob, TOL)
        )
        worst = max(worst, angle)
        assert angle < 1e-8, f"trial {trial}: angle {angle:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"criterion 7 PASS: 100 random singular problems agree with the "
          f"reference algorithm (worst angle {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_8_classification_soundness(inventory):
    checked = 0
    sets = []
    for _, res, _ in inventory["c1"]:
        sets.append(res)
    for _, res, _ in inventory["c2"]:
        sets.append(res)
    for _, exact, perts in inventory["c4"]:
        sets.append(exact)
        sets.extend(perts)
    for res in sets:
        rows = np.vstack([res.phi_first_ext, res.phi_second_ext])
        poi = poisson_brackets(rows, res.n)
        if poi.size:
            assert np.max(np.abs(poi + poi.T)) <= 1e-15
        rank = rank_tol(poi, TOL)
        assert rank % 2 == 0
        assert rank == res.rp
        if len(res.feedback_ranks) < len(res.class_counts):
            # no fold exit: the last pass's bracket-rank counts describe
            # the set that the final split classified
            assert res.class_counts[-1] == (res.phi_first_ext.shape[0], res.rp)
        ker, compl = numerical_ker(poi, TOL)
        if ker.shape[1]:
            residuals = np.linalg.norm(ker.T @ poi, axis=1)
            assert np.all(residuals <= TOL)
        second_bracket = compl.T @ poi @ compl
        assert rank_tol(second_bracket, TOL) == second_bracket.shape[0] == rank
        checked += 1
    print(f"criterion 8 PASS: classification sound on {checked} final "
          f"constraint sets from criteria 1-4")
