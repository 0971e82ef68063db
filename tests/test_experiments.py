import numpy as np
import pytest
from numpy.testing import assert_allclose

from lqreduce import (
    ExperimentRecord,
    InsufficientData,
    InvalidShape,
    fit_loglog_slope,
    gen_exp1,
    gen_exp2,
    gen_exp3,
    make_problem,
    perturb,
    recursive_reduce,
    reduce,
    run_sweep,
    subspace_angle,
)
from lqreduce.experiments import sweep_child_seed
from lqreduce.linalg import rank_tol

TOL = 1e-6


class TestGenExp1:
    def test_structure(self):
        p = gen_exp1(8, 5, 2, seed=0)
        assert_allclose(p.A, np.eye(8))
        assert_allclose(p.B.T @ p.B, np.eye(8), atol=1e-12)   # B orthogonal
        assert_allclose(p.Q, np.diag(np.arange(1.0, 9.0)))
        assert_allclose(p.R, p.R.T)
        assert rank_tol(p.R, TOL) == 5
        # R is positive semidefinite with nonzero eigenvalues in [1, 2]
        eig = np.linalg.eigvalsh(p.R)
        nz = eig[np.abs(eig) > TOL]
        assert np.all(nz >= 1.0 - 1e-9) and np.all(nz <= 2.0 + 1e-9)

    def test_residual_controls_formula(self):
        # m_res = n - (r + l), cross-checked against the reference algorithm
        res = reduce(gen_exp1(8, 5, 2, seed=0), TOL)
        assert res.index_k == 3
        assert res.m_res == 1
        oracle = recursive_reduce(gen_exp1(8, 5, 2, seed=0), TOL)
        assert oracle.index_k == 3

    def test_full_scale_instance(self):
        # n=100, r=80, l=5: three steps, 15 residual controls, ten
        # second-class constraints
        res = reduce(gen_exp1(100, 80, 5, seed=0), TOL)
        assert (res.index_k, res.m_res, res.rp) == (3, 15, 10)

    def test_full_rank_r_is_regular(self):
        res = reduce(gen_exp1(6, 6, 2, seed=0), TOL)
        assert res.index_k == 1 and res.m_res == 0

    def test_invalid_shapes(self):
        with pytest.raises(InvalidShape):
            gen_exp1(8, 0, 2)
        with pytest.raises(InvalidShape):
            gen_exp1(8, 5, 0)
        with pytest.raises(InvalidShape):
            gen_exp1(8, 5, 4)

    @pytest.mark.parametrize(
        "sizes, name",
        [((4.0, 2, 1), "n"), ((4, 2.0, 1), "r"), ((4, 2, np.float64(1)), "l"),
         ((True, 1, 1), "n"), ((4, True, 1), "r"), ((4, 2, "1"), "l")],
    )
    def test_sizes_must_be_integers(self, sizes, name):
        with pytest.raises(InvalidShape, match=f"{name} must be an integer"):
            gen_exp1(*sizes)

    def test_numpy_integer_sizes(self):
        assert gen_exp1(np.int64(8), np.int32(3), np.uint8(2)).B.shape == (8, 8)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidShape, match="seed must be a nonnegative integer, got -1"):
            gen_exp1(6, 3, 2, seed=-1)

    def test_deterministic(self):
        a = gen_exp1(6, 3, 2, seed=7)
        b = gen_exp1(6, 3, 2, seed=7)
        assert_allclose(a.R, b.R)
        assert_allclose(a.B, b.B)


class TestGenExp2:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_structural_outcome(self, n):
        res = reduce(gen_exp2(n), TOL)
        assert (res.index_k, res.m_res, res.rp) == (3, 0, 2)

    def test_invalid(self):
        with pytest.raises(InvalidShape):
            gen_exp2(1)

    @pytest.mark.parametrize("n", [3.5, 4.0, True, np.bool_(True), None])
    def test_size_must_be_an_integer(self, n):
        with pytest.raises(InvalidShape, match="n must be an integer"):
            gen_exp2(n)


class TestGenExp3:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_structural_outcome(self, n):
        res = reduce(gen_exp3(n), TOL)
        assert (res.index_k, res.m_res, res.rp) == (n, 1, 0)

    def test_nilpotent_drift(self):
        p = gen_exp3(5)
        assert_allclose(np.linalg.matrix_power(p.A, 5), np.zeros((5, 5)))
        assert np.any(np.linalg.matrix_power(p.A, 4) != 0)
        assert_allclose(p.Q, p.A + p.A.T)

    def test_invalid(self):
        with pytest.raises(InvalidShape):
            gen_exp3(1)

    @pytest.mark.parametrize("n", [3.5, 4.0, True])
    def test_size_must_be_an_integer(self, n):
        with pytest.raises(InvalidShape, match="n must be an integer"):
            gen_exp3(n)

    def test_numpy_integer_size(self):
        assert gen_exp3(np.int64(4)).A.shape == (4, 4)


class TestMakeProblem:
    @pytest.mark.parametrize("family", [2, 3])
    def test_r_or_l_rejected_outside_family1(self, family):
        for r, l in ((3, None), (None, 9), (3, 9)):
            with pytest.raises(InvalidShape, match="takes no r or l"):
                make_problem(family, 4, r=r, l=l)
        assert make_problem(family, 4, r=None, l=None).n == 4


class TestPerturb:
    def test_zero_delta_identity(self):
        p = gen_exp2(4)
        assert perturb(p, 0.0, seed=3) is p

    def test_deterministic(self):
        p = gen_exp2(4)
        a = perturb(p, 1e-8, seed=3)
        b = perturb(p, 1e-8, seed=3)
        assert_allclose(a.A, b.A)
        assert_allclose(a.Q, b.Q)
        assert_allclose(a.R, b.R)

    def test_norm_bound(self):
        p = gen_exp2(6)
        q = perturb(p, 1e-10, seed=1)
        for label in "ABQNR":
            d = getattr(q, label) - getattr(p, label)
            assert np.linalg.norm(d, 2) <= 1e-10

    def test_symmetry_preserved(self):
        p = gen_exp1(6, 3, 2, seed=0)
        q = perturb(p, 1e-4, seed=1)
        assert_allclose(q.Q, q.Q.T)
        assert_allclose(q.R, q.R.T)

    def test_preserve_structure(self):
        p = gen_exp3(5)
        q = perturb(p, 1e-6, seed=2, preserve_structure=True)
        assert_allclose(q.Q, q.A + q.A.T)

    def test_negative_delta_rejected(self):
        for delta in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidShape):
                perturb(gen_exp2(3), delta)

    @pytest.mark.parametrize("delta", [True, False, np.bool_(True), "1e-8", None, 1e-8j])
    def test_delta_must_be_a_real_number(self, delta):
        # True once read as delta = 1
        with pytest.raises(InvalidShape, match="delta"):
            perturb(gen_exp2(3), delta)

    @pytest.mark.parametrize("delta", [0, np.int64(0), np.float32(1e-8), 1e-8])
    def test_integer_and_float_deltas(self, delta):
        assert perturb(gen_exp2(3), delta, seed=1).A.shape == (3, 3)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidShape, match="seed must be a nonnegative integer, got -1"):
            perturb(gen_exp2(4), 1e-8, seed=-1)


class TestRunSweep:
    def test_stable_regime_family2(self):
        recs = run_sweep(2, 20, [1e-12, 1e-10, 1e-8], seed=0)
        for rec in recs:
            assert (rec.steps, rec.m1, rec.rp1) == (3, 0, 2)
            assert rec.alpha is not None and rec.alpha > 0

    def test_zero_delta_alpha_zero(self):
        rec = run_sweep(2, 10, [0.0], seed=0)[0]
        assert rec.alpha is not None and rec.alpha < 1e-12

    def test_breakdown_not_computable(self):
        rec = run_sweep(3, 10, [1e-5], seed=0)[0]
        assert rec.alpha is None or rec.steps != rec.steps_exact

    def test_deterministic_records(self):
        a = run_sweep(2, 10, [1e-10, 1e-9], seed=4)
        b = run_sweep(2, 10, [1e-10, 1e-9], seed=4)
        assert a == b

    def test_alpha_median_monotone_in_delta(self):
        # median over 5 seeds increases across decades
        deltas = [1e-12, 1e-10, 1e-8]
        medians = []
        for delta in deltas:
            alphas = []
            for seed in range(5):
                rec = run_sweep(2, 12, [delta], seed=seed)[0]
                assert rec.alpha is not None
                alphas.append(rec.alpha)
            medians.append(np.median(alphas))
        assert medians[0] < medians[1] < medians[2]

    def test_family1_needs_parameters(self):
        with pytest.raises(InvalidShape):
            run_sweep(1, 10, [1e-10], seed=0)

    def test_empty_deltas_rejected(self):
        with pytest.raises(InvalidShape):
            run_sweep(2, 10, [], seed=0)

    def test_non_finite_deltas_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidShape, match="deltas"):
                run_sweep(2, 4, [1e-10, bad], seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidShape, match="seed"):
            run_sweep(2, 4, [1e-10], seed=-1)

    @pytest.mark.parametrize(
        "family, n, r, l", [(1, 8, 3, 2), (3, 6, None, None)], ids=["family1", "family3"]
    )
    def test_exact_rows_factored_once(self, monkeypatch, family, n, r, l):
        # the sweep factors the exact final rows once, not once per delta,
        # and gets every angle subspace_angle gets, bit for bit
        deltas = [0.0, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8]
        calls = []
        real_svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(1)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        recs = run_sweep(family, n, deltas, seed=3, r=r, l=l)
        sweep_calls = len(calls)
        calls.clear()
        problem = make_problem(family, n, r=r, l=l, seed=3)
        exact_rows = reduce(problem, TOL).final_constraints()
        alphas = []
        for index, delta in enumerate(deltas):
            pert = reduce(
                perturb(problem, delta, seed=sweep_child_seed(3, index),
                        preserve_structure=(family == 3)),
                TOL,
            )
            alphas.append(subspace_angle(exact_rows, pert.final_constraints(), TOL))
        assert [rec.alpha for rec in recs] == alphas
        assert len(calls) - sweep_calls == len(deltas) - 1


class TestFitLoglogSlope:
    @staticmethod
    def _records(pairs):
        return [
            ExperimentRecord(
                n=1, delta=d, steps_exact=0, steps=0, m=0, m1=0, rp=0, rp1=0, alpha=a
            )
            for d, a in pairs
        ]

    def test_exact_proportionality(self):
        recs = self._records([(d, d) for d in (1e-12, 1e-10, 1e-8)])
        assert_allclose(fit_loglog_slope(recs), 1.0, atol=1e-12)

    def test_exact_quadratic(self):
        recs = self._records([(d, 10 * d**2) for d in (1e-6, 1e-5, 1e-4)])
        assert_allclose(fit_loglog_slope(recs), 2.0, atol=1e-12)

    def test_not_computable_rows_skipped(self):
        recs = self._records([(1e-10, 1e-10), (1e-9, 1e-9), (1e-8, None)])
        assert_allclose(fit_loglog_slope(recs), 1.0, atol=1e-12)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            fit_loglog_slope(self._records([(1e-10, 1e-10)]))

    def test_repeated_delta_has_no_slope(self):
        # two computable records at one delta give no abscissa spread
        recs = self._records([(1e-8, 1e-8), (1e-8, 3e-9), (1e-7, None)])
        with pytest.raises(InsufficientData):
            fit_loglog_slope(recs)
