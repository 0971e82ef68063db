import numpy as np
import pytest
from numpy.testing import assert_allclose

from lqreduce import (
    ConstraintMatrix,
    InvalidTolerance,
    LQProblem,
    NonConvergence,
    StepState,
    extend_rows,
    gen_exp1,
    gen_exp2,
    gen_exp3,
    perturb,
    poisson_brackets,
    rank_tol,
    recursive_reduce,
    reduce,
    step,
    subspace_angle,
    symplectic_matrix,
)
from lqreduce import classify, reduction
from conftest import random_problem

TOL = 1e-6

# a known limit, pinned so the suite fails once it is lifted
ABSOLUTE_TOL_LIMIT = pytest.mark.xfail(
    strict=True,
    reason="rank decisions use an absolute tolerance, so cost scaling past "
    "about 1e5 loses second-class pairs (ROADMAP item 2)",
)


def orthonormality_error(rows):
    return np.linalg.norm(rows @ rows.T - np.eye(rows.shape[0]))


def regular_1x1():
    return LQProblem(A=[[0.0]], B=[[1.0]], Q=[[1.0]], N=[[0.0]], R=[[1.0]])


def singular_1x1():
    return LQProblem(A=[[0.0]], B=[[1.0]], Q=[[1.0]], N=[[0.0]], R=[[0.0]])


class TestStep:
    # the state holds the Hessian blocks hess = J G and w = J Z of a field
    # (x; p)' = G (x; p) + Z u
    def test_no_feedback_update(self):
        j = symplectic_matrix(1)
        st = StepState(
            hess=j @ np.array([[0.0, 0.0], [1.0, 0.0]]),
            w=j @ np.array([[1.0], [0.0]]),
            s=np.array([[0.0, 1.0]]),
            rk=np.array([[0.0]]),
            p_hess=np.zeros((1, 1)),
        )
        new, feed, v_rot, r = step(st, TOL)
        assert r == 0
        assert feed.shape == (0, 2)
        assert_allclose(v_rot, np.eye(1))
        assert_allclose(new.s, [[1.0, 0.0]])   # S' = S G
        assert_allclose(new.rk, [[0.0]])       # R' = -S Z
        assert new.m_cur == 1

    def test_full_rank_solves_all_controls(self, rng):
        n, m = 2, 2
        j = symplectic_matrix(n)
        st = StepState(
            hess=j @ np.zeros((4, 4)),
            w=j @ rng.standard_normal((4, 2)),
            s=rng.standard_normal((2, 4)),
            rk=np.eye(2),
            p_hess=-np.eye(2),
        )
        new, feed, v_rot, r = step(st, TOL)
        assert r == 2
        assert new.m_cur == 0
        assert new.s.shape == (0, 4)
        assert feed.shape == (2, 4)

    def test_partial_rank_splits(self):
        j = symplectic_matrix(2)
        st = StepState(
            hess=j @ np.zeros((4, 4)),
            w=j @ np.zeros((4, 2)),
            s=np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]),
            rk=np.diag([1.0, 0.0]),
            p_hess=np.zeros((2, 2)),
        )
        new, feed, v_rot, r = step(st, TOL)
        assert r == 1
        assert new.m_cur == 1
        assert feed.shape == (1, 4)
        assert new.s.shape == (1, 4)  # one reduced constraint row emitted


class TestReduceRegular:
    def test_minimal_regular(self):
        res = reduce(regular_1x1(), TOL)
        assert res.index_k == 1
        assert res.m_res == 0
        assert res.rp == 0
        assert res.phi_first.shape[0] == 0
        assert res.phi_second.shape[0] == 0
        assert res.bu.shape == (1, 0)
        assert_allclose(res.feedback_law(), [[0.0, 1.0]])  # u = p

    def test_closed_form_on_random_problems(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            prob = random_problem(rng, n, m, spd_r=True)
            res = reduce(prob, TOL)
            assert res.index_k == 1 and res.m_res == 0
            zeta = rng.standard_normal(2 * n)
            expected = np.linalg.solve(
                prob.R, prob.B.T @ zeta[n:] - prob.N.T @ zeta[:n]
            )
            got = res.feedback_law() @ zeta
            err = np.linalg.norm(got - expected) / (1 + np.linalg.norm(expected))
            assert err < 1e-10


class TestReduceSingular:
    def test_hand_iterated_1x1(self):
        res = reduce(singular_1x1(), TOL)
        assert res.index_k == 3
        assert res.m_res == 0
        # final constraints span {x, p}; the solved control is u = 0
        assert subspace_angle(
            res.final_constraints(), np.eye(2), TOL
        ) < 1e-10
        assert_allclose(res.feedtot, np.zeros((1, 2)), atol=1e-12)
        assert_allclose(np.abs(res.feedsel), [[1.0]])
        # reconstructed (x, p, u) subspace is all of R^3
        assert subspace_angle(
            res.final_constraints_original_controls(), np.eye(3), TOL
        ) < 1e-10

    def test_counts_monotone_until_termination(self, rng):
        for _ in range(25):
            prob = random_problem(
                rng, int(rng.integers(2, 6)), int(rng.integers(1, 4)), singular_r=True
            )
            res = reduce(prob, TOL)
            counts = res.constraint_counts
            diffs = np.diff(counts)
            assert np.all(diffs >= 0)
            assert np.all(diffs[:-1] > 0)

    def test_second_class_count_monotone_between_feedbacks(self, rng):
        # a feedback fold may consume solved second-class pairs, but the
        # classification itself never demotes one: on fold-free passes the
        # second-class count cannot drop
        for _ in range(25):
            prob = random_problem(
                rng, int(rng.integers(2, 6)), int(rng.integers(1, 4)), singular_r=True
            )
            res = reduce(prob, TOL)
            seconds = [c[1] for c in res.class_counts]
            for i, r in enumerate(res.feedback_ranks[: len(seconds) - 1]):
                if r == 0:
                    assert seconds[i + 1] >= seconds[i]

    def test_hamiltonian_invariant(self, rng):
        # the reduced field is Hamiltonian: J G is symmetric
        for _ in range(25):
            prob = random_problem(
                rng, int(rng.integers(2, 6)), int(rng.integers(1, 4)), singular_r=True
            )
            res = reduce(prob, TOL)
            g = np.block([[res.ax, res.ap], [res.qx, res.qp]])
            jg = symplectic_matrix(prob.n) @ g
            assert np.linalg.norm(jg - jg.T) <= 1e-10 * (1 + np.linalg.norm(g))

    def test_feedback_completeness(self, rng):
        # solved combination directions plus residual selectors span R^m
        for _ in range(25):
            m = int(rng.integers(1, 4))
            prob = random_problem(rng, int(rng.integers(2, 6)), m, singular_r=True)
            res = reduce(prob, TOL)
            basis = np.vstack([res.feedsel, res.nofeed])
            assert rank_tol(basis, TOL) == m
            assert_allclose(basis @ basis.T, np.eye(m), atol=1e-10)

    def test_residual_controls_match_oracle(self, rng):
        # structural cross-check: the reference algorithm's final rows leave
        # exactly the residual controls free that the reduction reports
        for _ in range(25):
            m = int(rng.integers(1, 4))
            prob = random_problem(rng, int(rng.integers(2, 6)), m, singular_r=True)
            assert recursive_reduce(prob, TOL).m_res == reduce(prob, TOL).m_res

    def test_perturbed_family1_takes_no_extra_pass(self):
        # a perturbation at 1e-10 once made this draw take spurious passes
        # with odd second-class counts
        res = reduce(perturb(gen_exp1(160, 80, 40, seed=1), 1e-10, seed=100), TOL)
        assert (res.index_k, res.m_res, res.rp) == (3, 40, 80)
        assert all(second % 2 == 0 for _, second in res.class_counts)
        assert res.rp == res.phi_second.shape[0]

    def test_svd_retry_keeps_family1_structure(self):
        # gesdd failed to converge on a 32 x 112 matrix of this draw's
        # coisotropic strip once the set was kept as an orthonormal basis
        res = reduce(perturb(gen_exp1(40, 16, 8, seed=1), 0, seed=101), TOL)
        assert (res.index_k, res.m_res, res.rp) == (3, 16, 16)

    def test_each_pass_factors_only_the_new_level(self, monkeypatch):
        # family 3 adds one row per pass; a reduction that re-factors the
        # whole constraint stack feeds numpy's SVD many-row inputs with
        # 2n + 2m columns, one that extends a row basis only single rows
        n = 40
        real_svd = np.linalg.svd
        shapes = []

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        res = reduce(gen_exp3(n), TOL)
        assert res.index_k == n
        wide = [shape for shape in shapes if shape[1] == 2 * n + 2]
        assert wide and all(rows == 1 for rows, _ in wide)

    def test_bracket_matrix_built_once_per_fold(self, monkeypatch):
        # the bracket matrix is carried between folds and only bordered by
        # each pass's new rows; family 3 solves no control and its brackets
        # vanish, so the only full bracket matrices are pass 0's and the
        # split's, and the only square SVD of more than 2 rows is the split's
        prob = perturb(gen_exp3(40), 1e-10, seed=0, preserve_structure=True)
        real_svd = np.linalg.svd
        real_brackets = classify.poisson_brackets
        square, built = [], []

        def recording_svd(a, *args, **kwargs):
            rows, cols = np.shape(a)
            if rows == cols > 2:
                square.append(rows)
            return real_svd(a, *args, **kwargs)

        def recording_brackets(phi):
            built.append(phi.n_rows)
            return real_brackets(phi)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(classify, "poisson_brackets", recording_brackets)
        res = reduce(prob, TOL)
        folds = sum(r > 0 for r in res.feedback_ranks)
        assert res.index_k == 40
        assert len(built) == 1 + folds + 1
        q = res.phi_first_ext.n_rows + res.phi_second_ext.n_rows
        assert square == [q]

    def test_carried_bracket_matrix_is_the_fresh_one(self, monkeypatch, rng):
        # every count sees the brackets of the set it counts: bordered by
        # the new rows between folds, rebuilt in full after one
        seen = []

        def recording(poi, phi):
            out = classify.extend_brackets(poi, phi)
            seen.append((poi is None, phi, out))
            return out

        monkeypatch.setattr(reduction, "extend_brackets", recording)
        # folds at passes 1 and 3, so both counts after them rebuild
        res = reduce(gen_exp1(24, 9, 6), TOL)
        assert res.feedback_ranks == (9, 0, 6)
        assert [rebuilt for rebuilt, _, _ in seen] == [True, True, False, True]
        problems = [
            random_problem(
                rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)), singular_r=True
            )
            for _ in range(25)
        ]
        problems.append(perturb(gen_exp3(25), 1e-10, seed=0, preserve_structure=True))
        for prob in problems:
            reduce(prob, TOL)
        for _, phi, poi in seen:
            fresh = poisson_brackets(phi)
            bound = 1e-13 * max(1.0, np.linalg.norm(fresh))
            assert np.linalg.norm(poi - fresh) <= bound
        assert sum(not rebuilt for rebuilt, _, _ in seen) > 25

    def test_falling_count_raises(self, monkeypatch):
        # a pass that loses a row the set already held breaks the invariant
        # the stopping rule relies on; it must not exit as a flat count
        monkeypatch.setattr(reduction, "extend_rows", lambda basis, rows, tol: basis[:-1])
        with pytest.raises(NonConvergence, match="fell"):
            reduce(gen_exp3(4), TOL)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pass0_classified_like_later_passes(self, seed):
        # every pass classifies an orthonormal basis, pass 0 included; on
        # brackets of primary rows at their data scale a perturbation at the
        # tolerance moved this draw's pass-0 split away from the exact one
        exact = reduce(gen_exp1(24, 9, 7, seed=seed), TOL)
        assert exact.class_counts[0] == (30, 18)
        res = reduce(perturb(gen_exp1(24, 9, 7, seed=seed), 1e-6, seed=seed), TOL)
        assert res.class_counts[0] == exact.class_counts[0]

    def test_constraint_set_orthonormal_from_seed_to_split(self, monkeypatch, rng):
        # reduce hands extend_rows its constraint set as it holds it, with no
        # re-normalization, so the set must be an orthonormal basis at every
        # pass: after the seed, after each fold and after each extension
        bases = []

        def recording(basis, rows, tol):
            bases.append(basis)
            return extend_rows(basis, rows, tol)

        monkeypatch.setattr(reduction, "extend_rows", recording)
        problems = [
            random_problem(
                rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)), singular_r=True
            )
            for _ in range(25)
        ]
        problems += [gen_exp1(16, 6, 4, seed=1), gen_exp2(12), gen_exp3(10)]
        problems.append(perturb(gen_exp1(8, 3, 2), 1e-6, seed=25))  # fold exit
        for prob in problems:
            res = reduce(prob, TOL)
            for phi in (res.phi_first_ext, res.phi_second_ext):
                assert orthonormality_error(phi.rows) <= 1e-12
        assert len(bases) > len(problems)
        assert max(orthonormality_error(basis) for basis in bases) <= 1e-12

    def test_reduced_field_blocks_consistent(self, rng):
        prob = random_problem(rng, 4, 2, singular_r=True)
        res = reduce(prob, TOL)
        n = prob.n
        g = np.block([[res.ax, res.ap], [res.qx, res.qp]])
        j = symplectic_matrix(n)
        jg = j @ g
        assert np.linalg.norm(jg - jg.T) <= 1e-10 * (1 + np.linalg.norm(g))
        assert res.bu.shape == (n, res.m_res)
        assert res.nu.shape == (n, res.m_res)

    def test_flat_count_fold_exit(self):
        # this draw's count stays flat while a control is still solvable:
        # the loop folds that feedback in and exits without a new level, so
        # the final class split must be taken on the folded set
        res = reduce(perturb(gen_exp1(8, 3, 2), 1e-6, seed=25), TOL)
        assert res.feedback_ranks == (3, 2, 2, 1)
        assert len(res.feedback_ranks) == len(res.class_counts) == 4
        assert res.m_res == 0
        rows = np.vstack([res.phi_first_ext.rows, res.phi_second_ext.rows])
        poi = poisson_brackets(ConstraintMatrix(rows, res.n, res.m_res))
        assert res.rp == res.phi_second.shape[0] == rank_tol(poi, TOL)
        assert res.rp % 2 == 0

    @pytest.mark.parametrize(
        "scale",
        [1e-3, 1.0, 1e3, 1e5]
        + [pytest.param(s, marks=ABSOLUTE_TOL_LIMIT) for s in (1e6, 1e7, 1e9)],
    )
    def test_cost_scaling_keeps_structure(self, scale):
        # scaling Q, N and R by s scales the cost, not its structure; the
        # reducer gives (3, 3, 2), (3, 3, 0), (4, 0, 0) at s = 1e6, 1e7, 1e9
        p = gen_exp1(8, 3, 2)
        prob = LQProblem(A=p.A, B=p.B, Q=scale * p.Q, N=scale * p.N, R=scale * p.R)
        res = reduce(prob, TOL)
        assert (res.index_k, res.m_res, res.rp) == (3, 3, 4)

    def test_reduced_field_values(self, rng):
        # a regular problem feeds back u = R^-1 (B'p - N'x) in full
        for _ in range(25):
            n = int(rng.integers(1, 7))
            prob = random_problem(rng, n, int(rng.integers(1, 7)), spd_r=True)
            res = reduce(prob, TOL)
            a, b, q, nm = prob.A, prob.B, prob.Q, prob.N
            rinv_bt = np.linalg.solve(prob.R, b.T)
            rinv_nt = np.linalg.solve(prob.R, nm.T)
            expected = np.block(
                [[a - b @ rinv_nt, b @ rinv_bt], [q - nm @ rinv_nt, -a.T + nm @ rinv_bt]]
            )
            got = np.block([[res.ax, res.ap], [res.qx, res.qp]])
            assert np.linalg.norm(got - expected) <= 1e-10 * (
                1 + np.linalg.norm(expected)
            )
        # family 3 never feeds back, so its field is the problem data
        prob = gen_exp3(6)
        res = reduce(prob, TOL)
        assert res.m_res == prob.m
        assert_allclose(res.ax, prob.A, atol=1e-14)
        assert_allclose(res.ap, np.zeros((6, 6)), atol=1e-14)
        assert_allclose(res.qx, prob.Q, atol=1e-14)
        assert_allclose(res.qp, -prob.A.T, atol=1e-14)
        assert_allclose(res.bu, prob.B, atol=1e-14)
        assert_allclose(res.nu, prob.N, atol=1e-14)

    def test_no_constraints_at_all(self):
        # B = N = R = 0: the cost ignores u entirely, every control is gauge
        prob = LQProblem(A=[[1.0]], B=[[0.0]], Q=[[1.0]], N=[[0.0]], R=[[0.0]])
        res = reduce(prob, TOL)
        assert res.m_res == 1
        assert res.index_k == 1
        assert res.phi_first.shape[0] == 0
        assert res.phi_second.shape[0] == 0


class TestValidationPropagation:
    def test_invalid_problem_rejected(self):
        prob = LQProblem(
            A=[[0.0]], B=[[1.0]], Q=[[np.inf]], N=[[0.0]], R=[[1.0]]
        )
        with pytest.raises(Exception):
            reduce(prob, TOL)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(InvalidTolerance):
            reduce(gen_exp2(4), tol)
        with pytest.raises(InvalidTolerance):
            recursive_reduce(gen_exp2(4), tol)
