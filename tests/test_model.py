import numpy as np
import pytest
from numpy.testing import assert_allclose

from lqreduce import (
    AsymmetricQ,
    AsymmetricR,
    DimensionMismatch,
    LQProblem,
    NonFiniteEntry,
    ValidationError,
    initial_matrices,
    pontryagin_hamiltonian,
    reduce,
    validate,
)
from conftest import drift_blocks, random_problem, symplectic_matrix


def minimal_problem():
    return LQProblem(A=[[0.0]], B=[[1.0]], Q=[[1.0]], N=[[0.0]], R=[[1.0]])


class TestValidate:
    def test_minimal_ok(self):
        validate(minimal_problem())

    def test_asymmetric_q(self):
        with pytest.raises(AsymmetricQ):
            LQProblem(
                A=np.zeros((2, 2)),
                B=np.zeros((2, 1)),
                Q=[[0.0, 1.0], [0.0, 0.0]],
                N=np.zeros((2, 1)),
                R=[[1.0]],
            )

    def test_asymmetric_r(self):
        with pytest.raises(AsymmetricR):
            LQProblem(
                A=np.zeros((1, 1)),
                B=np.zeros((1, 2)),
                Q=np.zeros((1, 1)),
                N=np.zeros((1, 2)),
                R=[[0.0, 1.0], [0.0, 0.0]],
            )

    # entries above about 1e154 overflow both Frobenius norms, which once
    # made the asymmetry NaN and let such a matrix through

    def test_asymmetric_q_with_huge_entries(self):
        with pytest.raises(AsymmetricQ):
            LQProblem(
                A=np.zeros((2, 2)),
                B=np.zeros((2, 1)),
                Q=[[1e200, 1e200], [0.0, 1e200]],
                N=np.zeros((2, 1)),
                R=[[1.0]],
            )

    def test_asymmetric_r_with_huge_entries(self):
        with pytest.raises(AsymmetricR):
            LQProblem(
                A=np.zeros((1, 1)),
                B=np.zeros((1, 2)),
                Q=np.zeros((1, 1)),
                N=np.zeros((1, 2)),
                R=[[1e200, 1e200], [0.0, 1e200]],
            )

    def test_symmetric_huge_entries_pass(self):
        huge = [[1e300, -1e300], [-1e300, 1e300]]
        validate(LQProblem(A=np.zeros((2, 2)), B=np.zeros((2, 2)), Q=huge,
                           N=np.zeros((2, 2)), R=huge))

    def test_dimension_mismatch(self):
        # R sized 3x3 against a 2-column B
        with pytest.raises(DimensionMismatch):
            LQProblem(
                A=np.zeros((2, 2)),
                B=np.zeros((2, 2)),
                Q=np.zeros((2, 2)),
                N=np.zeros((2, 2)),
                R=np.zeros((3, 3)),
            )

    def test_non_finite(self):
        with pytest.raises(NonFiniteEntry):
            LQProblem(A=[[np.nan]], B=[[1.0]], Q=[[0.0]], N=[[0.0]], R=[[1.0]])

    @pytest.mark.parametrize(
        "entries",
        [
            np.array([[1 + 1j]]),  # a cast would drop the imaginary part
            [[True]],
            [["1"]],
            np.array([[1.0]], dtype=object),
            # numpy reads these as floats; each once read as 1.0
            [[True, 0.0], [0.0, 1.0]],
            [[1.0, np.bool_(True)]],
        ],
        ids=["complex", "bool", "str", "object", "nested-bool", "nested-numpy-bool"],
    )
    @pytest.mark.parametrize("label", ["A", "R"])
    def test_entries_that_are_not_real_numbers(self, entries, label):
        blocks = dict(A=[[1.0]], B=[[1.0]], Q=[[1.0]], N=[[0.0]], R=[[0.0]])
        blocks[label] = entries
        with pytest.raises(ValidationError, match=f"matrix {label} "):
            LQProblem(**blocks)

    @pytest.mark.parametrize(
        "entries, expected",
        [([[1.0, 2.0], [3.0]], "is ragged"),
         ([1.0, 2.0], "must be 2-d, got ndim=1"),
         (np.zeros((1, 1, 1)), "must be 2-d, got ndim=3")],
        ids=["ragged", "1-d", "3-d"],
    )
    @pytest.mark.parametrize("label", ["A", "N"])
    def test_blocks_that_are_not_matrices(self, entries, expected, label):
        # a ragged list once escaped as numpy's bare ValueError
        blocks = dict(A=[[1.0]], B=[[1.0]], Q=[[1.0]], N=[[0.0]], R=[[0.0]])
        blocks[label] = entries
        with pytest.raises(DimensionMismatch, match=f"matrix {label} {expected}"):
            LQProblem(**blocks)

    @pytest.mark.parametrize("name", [3, b"p", ["p"]])
    def test_name_that_is_not_a_string(self, name):
        with pytest.raises(ValidationError, match="name must be a string"):
            LQProblem(A=[[0.0]], B=[[1.0]], Q=[[1.0]], N=[[0.0]], R=[[1.0]], name=name)

    def test_blocks_are_read_only_and_private(self):
        a = np.zeros((2, 2))
        p = LQProblem(A=a, B=np.ones((2, 1)), Q=np.eye(2), N=np.zeros((2, 1)), R=[[0.0]])
        for label in "ABQNR":
            with pytest.raises(ValueError, match="read-only"):
                getattr(p, label)[0, 0] = 1.0
        # a copy of an array the caller can still write, which stays writable
        assert not np.shares_memory(p.A, a) and a.flags.writeable
        # a read-only view of it is copied too; a list, a cast, and
        # another problem's block are not
        frozen = a.view()
        frozen.flags.writeable = False
        assert not np.shares_memory(LQProblem(A=frozen, B=p.B, Q=p.Q, N=p.N, R=p.R).A, a)
        again = LQProblem(A=p.A, B=p.B, Q=p.Q, N=p.N, R=p.R)
        assert all(getattr(again, label) is getattr(p, label) for label in "ABQNR")
        ints = np.zeros((2, 2), dtype=int)
        assert LQProblem(A=ints, B=p.B, Q=p.Q, N=p.N, R=p.R).A.base is None

    def test_caller_writes_do_not_reach_a_built_problem(self):
        # reduce reads the problem's blocks on every pass, so a write to
        # the caller's array after the check must not reach them
        a, b, q, n_mat = np.eye(2), np.ones((2, 1)), np.eye(2), np.zeros((2, 1))
        p = LQProblem(A=a, B=b, Q=q, N=n_mat, R=[[0.0]])
        before = reduce(p, 1e-6)
        for block in (a, b, q, n_mat):
            block[0, -1] = np.nan
        after = reduce(p, 1e-6)
        assert (after.index_k, after.m_res, after.rp) == (before.index_k, before.m_res, before.rp)
        for label in ("ax", "ap", "qx", "qp", "bu", "nu", "feedtot"):
            assert np.array_equal(getattr(after, label), getattr(before, label))

    def test_huge_integers_in_nested_lists(self):
        # NumPy keeps an int beyond int64 as an object; it is read as the
        # scalar rule and the problem file reader read it
        p = LQProblem(A=[[10**30]], B=[[1.0]], Q=[[1.0]], N=[[0.0]], R=[[0.0]])
        assert p.A.dtype == np.float64 and p.A[0, 0] == 1e30
        with pytest.raises(NonFiniteEntry, match="matrix A "):
            LQProblem(A=[[10**400]], B=[[1.0]], Q=[[1.0]], N=[[0.0]], R=[[0.0]])
        with pytest.raises(ValidationError, match="matrix Q "):
            LQProblem(A=[[1.0]], B=[[1.0]], Q=[[10**30, None]], N=[[0.0]], R=[[0.0]])

    @pytest.mark.parametrize("entries", [[[1]], np.array([[1]], dtype=np.int32),
                                         np.array([[1.0]], dtype=np.float32)])
    def test_integer_and_float_entries_are_doubles(self, entries):
        p = LQProblem(A=entries, B=[[1.0]], Q=[[1.0]], N=[[0.0]], R=[[0.0]])
        assert p.A.dtype == np.float64 and p.A[0, 0] == 1.0


class TestHamiltonian:
    def test_zero_point(self):
        p = minimal_problem()
        assert pontryagin_hamiltonian(p, x=[0.0], p=[0.0], u=[0.0]) == 0.0

    def test_scalar_expansion_control_cost(self):
        # H = p(Ax+Bu) - u^2/2 at (x,p,u) = (0,1,1) with A=0,B=1,R=1
        p = LQProblem(A=[[0.0]], B=[[1.0]], Q=[[0.0]], N=[[0.0]], R=[[1.0]])
        got = pontryagin_hamiltonian(p, x=[0.0], p=[1.0], u=[1.0])
        assert_allclose(got, 0.5)

    def test_scalar_expansion_state_cost(self):
        # H = p*x - x^2 at (1,1,0) with A=1, Q=2
        p = LQProblem(A=[[1.0]], B=[[0.0]], Q=[[2.0]], N=[[0.0]], R=[[0.0]])
        got = pontryagin_hamiltonian(p, x=[1.0], p=[1.0], u=[0.0])
        assert_allclose(got, 0.0)

    def test_dimension_mismatch(self):
        p = minimal_problem()
        with pytest.raises(DimensionMismatch):
            pontryagin_hamiltonian(p, x=[0.0, 0.0], p=[0.0], u=[0.0])


class TestInitialMatrices:
    def test_scalar_blocks(self):
        a, b, q, nu, r = 2.0, 3.0, 5.0, 7.0, 11.0
        p = LQProblem(A=[[a]], B=[[b]], Q=[[q]], N=[[nu]], R=[[r]])
        init = initial_matrices(p)
        assert_allclose(init.s1, [[-nu, b]])
        assert_allclose(init.r1, [[r]])
        # J G0 = [[-Q, A'], [A, 0]] is the Hessian of H in (x; p)
        g0, z0 = drift_blocks(p)
        assert_allclose(symplectic_matrix(1) @ g0, [[-q, a], [a, 0.0]])
        assert_allclose(z0, [[b], [nu]])

    def test_zero_problem(self):
        p = LQProblem(A=[[0.0]], B=[[0.0]], Q=[[0.0]], N=[[0.0]], R=[[0.0]])
        init = initial_matrices(p)
        assert_allclose(init.s1, np.zeros((1, 2)))
        assert_allclose(init.r1, np.zeros((1, 1)))

    def test_two_state_blocks(self):
        p = LQProblem(
            A=np.eye(2), B=[[1.0], [1.0]], Q=np.eye(2), N=np.zeros((2, 1)), R=[[0.0]]
        )
        init = initial_matrices(p)
        assert_allclose(init.s1, [[0.0, 0.0, 1.0, 1.0]])
        assert_allclose(init.r1, [[0.0]])
        assert init.r1 is p.R

    def test_primary_constraint_identity(self, rng):
        # S1 = -Z0' J
        for _ in range(20):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            p = random_problem(rng, n, m)
            init = initial_matrices(p)
            _, z0 = drift_blocks(p)
            assert_allclose(init.s1, -z0.T @ symplectic_matrix(n), atol=1e-14)


def _fd_gradient(f, z, h=1e-6):
    g = np.zeros_like(z)
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (f(zp) - f(zm)) / (2 * h)
    return g


class TestHamiltonEquationsConsistency:
    def test_drift_matches_gradient(self, rng):
        # G0 (x;p) + Z0 u must equal (dH/dp; -dH/dx) by finite differences
        for _ in range(10):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            prob = random_problem(rng, n, m)
            g0, z0 = drift_blocks(prob)
            x = rng.standard_normal(n)
            p = rng.standard_normal(n)
            u = rng.standard_normal(m)

            def ham(z):
                return pontryagin_hamiltonian(prob, x=z[:n], p=z[n:], u=u)

            grad = _fd_gradient(ham, np.concatenate([x, p]))
            expected = np.concatenate([grad[n:], -grad[:n]])
            got = g0 @ np.concatenate([x, p]) + z0 @ u
            assert_allclose(got, expected, rtol=1e-6, atol=1e-6)

    def test_control_gradient_matches_primary_constraints(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            prob = random_problem(rng, n, m)
            init = initial_matrices(prob)
            x = rng.standard_normal(n)
            p = rng.standard_normal(n)
            u = rng.standard_normal(m)

            def ham(w):
                return pontryagin_hamiltonian(prob, x=x, p=p, u=w)

            grad_u = _fd_gradient(ham, u.copy())
            expected = init.s1 @ np.concatenate([x, p]) - init.r1 @ u
            assert_allclose(grad_u, expected, rtol=1e-6, atol=1e-6)
