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
    validate,
)
from lqreduce.linalg import symplectic_matrix
from conftest import random_problem


def minimal_problem():
    return LQProblem(A=[[0.0]], B=[[1.0]], Q=[[1.0]], N=[[0.0]], R=[[1.0]])


class TestValidate:
    def test_minimal_ok(self):
        validate(minimal_problem())

    def test_asymmetric_q(self):
        p = LQProblem(
            A=np.zeros((2, 2)),
            B=np.zeros((2, 1)),
            Q=[[0.0, 1.0], [0.0, 0.0]],
            N=np.zeros((2, 1)),
            R=[[1.0]],
        )
        with pytest.raises(AsymmetricQ):
            validate(p)

    def test_asymmetric_r(self):
        p = LQProblem(
            A=np.zeros((1, 1)),
            B=np.zeros((1, 2)),
            Q=np.zeros((1, 1)),
            N=np.zeros((1, 2)),
            R=[[0.0, 1.0], [0.0, 0.0]],
        )
        with pytest.raises(AsymmetricR):
            validate(p)

    # entries above about 1e154 overflow both Frobenius norms, which once
    # made the asymmetry NaN and let such a matrix through

    def test_asymmetric_q_with_huge_entries(self):
        p = LQProblem(
            A=np.zeros((2, 2)),
            B=np.zeros((2, 1)),
            Q=[[1e200, 1e200], [0.0, 1e200]],
            N=np.zeros((2, 1)),
            R=[[1.0]],
        )
        with pytest.raises(AsymmetricQ):
            validate(p)

    def test_asymmetric_r_with_huge_entries(self):
        p = LQProblem(
            A=np.zeros((1, 1)),
            B=np.zeros((1, 2)),
            Q=np.zeros((1, 1)),
            N=np.zeros((1, 2)),
            R=[[1e200, 1e200], [0.0, 1e200]],
        )
        with pytest.raises(AsymmetricR):
            validate(p)

    def test_symmetric_huge_entries_pass(self):
        huge = [[1e300, -1e300], [-1e300, 1e300]]
        validate(LQProblem(A=np.zeros((2, 2)), B=np.zeros((2, 2)), Q=huge,
                           N=np.zeros((2, 2)), R=huge))

    def test_dimension_mismatch(self):
        # R sized 3x3 against a 2-column B
        p = LQProblem(
            A=np.zeros((2, 2)),
            B=np.zeros((2, 2)),
            Q=np.zeros((2, 2)),
            N=np.zeros((2, 2)),
            R=np.zeros((3, 3)),
        )
        with pytest.raises(DimensionMismatch):
            validate(p)

    def test_non_finite(self):
        p = LQProblem(A=[[np.nan]], B=[[1.0]], Q=[[0.0]], N=[[0.0]], R=[[1.0]])
        with pytest.raises(NonFiniteEntry):
            validate(p)

    @pytest.mark.parametrize(
        "entries",
        [
            np.array([[1 + 1j]]),  # a cast would drop the imaginary part
            [[True]],
            [["1"]],
            np.array([[1.0]], dtype=object),
        ],
        ids=["complex", "bool", "str", "object"],
    )
    @pytest.mark.parametrize("label", ["A", "R"])
    def test_entries_that_are_not_real_numbers(self, entries, label):
        blocks = dict(A=[[1.0]], B=[[1.0]], Q=[[1.0]], N=[[0.0]], R=[[0.0]])
        blocks[label] = entries
        with pytest.raises(ValidationError, match=f"matrix {label} "):
            LQProblem(**blocks)

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
        # hess0 = J G0 = [[-Q, A'], [A, 0]]
        assert_allclose(init.hess0, [[-q, a], [a, 0.0]])
        assert_allclose(init.z0, [[b], [nu]])
        assert_allclose(init.s1, [[-nu, b]])
        assert_allclose(init.r1, [[r]])

    def test_zero_problem(self):
        p = LQProblem(A=[[0.0]], B=[[0.0]], Q=[[0.0]], N=[[0.0]], R=[[0.0]])
        init = initial_matrices(p)
        assert_allclose(init.hess0, np.zeros((2, 2)))
        assert_allclose(init.z0, np.zeros((2, 1)))
        assert_allclose(init.s1, np.zeros((1, 2)))

    def test_two_state_blocks(self):
        p = LQProblem(
            A=np.eye(2), B=[[1.0], [1.0]], Q=np.eye(2), N=np.zeros((2, 1)), R=[[0.0]]
        )
        init = initial_matrices(p)
        assert_allclose(init.hess0, np.block([[-np.eye(2), np.eye(2)],
                                              [np.eye(2), np.zeros((2, 2))]]))
        assert_allclose(init.z0, [[1.0], [1.0], [0.0], [0.0]])
        assert_allclose(init.s1, [[0.0, 0.0, 1.0, 1.0]])
        assert_allclose(init.r1, [[0.0]])

    def test_primary_constraint_identity(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            p = random_problem(rng, n, m)
            init = initial_matrices(p)
            j = symplectic_matrix(n)
            assert_allclose(init.s1, -init.z0.T @ j, atol=1e-14)


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
        # G0 (x;p) + Z0 u must equal (dH/dp; -dH/dx) by finite differences,
        # with the drift block G0 = -J hess0
        for _ in range(10):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            prob = random_problem(rng, n, m)
            init = initial_matrices(prob)
            g0 = -symplectic_matrix(n) @ init.hess0
            x = rng.standard_normal(n)
            p = rng.standard_normal(n)
            u = rng.standard_normal(m)

            def ham(z):
                return pontryagin_hamiltonian(prob, x=z[:n], p=z[n:], u=u)

            grad = _fd_gradient(ham, np.concatenate([x, p]))
            expected = np.concatenate([grad[n:], -grad[:n]])
            got = g0 @ np.concatenate([x, p]) + init.z0 @ u
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
