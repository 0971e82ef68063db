import numpy as np
from numpy.testing import assert_allclose

from lqreduce import (
    ConstraintMatrix,
    numerical_ker,
    poisson_brackets,
    rank_tol,
    split_first_second,
    subspace_angle,
)
from lqreduce.classify import class_counts

TOL = 1e-6


def cm(rows, n, m_cur):
    return ConstraintMatrix(np.asarray(rows, dtype=float), n, m_cur)


class TestPoissonBrackets:
    def test_canonical_state_pair(self):
        # rows {x, p} with no control block: {x, p} = 1
        phi = cm([[1, 0], [0, 1]], n=1, m_cur=0)
        assert_allclose(poisson_brackets(phi), [[0, 1], [-1, 0]])

    def test_coisotropic_commutes_with_costate(self):
        phi = cm([[0, 0, 0, 1], [0, 1, 0, 0]], n=1, m_cur=1)
        assert_allclose(poisson_brackets(phi), np.zeros((2, 2)))

    def test_control_pair_hand_expansion(self):
        # {v, -2u} = -2 {v, u} = +2 since {u, v} = 1
        phi = cm([[0, 0, 0, 1], [0, 0, -2, 0]], n=1, m_cur=1)
        assert_allclose(poisson_brackets(phi), [[0, 2], [-2, 0]])

    def test_empty(self):
        phi = cm(np.zeros((0, 4)), n=1, m_cur=1)
        assert poisson_brackets(phi).shape == (0, 0)

    def test_antisymmetric_and_even_rank(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(0, 3))
            q = int(rng.integers(1, 2 * n + 2 * m + 1))
            phi = cm(rng.standard_normal((q, 2 * n + 2 * m)), n, m)
            poi = poisson_brackets(phi)
            assert_allclose(poi, -poi.T, atol=1e-15)
            assert rank_tol(poi, TOL) % 2 == 0


class TestSplitFirstSecond:
    def test_commuting_pair_all_first_class(self):
        phi = cm([[0, 0, 0, 1], [0, 1, 0, 0]], n=1, m_cur=1)
        first, second = split_first_second(phi, TOL)
        assert first.n_rows == 2 and second.n_rows == 0

    def test_canonical_pair_all_second_class(self):
        phi = cm([[0, 0, 0, 1], [0, 0, 1, 0]], n=1, m_cur=1)
        first, second = split_first_second(phi, TOL)
        assert first.n_rows == 0 and second.n_rows == 2

    def test_mixed_set(self):
        # {x, p, v}: v commutes with everything, (x, p) pair up
        phi = cm([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], n=1, m_cur=1)
        first, second = split_first_second(phi, TOL)
        assert first.n_rows == 1 and second.n_rows == 2
        assert subspace_angle(first.rows, [[0, 0, 0, 1]], TOL) < 1e-10
        assert subspace_angle(
            second.rows, [[1, 0, 0, 0], [0, 1, 0, 0]], TOL
        ) < 1e-10

    def test_counts_partition_rows(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(0, 3))
            q = int(rng.integers(1, 2 * n + 2 * m + 1))
            phi = cm(rng.standard_normal((q, 2 * n + 2 * m)), n, m)
            first, second = split_first_second(phi, TOL)
            assert first.n_rows + second.n_rows == q
            assert second.n_rows % 2 == 0
            counts = class_counts(poisson_brackets(phi), TOL)
            assert counts == (first.n_rows, second.n_rows)

    def test_first_class_kernel_residual(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(0, 3))
            q = int(rng.integers(1, 2 * n + 2 * m + 1))
            phi = cm(rng.standard_normal((q, 2 * n + 2 * m)), n, m)
            poi = poisson_brackets(phi)
            ker, _ = numerical_ker(poi, TOL)
            if ker.shape[1]:
                residuals = np.linalg.norm(ker.T @ poi, axis=1)
                assert np.all(residuals <= TOL * (1 + np.linalg.norm(poi, 2)))
