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
from lqreduce.classify import class_counts, extend_brackets
from lqreduce.constraints import with_zero_order

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
        first, second = split_first_second(poisson_brackets(phi), TOL)
        assert first.shape[0] == 2 and second.shape[0] == 0

    def test_canonical_pair_all_second_class(self):
        phi = cm([[0, 0, 0, 1], [0, 0, 1, 0]], n=1, m_cur=1)
        first, second = split_first_second(poisson_brackets(phi), TOL)
        assert first.shape[0] == 0 and second.shape[0] == 2

    def test_mixed_set(self):
        # {x, p, v}: v commutes with everything, (x, p) pair up
        phi = cm([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], n=1, m_cur=1)
        first, second = split_first_second(poisson_brackets(phi), TOL)
        assert first.shape[0] == 1 and second.shape[0] == 2
        assert subspace_angle(first @ phi.rows, [[0, 0, 0, 1]], TOL) < 1e-10
        assert subspace_angle(
            second @ phi.rows, [[1, 0, 0, 0], [0, 1, 0, 0]], TOL
        ) < 1e-10

    def test_counts_partition_rows(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(0, 3))
            q = int(rng.integers(1, 2 * n + 2 * m + 1))
            phi = cm(rng.standard_normal((q, 2 * n + 2 * m)), n, m)
            first, second = split_first_second(poisson_brackets(phi), TOL)
            assert first.shape[0] + second.shape[0] == q
            assert second.shape[0] % 2 == 0
            counts = class_counts(poisson_brackets(phi), TOL)
            assert counts == (first.shape[0], second.shape[0])

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


class TestExtendBrackets:
    # held and new rows over (x, p, u); the zero-order rows e_v lead
    @staticmethod
    def held_and_new(rng, n, m, held, t):
        rows = np.linalg.qr(rng.standard_normal((2 * n + m, held + t)))[0].T
        return rows[:held], rows

    def test_border_is_the_full_build(self, rng):
        checked = 0
        for _ in range(40):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 4))
            held = int(rng.integers(0, 2 * n + m))
            t = int(rng.integers(1, 2 * n + m - held + 1))
            before, after = self.held_and_new(rng, n, m, held, t)
            poi = extend_brackets(None, before, n)
            q = m + held + t
            for out in (None, np.full((q + 3, q + 3), np.nan)):
                got = extend_brackets(poi, after, n, out=out)
                fresh = poisson_brackets(with_zero_order(after, n))
                assert got.shape == (q, q)
                assert np.abs(got - fresh).max() <= 1e-15
                assert np.array_equal(got, -got.T)
                assert np.array_equal(got[: m + held, : m + held], poi)
                checked += 1
        assert checked == 80

    def test_buffer_keeps_its_leading_block(self, rng):
        # a buffer that already holds poi as its leading block is bordered
        # in place, and a view taken before the border is not written
        n, m = 4, 2
        before, after = self.held_and_new(rng, n, m, 3, 2)
        buf = np.empty((10, 10))
        poi = extend_brackets(None, before, n)
        k = poi.shape[0]
        buf[:k, :k] = poi
        held = buf[:k, :k]
        kept = held.copy()
        got = extend_brackets(held, after, n, out=buf)
        assert np.shares_memory(got, buf)
        assert np.array_equal(held, kept)
        assert np.array_equal(got, extend_brackets(poi, after, n))
