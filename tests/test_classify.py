import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lqreduce import DimensionMismatch, classify, subspace_angle
from lqreduce.classify import (
    class_counts,
    extend_brackets,
    poisson_brackets,
    split_first_second,
)
from lqreduce.constraints import with_zero_order
from lqreduce.linalg import numerical_ker, rank_tol

TOL = 1e-6


class TestPoissonBrackets:
    def test_canonical_state_pair(self):
        # rows {x, p} with no control block: {x, p} = 1
        phi = np.array([[1.0, 0], [0, 1]])
        assert_allclose(poisson_brackets(phi, 1), [[0, 1], [-1, 0]])

    def test_coisotropic_commutes_with_costate(self):
        phi = np.array([[0.0, 0, 0, 1], [0, 1, 0, 0]])
        assert_allclose(poisson_brackets(phi, 1), np.zeros((2, 2)))

    def test_control_pair_hand_expansion(self):
        # {v, -2u} = -2 {v, u} = +2 since {u, v} = 1
        phi = np.array([[0.0, 0, 0, 1], [0, 0, -2, 0]])
        assert_allclose(poisson_brackets(phi, 1), [[0, 2], [-2, 0]])

    def test_empty(self):
        phi = np.zeros((0, 4))
        assert poisson_brackets(phi, 1).shape == (0, 0)

    def test_wrong_width_rejected(self):
        # the width must be 2n + 2m for some m >= 0
        for width in (3, 5):  # odd
            with pytest.raises(DimensionMismatch):
                poisson_brackets(np.ones((1, width)), 1)
        with pytest.raises(DimensionMismatch):  # narrower than 2n
            poisson_brackets(np.ones((1, 2)), 2)

    def test_antisymmetric_and_even_rank(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(0, 3))
            q = int(rng.integers(1, 2 * n + 2 * m + 1))
            phi = rng.standard_normal((q, 2 * n + 2 * m))
            poi = poisson_brackets(phi, n)
            assert_allclose(poi, -poi.T, atol=1e-15)
            assert rank_tol(poi, TOL) % 2 == 0


class TestSplitFirstSecond:
    def test_commuting_pair_all_first_class(self):
        phi = np.array([[0.0, 0, 0, 1], [0, 1, 0, 0]])
        first, second = split_first_second(poisson_brackets(phi, 1), TOL)
        assert first.shape[0] == 2 and second.shape[0] == 0

    def test_canonical_pair_all_second_class(self):
        phi = np.array([[0.0, 0, 0, 1], [0, 0, 1, 0]])
        first, second = split_first_second(poisson_brackets(phi, 1), TOL)
        assert first.shape[0] == 0 and second.shape[0] == 2

    def test_mixed_set(self):
        # {x, p, v}: v commutes with everything, (x, p) pair up
        phi = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        first, second = split_first_second(poisson_brackets(phi, 1), TOL)
        assert first.shape[0] == 1 and second.shape[0] == 2
        assert subspace_angle(first @ phi, [[0, 0, 0, 1]], TOL) < 1e-10
        assert subspace_angle(
            second @ phi, [[1, 0, 0, 0], [0, 1, 0, 0]], TOL
        ) < 1e-10

    def test_counts_partition_rows(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(0, 3))
            q = int(rng.integers(1, 2 * n + 2 * m + 1))
            phi = rng.standard_normal((q, 2 * n + 2 * m))
            first, second = split_first_second(poisson_brackets(phi, n), TOL)
            assert first.shape[0] + second.shape[0] == q
            assert second.shape[0] % 2 == 0
            counts = class_counts(poisson_brackets(phi, n), [q], TOL)
            assert counts == [(first.shape[0], second.shape[0])]

    def test_first_class_kernel_residual(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(0, 3))
            q = int(rng.integers(1, 2 * n + 2 * m + 1))
            phi = rng.standard_normal((q, 2 * n + 2 * m))
            poi = poisson_brackets(phi, n)
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
                fresh = poisson_brackets(with_zero_order(after, n), n)
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


class TestNestedCounts:
    # reduce counts the passes between two folds from the leading blocks of
    # the last one's bracket matrix; a negligible matrix reads no block

    @staticmethod
    def direct(poi, sizes):
        return [(k - rank_tol(poi[:k, :k], TOL), rank_tol(poi[:k, :k], TOL)) for k in sizes]

    def test_each_block_is_counted(self, rng):
        for _ in range(30):
            q = int(rng.integers(1, 12))
            a, b = rng.standard_normal((2, q, int(rng.integers(1, 4))))
            poi = a @ b.T - b @ a.T
            buf = np.full((q + 3, q + 3), np.nan)
            buf[:q, :q] = poi
            sizes = sorted(rng.integers(0, q + 1, size=4).tolist())
            assert class_counts(buf[:q, :q], sizes, TOL) == self.direct(poi, sizes)

    def test_negligible_matrix_reads_no_block(self, monkeypatch):
        seen = []
        monkeypatch.setattr(classify, "rank_tol", lambda m, tol: seen.append(m))
        poi = np.zeros((5, 5))
        poi[4, 0], poi[0, 4] = TOL / 2, -TOL / 2
        assert class_counts(poi, [1, 3, 5], TOL) == [(1, 0), (3, 0), (5, 0)]
        assert seen == []

    def test_overflowing_norm_is_not_negligible(self):
        poi = np.array([[0.0, 1e200], [-1e200, 0.0]])
        assert class_counts(poi, [1, 2], TOL) == [(1, 0), (0, 2)]

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        q=st.integers(2, 9),
        rank=st.integers(1, 4),
        size=st.floats(0.5, 2.0),
    )
    def test_nested_count_is_the_direct_one(self, seed, q, rank, size):
        # exactly antisymmetric, of Frobenius norm 0.5 tol to 2 tol, where
        # the whole matrix's rank-0 test and a block's may disagree by rounding
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((2, q, rank))
        poi = a @ b.T - b @ a.T
        poi *= size * TOL / np.linalg.norm(poi)
        poi = (poi - poi.T) / 2.0
        sizes = range(1, q + 1)
        assert class_counts(poi, sizes, TOL) == self.direct(poi, sizes)
