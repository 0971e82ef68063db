import numpy as np
import pytest

from lqreduce import (
    DimensionMismatch,
    gen_exp1,
    perturb,
    reduce,
    subspace_angle,
)
from lqreduce import reduction
from lqreduce.classify import bracket_matrix, poisson_brackets
from lqreduce.constraints import (
    apply_feedback_to_constraints,
    strip_coisotropic,
    with_zero_order,
)
from lqreduce.linalg import equilibrate_rows, independent_rows, row_space_basis

TOL = 1e-6


class TestWithZeroOrder:
    def test_zero_order_rows_first_and_held_rows_v_free(self, rng):
        n, m = 2, 3
        rows = rng.standard_normal((4, 2 * n + m))
        ext = with_zero_order(rows, n)
        assert ext.shape == (m + 4, 2 * n + 2 * m)
        e_v = np.hstack([np.zeros((m, 2 * n + m)), np.eye(m)])
        assert np.array_equal(ext[:m], e_v)
        assert np.array_equal(ext[m:, : 2 * n + m], rows)
        assert not ext[m:, 2 * n + m :].any()

    def test_combinations_are_formed_by_blocks(self, rng):
        n, m = 2, 3
        rows = rng.standard_normal((4, 2 * n + m))
        coeffs = rng.standard_normal((5, m + 4))
        got = with_zero_order(rows, n, coeffs)
        assert got.shape == (5, 2 * n + 2 * m)
        assert np.abs(got - coeffs @ with_zero_order(rows, n)).max() <= 1e-14

    def test_full_bracket_build_is_that_of_the_extended_set(self, rng):
        n, m = 3, 2
        rows = rng.standard_normal((5, 2 * n + m))
        got = bracket_matrix(rows, n)
        assert np.array_equal(got, poisson_brackets(with_zero_order(rows, n), n))


class TestApplyFeedback:
    # the fold takes and returns rows over (x, p, u), no v columns
    def test_zero_feedback_drops_columns(self):
        # row: x + u1 + u2; zero feedback on the first control
        out = apply_feedback_to_constraints(
            [[1, 0, 1, 1]], 1, np.eye(2), np.zeros((1, 2)), 1, TOL
        )
        # the u1 column is gone, (x, p) block untouched
        assert out.shape[1] == 3
        assert subspace_angle(out, [[1.0, 0.0, 1.0]], TOL) < 1e-10

    def test_feedback_folds_into_xp(self):
        # constraint u1 = 0 with feedback u1 = f . (x; p)
        feed = np.array([[2.0, 3.0]])
        out = apply_feedback_to_constraints([[0, 0, 1, 0]], 1, np.eye(2), feed, 1, TOL)
        assert out.shape[1] == 3
        assert subspace_angle(out, [[2.0, 3.0, 0.0]], TOL) < 1e-10

    def test_solved_control_row_without_feedback_vanishes(self):
        # u1 = 0 with zero feedback on u1 folds to the zero row
        out = apply_feedback_to_constraints(
            [[0, 0, 1, 0]], 1, np.eye(2), np.zeros((1, 2)), 1, TOL
        )
        assert out.shape == (0, 3)

    def test_output_is_orthonormal(self, rng):
        # the fold hands reduce an orthonormal basis, whatever the scale of
        # the rows it folds
        n, m_cur, r = 3, 3, 1
        scales = np.array([[1e-3], [1.0], [10.0], [1e3], [1.0]])
        rows = scales * rng.standard_normal((5, 2 * n + m_cur))
        v_rot, _ = np.linalg.qr(rng.standard_normal((m_cur, m_cur)))
        feed = rng.standard_normal((r, 2 * n))
        out = apply_feedback_to_constraints(rows, n, v_rot, feed, r, TOL)
        assert out.shape == (5, 2 * n + m_cur - r)
        assert np.linalg.norm(out @ out.T - np.eye(5)) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_complement_keeps_the_span_of_every_row_substituted(self, seed):
        # rows whose span holds the solved relations, as reduce's do: the
        # fold substitutes only the q - r combinations with no part along
        # them, and keeps the count and span of every row substituted
        rng = np.random.default_rng(seed)
        n, m_cur, r, free = 3, 4, 2, 3
        v_rot = np.linalg.qr(rng.standard_normal((m_cur, m_cur)))[0]
        feed = rng.standard_normal((r, 2 * n)) * 10.0 ** (seed % 3)
        rel = np.hstack([-feed, v_rot[:, :r].T])
        rows = row_space_basis(np.vstack([rel, rng.standard_normal((free, 2 * n + m_cur))]), TOL)
        out = apply_feedback_to_constraints(rows, n, v_rot, feed, r, TOL)
        u_rot = rows[:, 2 * n :] @ v_rot
        whole = np.hstack([rows[:, : 2 * n] + u_rot[:, :r] @ feed, u_rot[:, r:]])
        ref = row_space_basis(equilibrate_rows(whole, TOL), TOL)
        assert out.shape == ref.shape == (free, 2 * n + m_cur - r)
        assert subspace_angle(out, ref, TOL) <= 1e-12
        assert np.abs(out @ out.T - np.eye(free)).max() <= 1e-13

    def test_shape_errors(self):
        rows = [[0, 0, 1]]
        with pytest.raises(DimensionMismatch):
            apply_feedback_to_constraints(rows, 1, np.eye(2), np.zeros((1, 2)), 1, TOL)
        with pytest.raises(DimensionMismatch):
            apply_feedback_to_constraints(rows, 1, np.eye(1), np.zeros((1, 3)), 1, TOL)
        with pytest.raises(DimensionMismatch):
            apply_feedback_to_constraints(rows, 1, np.eye(1), np.zeros((2, 2)), 2, TOL)


class TestStripCoisotropic:
    # the set is coeffs @ with_zero_order(rows, n): coefficient rows over
    # the zero-order rows e_v, then the orthonormal rows over (x, p, u)
    def test_pure_v_row_vanishes(self):
        # e_v alone, no held rows
        assert strip_coisotropic(np.ones((1, 1)), np.zeros((0, 3)), TOL).shape == (0, 3)

    def test_v_free_rows_unchanged(self):
        rows = row_space_basis(np.array([[1.0, 2, 3], [0, 1, 1]]), TOL)
        out = strip_coisotropic(np.array([[0.0, 1, 0], [0, 0, 1]]), rows, TOL)
        assert subspace_angle(out, [[1, 2, 3], [0, 1, 1]], TOL) < 1e-10

    def test_mixed_rows_collapse(self):
        # {p + v, p - v} project onto the single direction p
        coeffs = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
        out = strip_coisotropic(coeffs, np.array([[0.0, 1.0, 0.0]]), TOL)
        assert out.shape[0] == 1
        assert subspace_angle(out, [[0.0, 1.0, 0.0]], TOL) < 1e-10

    def test_empty_stays_empty(self):
        assert strip_coisotropic(np.zeros((0, 1)), np.zeros((0, 3)), TOL).shape == (0, 3)

    def test_projection_of_the_combinations(self, rng):
        # the decision on the kernel block is the one on the projected rows
        n, m, q = 3, 2, 5
        rows = row_space_basis(rng.standard_normal((q, 2 * n + m)), TOL)
        coeffs = np.linalg.qr(rng.standard_normal((m + q, m + q)))[0].T[:4]
        coeffs[:, m:] *= np.array([1.0, 1e-3, 1e-9, 1.0])[:, None]
        out = strip_coisotropic(coeffs, rows, TOL)
        kept = with_zero_order(rows, n, coeffs)[:, : 2 * n + m]
        ref = independent_rows(kept, TOL)
        assert out.shape == ref.shape == (3, 2 * n + m)
        assert subspace_angle(out, ref, TOL) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_are_the_projection_normalized(self, seed):
        # the stripped rows are those of independent_rows of the projection,
        # each divided by its norm sigma_i: the same rank and rows, but held
        # orthonormal, with no factorization after the rank decision
        rng = np.random.default_rng(seed)
        n, m, q = 4, 3, 9
        rows = row_space_basis(rng.standard_normal((q, 2 * n + m)), TOL)
        for k in (1, 4, 7, m + q):
            coeffs = np.linalg.qr(rng.standard_normal((m + q, m + q)))[0].T[:k]
            out = strip_coisotropic(coeffs, rows, TOL)
            ref = independent_rows(coeffs[:, m:], TOL) @ rows
            norms = np.linalg.norm(ref, axis=1)
            assert out.shape == ref.shape and np.all(norms > 0)
            assert np.abs(out - ref / norms[:, None]).max(initial=0.0) <= 1e-12
            assert np.abs(out @ out.T - np.eye(out.shape[0])).max() <= 1e-13

    def test_strip_is_basis_free(self, monkeypatch):
        # the first-class set is an orthonormal basis picked from a clustered
        # bracket kernel; rescaling its rows before the rank decision made
        # the stripped count depend on that pick (10 rows here, 9 rotated)
        seen = []

        def recording(coeffs, rows, tol):
            seen.append((coeffs, rows))
            return strip_coisotropic(coeffs, rows, tol)

        monkeypatch.setattr(reduction, "strip_coisotropic", recording)
        reduce(perturb(gen_exp1(24, 9, 6, seed=3), 1e-8, seed=3), TOL)
        coeffs, rows = seen[0]  # the first-class set's
        ref = strip_coisotropic(coeffs, rows, TOL)
        assert ref.shape[0] == 9
        rng = np.random.default_rng(3)
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((coeffs.shape[0],) * 2))
            out = strip_coisotropic(q @ coeffs, rows, TOL)
            assert out.shape[0] == ref.shape[0]
            assert subspace_angle(out, ref, TOL) <= 1e-12
