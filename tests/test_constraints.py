import numpy as np
import pytest
from numpy.testing import assert_allclose

from lqreduce import (
    ConstraintMatrix,
    DimensionMismatch,
    apply_feedback_to_constraints,
    gen_exp1,
    perturb,
    poisson_brackets,
    reduce,
    strip_coisotropic,
    subspace_angle,
)
from lqreduce.classify import extend_brackets
from lqreduce.constraints import with_zero_order

TOL = 1e-6


def cm(rows, n, m_cur):
    return ConstraintMatrix(np.asarray(rows, dtype=float), n, m_cur)


class TestConstraintMatrix:
    def test_block_views(self):
        phi = cm([[1, 2, 3, 4, 5, 6]], n=1, m_cur=2)
        assert_allclose(phi.xp, [[1, 2]])
        assert_allclose(phi.u_block, [[3, 4]])
        assert_allclose(phi.v_block, [[5, 6]])

    def test_wrong_width_rejected(self):
        with pytest.raises(DimensionMismatch):
            cm([[1, 2, 3]], n=1, m_cur=1)


class TestWithZeroOrder:
    def test_zero_order_rows_first_and_held_rows_v_free(self, rng):
        n, m = 2, 3
        rows = rng.standard_normal((4, 2 * n + m))
        ext = with_zero_order(rows, n)
        assert (ext.n, ext.m_cur, ext.n_rows) == (n, m, m + 4)
        e_v = np.hstack([np.zeros((m, 2 * n + m)), np.eye(m)])
        assert np.array_equal(ext.rows[:m], e_v)
        assert np.array_equal(ext.rows[m:, : 2 * n + m], rows)
        assert not ext.v_block[m:].any()

    def test_full_bracket_build_is_that_of_the_extended_set(self, rng):
        n, m = 3, 2
        rows = rng.standard_normal((5, 2 * n + m))
        got = extend_brackets(None, rows, n)
        assert np.array_equal(got, poisson_brackets(with_zero_order(rows, n)))


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

    def test_shape_errors(self):
        rows = [[0, 0, 1]]
        with pytest.raises(DimensionMismatch):
            apply_feedback_to_constraints(rows, 1, np.eye(2), np.zeros((1, 2)), 1, TOL)
        with pytest.raises(DimensionMismatch):
            apply_feedback_to_constraints(rows, 1, np.eye(1), np.zeros((1, 3)), 1, TOL)
        with pytest.raises(DimensionMismatch):
            apply_feedback_to_constraints(rows, 1, np.eye(1), np.zeros((2, 2)), 2, TOL)


class TestStripCoisotropic:
    def test_pure_v_row_vanishes(self):
        phi = cm([[0, 0, 0, 1]], n=1, m_cur=1)
        assert strip_coisotropic(phi, TOL).shape == (0, 3)

    def test_v_free_rows_unchanged(self):
        phi = cm([[1, 2, 3, 0], [0, 1, 1, 0]], n=1, m_cur=1)
        out = strip_coisotropic(phi, TOL)
        assert subspace_angle(out, [[1, 2, 3], [0, 1, 1]], TOL) < 1e-10

    def test_mixed_rows_collapse(self):
        # {p + v, p - v} project onto the single direction p
        phi = cm([[0, 1, 0, 1], [0, 1, 0, -1]], n=1, m_cur=1)
        out = strip_coisotropic(phi, TOL)
        assert out.shape[0] == 1
        assert subspace_angle(out, [[0.0, 1.0, 0.0]], TOL) < 1e-10

    def test_empty_stays_empty(self):
        phi = cm(np.zeros((0, 4)), n=1, m_cur=1)
        assert strip_coisotropic(phi, TOL).shape == (0, 3)

    def test_strip_is_basis_free(self):
        # phi_first_ext is an orthonormal basis picked from a clustered
        # bracket kernel; rescaling its rows before the rank decision made
        # the stripped count depend on that pick (10 rows here, 9 rotated)
        res = reduce(perturb(gen_exp1(24, 9, 6, seed=3), 1e-8, seed=3), TOL)
        phi = res.phi_first_ext
        ref = strip_coisotropic(phi, TOL)
        assert ref.shape[0] == 9
        rng = np.random.default_rng(3)
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((phi.n_rows, phi.n_rows)))
            out = strip_coisotropic(phi.with_rows(q @ phi.rows), TOL)
            assert out.shape[0] == ref.shape[0]
            assert subspace_angle(out, ref, TOL) <= 1e-12
