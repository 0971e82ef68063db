import numpy as np
import pytest
from numpy.testing import assert_allclose

from lqreduce import (
    ConstraintMatrix,
    DimensionMismatch,
    apply_feedback_to_constraints,
    gen_exp1,
    perturb,
    reduce,
    strip_coisotropic,
    subspace_angle,
)

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


class TestApplyFeedback:
    def test_zero_feedback_drops_columns(self):
        # row: x + u1 + v1 + v2; zero feedback on the first control
        phi = cm([[1, 0, 1, 0, 1, 1]], n=1, m_cur=2)
        out = apply_feedback_to_constraints(
            phi, np.eye(2), np.zeros((1, 2)), 1, TOL
        )
        assert out.m_cur == 1
        # u1 and v1 columns are gone, (x, p) block untouched
        assert subspace_angle(out.rows, [[1.0, 0.0, 0.0, 1.0]], TOL) < 1e-10

    def test_feedback_folds_into_xp(self):
        # constraint u1 = 0 with feedback u1 = f . (x; p)
        phi = cm([[0, 0, 1, 0, 0, 0]], n=1, m_cur=2)
        feed = np.array([[2.0, 3.0]])
        out = apply_feedback_to_constraints(phi, np.eye(2), feed, 1, TOL)
        assert out.m_cur == 1
        assert subspace_angle(out.rows, [[2.0, 3.0, 0.0, 0.0]], TOL) < 1e-10

    def test_solved_coisotropic_row_vanishes(self):
        # row is the zero-order constraint of the solved direction
        phi = cm([[0, 0, 0, 0, 1, 0]], n=1, m_cur=2)
        out = apply_feedback_to_constraints(
            phi, np.eye(2), np.zeros((1, 2)), 1, TOL
        )
        assert out.n_rows == 0

    def test_output_is_orthonormal(self, rng):
        # the fold hands reduce an orthonormal basis, whatever the scale of
        # the rows it folds
        n, m_cur, r = 3, 3, 1
        scales = np.array([[1e-3], [1.0], [10.0], [1e3], [1.0]])
        rows = scales * rng.standard_normal((5, 2 * n + 2 * m_cur))
        v_rot, _ = np.linalg.qr(rng.standard_normal((m_cur, m_cur)))
        feed = rng.standard_normal((r, 2 * n))
        out = apply_feedback_to_constraints(cm(rows, n, m_cur), v_rot, feed, r, TOL)
        assert out.n_rows == 5
        gram = out.rows @ out.rows.T
        assert np.linalg.norm(gram - np.eye(out.n_rows)) <= 1e-12

    def test_shape_errors(self):
        phi = cm([[0, 0, 1, 0]], n=1, m_cur=1)
        with pytest.raises(DimensionMismatch):
            apply_feedback_to_constraints(phi, np.eye(2), np.zeros((1, 2)), 1, TOL)
        with pytest.raises(DimensionMismatch):
            apply_feedback_to_constraints(phi, np.eye(1), np.zeros((1, 3)), 1, TOL)


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
