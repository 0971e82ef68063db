import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lqreduce
from lqreduce import linalg
from lqreduce import (
    DimensionMismatch,
    EmptySubspace,
    equilibrate_rows,
    extend_rows,
    independent_rows,
    numerical_ker,
    rank_tol,
    subspace_angle,
    symplectic_matrix,
)

TOL = 1e-6


class TestRankTol:
    def test_identity(self):
        assert rank_tol(np.eye(2), TOL) == 2

    def test_duplicate_rows(self):
        assert rank_tol([[1, 0], [1, 0]], TOL) == 1

    def test_below_threshold_value(self):
        # singular values of a diagonal matrix are its absolute entries
        assert rank_tol([[1e-8, 0], [0, 1]], TOL) == 1

    def test_empty(self):
        assert rank_tol(np.zeros((0, 3)), TOL) == 0
        assert rank_tol(np.zeros((3, 0)), TOL) == 0

    def test_orthogonal_invariance(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(2, 8))
            a = rng.standard_normal((n, m))
            qn, _ = np.linalg.qr(rng.standard_normal((n, n)))
            qm, _ = np.linalg.qr(rng.standard_normal((m, m)))
            assert rank_tol(qn @ a, TOL) == rank_tol(a, TOL)
            assert rank_tol(a @ qm, TOL) == rank_tol(a, TOL)

    # rank 0 is decided from the Frobenius norm before any SVD; near the
    # threshold the decision must stay the plain singular-value count

    @staticmethod
    def svd_count(m, tol):
        return int(np.count_nonzero(np.linalg.svd(m, compute_uv=False) > tol))

    def test_norm_exactly_at_tol(self):
        m = np.diag([TOL, 0.0])
        assert np.linalg.norm(m) == TOL
        assert rank_tol(m, TOL) == self.svd_count(m, TOL) == 0

    def test_norm_above_tol_with_every_singular_value_below(self, monkeypatch):
        m = np.diag([0.8, 0.8]) * TOL
        assert np.linalg.norm(m) > TOL
        assert self.svd_count(m, TOL) == 0
        calls = []
        real_svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        assert rank_tol(m, TOL) == 0
        assert calls == [(2, 2)]

    @pytest.mark.parametrize(
        "sigma, rank", [(TOL * (1 + 1e-9), 1), (TOL * (1 - 1e-9), 0)]
    )
    def test_rank_one_at_the_threshold(self, rng, sigma, rank):
        u = rng.standard_normal(4)
        v = rng.standard_normal(3)
        m = sigma * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
        assert rank_tol(m, TOL) == self.svd_count(m, TOL) == rank

    def test_nan_input_still_fails_in_the_svd(self):
        # a NaN norm fails the zero test, so the SVD sees the NaN as before
        with pytest.raises(np.linalg.LinAlgError):
            rank_tol([[np.nan, 0.0], [0.0, 1.0]], TOL)

    def test_overflowing_norm_takes_the_svd_without_warning(self):
        # the Frobenius norm of these entries overflows to inf
        assert rank_tol([[1e200, 1e200], [1e200, 0.0]], TOL) == 2


def gram_schmidt_rows(m, drop_tol=1e-10):
    """Independent row-space oracle used to cross-check independent_rows."""
    basis = []
    for row in np.asarray(m, dtype=float):
        v = row.copy()
        for b in basis:
            v -= (v @ b) * b
        norm = np.linalg.norm(v)
        if norm > drop_tol:
            basis.append(v / norm)
    return np.array(basis) if basis else np.zeros((0, m.shape[1]))


class TestIndependentRows:
    def test_duplicate_rows_collapse(self):
        out = independent_rows([[1.0, 0.0], [1.0, 0.0]], TOL)
        assert out.shape[0] == 1
        assert subspace_angle(out, [[1.0, 0.0]], TOL) < 1e-10

    def test_identity_preserved(self):
        out = independent_rows(np.eye(3), TOL)
        assert out.shape == (3, 3)
        assert rank_tol(out, TOL) == 3

    def test_row_space_matches_gram_schmidt(self):
        m = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 1.0]])
        out = independent_rows(m, TOL)
        assert out.shape[0] == 2
        assert subspace_angle(out, gram_schmidt_rows(m), TOL) < 1e-10

    def test_rows_mutually_orthogonal(self, rng):
        m = rng.standard_normal((5, 7))
        out = independent_rows(m, TOL)
        gram = out @ out.T
        assert_allclose(gram - np.diag(np.diag(gram)), 0.0, atol=1e-10)

    def test_idempotent(self, rng):
        for _ in range(10):
            m = rng.standard_normal((4, 6)) @ rng.standard_normal((6, 6))
            once = independent_rows(m, TOL)
            twice = independent_rows(once, TOL)
            assert once.shape[0] == twice.shape[0]
            assert subspace_angle(once, twice, TOL) < 1e-12

    def test_zero_collapses_to_empty(self):
        out = independent_rows(np.zeros((3, 4)), TOL)
        assert out.shape == (0, 4)


class TestSvd:
    @pytest.mark.parametrize(
        "full_matrices, compute_uv",
        [(False, True), (True, True), (True, False)],
        ids=["thin", "full", "values"],
    )
    def test_retries_on_the_transpose(self, monkeypatch, rng, full_matrices, compute_uv):
        # gesdd fails to converge on some finite matrices whose transpose it
        # factors; fail the first call and check the swapped-back factors
        m = rng.standard_normal((3, 5))
        direct = np.linalg.svd(m, full_matrices=full_matrices, compute_uv=compute_uv)
        real_svd = np.linalg.svd
        calls = []

        def flaky(a, *args, **kwargs):
            calls.append(a.shape)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", flaky)
        out = linalg._svd(m, full_matrices=full_matrices, compute_uv=compute_uv)
        assert calls == [(3, 5), (5, 3)]
        if not compute_uv:
            assert_allclose(out, direct, atol=1e-12)
            return
        u, s, vt = out
        assert [u.shape, s.shape, vt.shape] == [x.shape for x in direct]
        assert_allclose(s, direct[1], atol=1e-12)
        assert_allclose(u[:, :3] * s @ vt[:3], m, atol=1e-12)
        assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)
        assert_allclose(vt @ vt.T, np.eye(vt.shape[0]), atol=1e-12)


def orthonormality_error(basis):
    return np.abs(basis @ basis.T - np.eye(basis.shape[0])).max()


class TestExtendRows:
    def test_keeps_basis_and_stays_orthonormal(self, rng):
        basis = np.linalg.qr(rng.standard_normal((8, 3)))[0].T
        rows = rng.standard_normal((4, 8)) * np.array([[1e3], [1.0], [1e-3], [5.0]])
        out = extend_rows(basis, rows, TOL)
        assert out.shape == (7, 8)
        assert np.array_equal(out[:3], basis)
        assert orthonormality_error(out) < 1e-12

    def test_span_is_the_stack_span(self, rng):
        basis = np.linalg.qr(rng.standard_normal((9, 4)))[0].T
        rows = rng.standard_normal((3, 9))
        out = extend_rows(basis, rows, TOL)
        assert subspace_angle(out, np.vstack([basis, rows]), TOL) < 1e-12
        assert subspace_angle(np.vstack([basis, rows]), out, TOL) < 1e-12

    def test_rows_in_the_span_add_nothing(self, rng):
        basis = np.linalg.qr(rng.standard_normal((6, 3)))[0].T
        rows = rng.standard_normal((5, 3)) @ basis
        out = extend_rows(basis, rows, TOL)
        assert np.array_equal(out, basis)

    def test_dependent_new_rows_count_once(self, rng):
        basis = np.linalg.qr(rng.standard_normal((6, 2)))[0].T
        row = rng.standard_normal((1, 6))
        out = extend_rows(basis, np.vstack([row, 2.0 * row, -row]), TOL)
        assert out.shape == (3, 6)

    def test_subtolerance_rows_dropped(self):
        basis = np.array([[1.0, 0.0, 0.0]])
        out = extend_rows(basis, [[0.0, 1e-9, 0.0], [0.0, 0.0, 2.0]], TOL)
        assert_allclose(np.abs(out), [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], atol=1e-15)

    def test_empty_basis_or_rows(self, rng):
        rows = rng.standard_normal((2, 5))
        out = extend_rows(np.zeros((0, 5)), rows, TOL)
        assert out.shape == (2, 5)
        assert orthonormality_error(out) < 1e-12
        assert subspace_angle(out, rows, TOL) < 1e-12
        assert np.array_equal(extend_rows(out, np.zeros((0, 5)), TOL), out)
        assert extend_rows(np.zeros((0, 5)), np.zeros((0, 5)), TOL).shape == (0, 5)

    def test_column_mismatch(self):
        with pytest.raises(DimensionMismatch):
            extend_rows(np.eye(2), [[1.0, 0.0, 0.0]], TOL)

    def test_long_chain_of_single_rows_stays_orthonormal(self, rng):
        # each new row is nearly in the span, where one projection pass
        # would lose orthogonality; the second pass keeps it at rounding
        cols = 160
        basis = np.zeros((0, cols))
        for _ in range(150):
            row = rng.standard_normal((1, basis.shape[0])) @ basis
            row = row + 1e-4 * rng.standard_normal((1, cols))
            basis = extend_rows(basis, row, TOL)
        assert basis.shape == (150, cols)
        assert orthonormality_error(basis) < 1e-12


class TestNumericalKer:
    def test_zero_matrix(self):
        v, w = numerical_ker(np.zeros((2, 2)), TOL)
        assert v.shape == (2, 2) and w.shape == (2, 0)
        assert_allclose(v.T @ v, np.eye(2), atol=1e-12)

    def test_invertible_antisymmetric(self):
        v, w = numerical_ker([[0.0, 1.0], [-1.0, 0.0]], TOL)
        assert v.shape == (2, 0) and w.shape == (2, 2)

    def test_block_antisymmetric_kernel(self):
        a = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        v, w = numerical_ker(a, TOL)
        assert v.shape == (3, 1) and w.shape == (3, 2)
        assert_allclose(a @ v, 0.0, atol=1e-12)
        assert subspace_angle(v.T, [[0.0, 0.0, 1.0]], TOL) < 1e-10

    def test_kernel_residual_and_orthonormality(self, rng):
        for _ in range(20):
            a = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            v, w = numerical_ker(a, TOL)
            basis = np.hstack([v, w])
            assert_allclose(basis.T @ basis, np.eye(a.shape[1]), atol=1e-12)
            if v.shape[1]:
                residual = np.linalg.norm(a @ v, axis=0)
                assert np.all(residual <= TOL * (1 + np.linalg.norm(a, 2)))


class TestSubspaceAngle:
    def test_identical_spans(self):
        assert subspace_angle([[1.0, 0.0]], [[2.0, 0.0]], TOL) == 0.0

    def test_orthogonal_lines(self):
        assert_allclose(subspace_angle([[1.0, 0.0]], [[0.0, 1.0]], TOL), np.pi / 2)

    @pytest.mark.parametrize(
        "theta",
        [1e-12, 1e-9, 1e-6, 0.5, np.pi / 4 - 1e-3, np.pi / 4 + 1e-3, 1.2, np.pi / 2],
    )
    def test_closed_form_angle(self, theta):
        # the two lines meet at theta, on both sides of the pi/4 switch
        # between the sine and the cosine formula
        got = subspace_angle(
            [[1.0, 0.0, 0.0]], [[np.cos(theta), np.sin(theta), 0.0]], TOL
        )
        assert_allclose(got, theta, rtol=1e-8)

    def test_rank_mismatch_takes_smaller_rank(self):
        # a plane against a line: one principal angle, that of the line
        # against its projection onto the plane
        theta = 0.3
        plane = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        line = [[np.cos(theta), 0.0, np.sin(theta)]]
        assert_allclose(subspace_angle(plane, line, TOL), theta, rtol=1e-8)
        assert_allclose(subspace_angle(line, plane, TOL), theta, rtol=1e-8)

    def test_tiny_angle_resolved(self):
        # exact angle is arctan(1e-8); must be resolved well below the
        # saturation floor of a cosine-only formula
        got = subspace_angle([[1.0, 0.0]], [[1.0, 1e-8]], TOL)
        assert_allclose(got, np.arctan(1e-8), rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            subspace_angle([[1.0, 0.0]], [[1.0, 0.0, 0.0]], TOL)

    def test_empty_subspace(self):
        with pytest.raises(EmptySubspace):
            subspace_angle(np.zeros((1, 2)), [[1.0, 0.0]], TOL)

    def test_self_angle_zero(self, rng):
        for _ in range(20):
            m = rng.standard_normal((3, 6))
            assert subspace_angle(m, m, TOL) < 1e-12

    def test_symmetric_when_ranks_equal(self, rng):
        for _ in range(10):
            m1 = rng.standard_normal((3, 6))
            m2 = rng.standard_normal((3, 6))
            a = subspace_angle(m1, m2, TOL)
            b = subspace_angle(m2, m1, TOL)
            assert_allclose(a, b, atol=1e-12)
            assert 0.0 <= a <= np.pi / 2


class TestEquilibrateRows:
    def test_unit_norms(self, rng):
        m = rng.standard_normal((4, 5)) * 100.0
        out = equilibrate_rows(m, TOL)
        assert_allclose(np.linalg.norm(out, axis=1), 1.0)

    def test_subtolerance_rows_dropped(self):
        m = np.array([[1.0, 0.0], [1e-9, 0.0]])
        out = equilibrate_rows(m, TOL)
        assert out.shape == (1, 2)

    def test_row_space_preserved(self, rng):
        m = rng.standard_normal((3, 5)) * np.array([[1e3], [1.0], [1e-3]])
        out = equilibrate_rows(m, TOL)
        assert subspace_angle(m, out, TOL) < 1e-12


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(lqreduce.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import lqreduce, sys; "
        "assert not any(m.startswith('scipy') for m in sys.modules)"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_exports_resolve_once():
    names = lqreduce.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(lqreduce, name)


def test_symplectic_matrix_properties():
    j = symplectic_matrix(3)
    assert_allclose(j @ j, -np.eye(6))
    assert_allclose(j.T, -j)
