import importlib
import inspect
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hypothesis import given, settings
from hypothesis import strategies as st

import lqreduce
from lqreduce import linalg
from lqreduce import (
    DimensionMismatch,
    EmptySubspace,
    NonConvergence,
    independent_rows,
    subspace_angle,
)
from lqreduce.linalg import (
    equilibrate_rows,
    extend_rows,
    numerical_ker,
    principal_angle,
    rank_tol,
    signed_swap,
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


class TestNegligible:
    def test_frobenius_norm_at_most_tol(self):
        assert linalg.negligible(np.diag([TOL, 0.0]), TOL)
        assert not linalg.negligible(np.diag([0.8, 0.8]) * TOL, TOL)
        assert linalg.negligible(np.zeros((0, 3)), TOL)

    def test_nan_and_overflowing_norms_are_not_negligible(self):
        assert not linalg.negligible(np.array([[np.nan, 0.0]]), TOL)
        assert not linalg.negligible(np.array([[1e200, 1e200]]), TOL)


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

    def test_finite_input_failing_twice_raises_nonconvergence(self, monkeypatch):
        # a finite matrix LAPACK cannot factor either way is a convergence
        # failure of the package's own, not a bare numpy error
        calls = []

        def failing(a, *args, **kwargs):
            calls.append(a.shape)
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(NonConvergence, match="did not converge"):
            linalg._svd(np.ones((2, 3)))
        assert calls == [(2, 3), (3, 2)]

    def test_non_finite_input_keeps_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError) as info:
            linalg._svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        assert not isinstance(info.value, NonConvergence)


class TestSvdOneRow:
    # _svd hands a single row to LAPACK like any other matrix; its degenerate
    # rows keep numpy's factors and errors, and the rank stays sigma > tol

    @staticmethod
    def lapack_calls(monkeypatch):
        real_svd = np.linalg.svd
        calls = []

        def recording(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        return calls

    def test_zero_row_takes_lapack(self, monkeypatch):
        calls = self.lapack_calls(monkeypatch)
        u, s, vt = linalg._svd(np.zeros((1, 3)), full_matrices=False)
        assert calls == [(1, 3)]
        assert s.tolist() == [0.0]
        assert_allclose(np.abs(u), [[1.0]])

    def test_nan_row_still_raises_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError) as info:
            linalg._svd(np.array([[np.nan, 1.0]]), full_matrices=False)
        assert not isinstance(info.value, NonConvergence)
        with pytest.raises(np.linalg.LinAlgError):
            linalg._svd(np.array([[np.nan]]), compute_uv=False)

    def test_overflowing_row_takes_lapack_without_warning(self, monkeypatch):
        # the sum of squares overflows to inf; LAPACK scales and factors it
        calls = self.lapack_calls(monkeypatch)
        _, s, vt = linalg._svd(np.array([[1e200, 1e200, 0.0]]), full_matrices=False)
        assert calls == [(1, 3)]
        assert np.isfinite(s[0])
        assert_allclose(s, [2 ** 0.5 * 1e200], rtol=1e-15)
        assert_allclose(np.abs(vt), [[2 ** -0.5, 2 ** -0.5, 0.0]], rtol=1e-15)

    def test_full_vt_of_a_wide_row_is_square(self, rng):
        row = rng.standard_normal((1, 5))
        u, s, vt = linalg._svd(row, full_matrices=True)
        assert [u.shape, s.shape, vt.shape] == [(1, 1), (1,), (5, 5)]
        assert_allclose(vt @ vt.T, np.eye(5), atol=1e-15)
        assert_allclose(u * s @ vt[:1], row, atol=1e-15)

    def test_rank_decision_stays_sigma_above_tol(self):
        assert linalg.rank_svd(np.array([[TOL, 0.0]]), TOL)[3] == 0
        assert linalg.rank_svd(np.array([[TOL * (1 + 1e-9), 0.0]]), TOL)[3] == 1


def orthonormality_error(basis):
    return np.abs(basis @ basis.T - np.eye(basis.shape[0])).max()


class TestRankSvd:
    @pytest.mark.parametrize("full_matrices", [False, True])
    def test_rank_and_factors(self, rng, full_matrices):
        m = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))
        u, s, vt, r = linalg.rank_svd(m, TOL, full_matrices=full_matrices)
        assert r == rank_tol(m, TOL) == 2
        assert u.shape == ((5, 5) if full_matrices else (5, 4))
        assert_allclose(u[:, :r] * s[:r] @ vt[:r], m, atol=1e-12)

    def test_threshold_is_strict(self):
        _, _, _, r = linalg.rank_svd(np.diag([1.0, TOL]), TOL)
        assert r == 1

    @pytest.mark.parametrize("full_matrices", [True, False])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (5, 2), (0, 4), (4, 0), (64, 9)])
    def test_rank_zero_factors_are_shared_and_read_only(self, shape, full_matrices):
        # a small negligible matrix allocates no array data: its identity
        # and zero factors are views of arrays shared by every call, and
        # nobody can write to them
        m = np.full(shape, 0.1 * TOL / max(1, np.prod(shape)))
        u, s, vt, r = linalg.rank_svd(m, TOL, full_matrices=full_matrices)
        assert r == 0
        ref = np.linalg.svd(np.zeros(shape), full_matrices=full_matrices)
        assert [u.shape, s.shape, vt.shape] == [x.shape for x in ref]
        assert np.array_equal(u, np.eye(*u.shape))
        assert np.array_equal(vt, np.eye(*vt.shape))
        assert np.array_equal(s, np.zeros(s.shape))
        for factor in (u, s, vt):
            assert not factor.flags.writeable
            with pytest.raises(ValueError):
                factor[...] = 1.0
        again = linalg.rank_svd(np.zeros(shape), TOL, full_matrices=full_matrices)
        for x, y in zip(again[:3], (u, s, vt)):
            assert x.base is not None and x.base is y.base

    @pytest.mark.parametrize("full_matrices", [True, False])
    def test_large_zero_matrix_gets_built_factors(self, full_matrices):
        u, s, vt, r = linalg.rank_svd(np.zeros((65, 3)), TOL, full_matrices=full_matrices)
        ref = np.linalg.svd(np.zeros((65, 3)), full_matrices=full_matrices)
        assert r == 0
        assert [u.shape, s.shape, vt.shape] == [x.shape for x in ref]
        assert np.array_equal(u, np.eye(*u.shape)) and np.array_equal(vt, np.eye(3))

    # rank_svd is the one seam for rank 0: on inputs at and around the
    # Frobenius shortcut it must be LAPACK's count with LAPACK's shapes, and
    # the routines built on it only slice what it returns

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        k=st.integers(0, 6),
        c=st.integers(0, 6),
        zero=st.booleans(),
        full_matrices=st.booleans(),
    )
    def test_seam_matches_lapack(self, seed, k, c, zero, full_matrices):
        # exactly zero, empty, or of Frobenius norm 0.5 tol to 2 tol
        rng = np.random.default_rng(seed)
        m = np.zeros((k, c))
        if not zero and m.size:
            q = int(rng.integers(1, min(k, c) + 1))
            m = rng.standard_normal((k, q)) @ rng.standard_normal((q, c))
            m *= rng.uniform(0.5, 2.0) * TOL / np.linalg.norm(m)
        calls = []
        real_svd = linalg._svd

        def recording(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_svd", recording)
            u, s, vt, r = linalg.rank_svd(m, TOL, full_matrices=full_matrices)
        ref = np.linalg.svd(m, full_matrices=full_matrices)
        assert [u.shape, s.shape, vt.shape] == [x.shape for x in ref]
        assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)
        assert_allclose(vt @ vt.T, np.eye(vt.shape[0]), atol=1e-12)
        assert r == int(np.count_nonzero(ref[1] > TOL))
        assert calls == ([] if linalg.negligible(m, TOL) else [(k, c)])
        v, w = numerical_ker(m, TOL)
        assert v.shape == (c, c - r) and w.shape == (c, r)
        basis = np.hstack([v, w])
        assert_allclose(basis.T @ basis, np.eye(c), atol=1e-12)
        assert independent_rows(m, TOL).shape == (r, c)


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

    def test_overflowing_row_extends_the_basis(self):
        # a constraint level of huge coefficients is a real level
        basis = np.array([[0.0, 0.0, 1.0]])
        out = extend_rows(basis, [[1e200, 1e200, 0.0]], TOL)
        assert out.shape == (2, 3)
        assert_allclose(np.abs(out[1]), [2 ** -0.5, 2 ** -0.5, 0.0], atol=1e-15)

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


# rows for the one-row path of extend_rows: a kind and the tolerance it is
# judged at.  Norms and residuals sit at least 1e-3 relative away from tol,
# where the two routes' roundings cannot decide differently
ONE_ROW_KINDS = {
    "unit": TOL,
    "above_tol": TOL,
    "below_tol": TOL,
    "nearly_dependent": TOL,
    "dependent": TOL,
    "huge": TOL,  # squares near 1e302: no overflow, one dot product
    "overflowing": TOL,  # squares overflow: the general route
    "small": 1e-100,  # squares near 1e-180: one dot product
    "subnormal_square": 1e-120,  # squares below 1e-200: the general route
}


def one_row(kind, rng, basis):
    c = basis.shape[1]
    unit = rng.standard_normal(c)
    unit /= np.linalg.norm(unit)
    perp = unit - (basis @ unit) @ basis
    perp /= np.linalg.norm(perp)
    in_span = rng.standard_normal(basis.shape[0]) @ basis
    return {
        "unit": unit,
        "above_tol": 1.001 * TOL * unit,
        "below_tol": 0.999 * TOL * unit,
        "nearly_dependent": in_span + 1e-4 * perp,
        "dependent": in_span + 1e-9 * perp,
        "huge": 1e151 * unit,
        "overflowing": 1e200 * unit,
        "small": 1e-90 * unit,
        "subnormal_square": 1e-110 * unit,
    }[kind]


class TestExtendOneRow:
    # a single row takes its own path through extend_rows; it must keep the
    # general route's rank, orthonormality and span

    @settings(derandomize=True, max_examples=90, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        k=st.integers(0, 6),
        extra=st.integers(1, 5),
        kind=st.sampled_from(sorted(ONE_ROW_KINDS)),
    )
    def test_matches_the_general_route(self, seed, k, extra, kind):
        rng = np.random.default_rng(seed)
        tol = ONE_ROW_KINDS[kind]
        basis = orthonormal_rows(rng, k, k + extra)
        row = one_row(kind, rng, basis)[None]
        calls = []
        real_svd = linalg._svd

        def recording(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_svd", recording)
            got = extend_rows(basis, row, tol)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_one_row_extension", lambda *args: None)
            want = extend_rows(basis, row, tol)
        # the one-row path factors nothing; the rows it hands on do not
        # reach it
        assert bool(calls) == (kind in ("overflowing", "subnormal_square"))
        assert got.shape == want.shape
        assert np.array_equal(got[:k], basis)
        if got.shape[0] > k:
            assert orthonormality_error(got) < 1e-12
            assert principal_angle(got[k:], want[k:]) <= 1e-12
        added = {"below_tol": 0, "dependent": 0}.get(kind, 1)
        assert got.shape[0] == k + added

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_row_raises(self, bad):
        with pytest.raises(NonConvergence, match="non-finite"):
            extend_rows(np.eye(3)[:1], [[1.0, bad, 0.0]], TOL)

    def test_writes_into_a_buffer(self, rng):
        # a buffer that holds the basis as its leading rows is appended to;
        # a basis held elsewhere is copied in first
        basis = np.ascontiguousarray(orthonormal_rows(rng, 3, 7))
        rows = rng.standard_normal((2, 7))
        for new in (rows[:1], rows):
            want = extend_rows(basis, new, TOL)
            buf = np.full((6, 7), np.nan)
            got = extend_rows(basis, new, TOL, out=buf)
            assert np.shares_memory(got, buf)
            assert np.array_equal(got, want)
            buf[:] = np.nan
            buf[:3] = basis
            held = buf[:3]
            got = extend_rows(held, new, TOL, out=buf)
            assert np.array_equal(got, want)
            assert np.array_equal(held, basis)


def orthonormal_rows(rng, k, c):
    return np.linalg.qr(rng.standard_normal((c, k)))[0].T


def with_singular_values(rng, sigma, c):
    """A len(sigma) x c matrix with exactly the singular values ``sigma``."""
    k = len(sigma)
    return orthonormal_rows(rng, k, k).T @ (np.asarray(sigma)[:, None] * orthonormal_rows(rng, k, c))


def svd_rule_basis(m, tol):
    """The plain route: right singular vectors for singular values > tol."""
    _, s, vt = np.linalg.svd(m, full_matrices=False)
    return vt[: int(np.count_nonzero(s > tol))]


def largest_sine(b1, b2):
    """Sine of the largest principal angle between equal-size orthonormal sets."""
    return float(np.linalg.norm(b2 - (b2 @ b1.T) @ b1, 2))


class TestRowSpaceBasis:
    # shapes below the QR crossover (an SVD of m), and at or above it (a QR
    # of m' and an SVD of the k x k triangle); a square one too
    SMALL = [(2, 5), (8, 30), (20, 50)]
    LARGE = [(32, 64), (40, 120), (64, 64), (90, 200)]

    @pytest.fixture
    def qr_calls(self, monkeypatch):
        calls = []
        real_qr = np.linalg.qr

        def recording(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real_qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recording)
        return calls

    def check_against_svd_rule(self, m, tol=TOL, span=True):
        got = linalg.row_space_basis(m, tol)
        ref = svd_rule_basis(m, tol)
        assert got.shape == ref.shape
        if got.shape[0]:
            assert orthonormality_error(got) < 1e-12
            if span:
                assert np.arcsin(min(largest_sine(ref, got), 1.0)) < 1e-12
        return got

    def test_crossover_sits_between_the_shapes(self):
        assert all(k * c < linalg._QR_MIN_ENTRIES for k, c in self.SMALL)
        assert all(k * c >= linalg._QR_MIN_ENTRIES for k, c in self.LARGE)

    @pytest.mark.parametrize("k, c", SMALL + LARGE)
    def test_full_rank(self, rng, qr_calls, k, c):
        got = self.check_against_svd_rule(rng.standard_normal((k, c)))
        assert got.shape == (k, c)
        assert qr_calls == ([(c, k)] if k * c >= linalg._QR_MIN_ENTRIES else [])

    @pytest.mark.parametrize("k, c", SMALL + LARGE)
    def test_rank_deficient(self, rng, k, c):
        r = max(1, k // 3)
        m = rng.standard_normal((k, r)) @ rng.standard_normal((r, c))
        m = m + 1e-12 * rng.standard_normal((k, c))
        assert self.check_against_svd_rule(m).shape == (r, c)

    @pytest.mark.parametrize("k, c", SMALL + LARGE)
    def test_graded_rows(self, rng, k, c):
        # kept rows graded over two decades, the rest near 1e-9: only the
        # graded ones survive
        kept = k - k // 4
        scale = np.concatenate([np.logspace(0, -2, kept), np.full(k - kept, 1e-9)])
        m = scale[:, None] * rng.standard_normal((k, c))
        assert self.check_against_svd_rule(m).shape == (kept, c)

    @pytest.mark.parametrize("k, c", [(20, 50), (40, 120), (64, 64)])
    def test_singular_values_at_the_threshold(self, rng, k, c):
        # sigma = tol (1 +- 1e-9) gets the rank the SVD rule gives; the
        # largest value is kept near tol so rounding stays far below the gap.
        # A gap of 2e-15 leaves the span of the kept vectors undetermined,
        # so only the rank and the orthonormality are compared
        q = k // 4
        sigma = np.concatenate([
            np.full(k - 3 * q, 10 * TOL), np.full(q, TOL * (1 + 1e-9)),
            np.full(q, TOL * (1 - 1e-9)), np.zeros(q),
        ])
        m = with_singular_values(rng, sigma, c)
        assert np.count_nonzero(np.linalg.svd(m, compute_uv=False) > TOL) == k - 2 * q
        assert self.check_against_svd_rule(m, span=False).shape == (k - 2 * q, c)

    def test_deficiency_hidden_from_the_diagonal(self, rng, monkeypatch):
        # m' = Q T with T unit upper triangular and -1 above the diagonal:
        # every |r_ii| is 1 but sigma_min is about 2^-k, so the values-only
        # count must see the lost rank and the vectors come from T
        k, c = 40, 100
        tri = np.eye(k) - np.triu(np.ones((k, k)), 1)
        m = (orthonormal_rows(rng, k, c).T @ tri).T
        real_svd = linalg._svd
        calls = []

        def recording(a, full_matrices=True, compute_uv=True):
            calls.append((np.shape(a), compute_uv))
            return real_svd(a, full_matrices=full_matrices, compute_uv=compute_uv)

        monkeypatch.setattr(linalg, "_svd", recording)
        assert self.check_against_svd_rule(m).shape == (k - 1, c)
        assert calls == [((k, k), False), ((k, k), True)]

    def test_full_rank_computes_no_singular_vector(self, rng, monkeypatch):
        real_svd = linalg._svd
        calls = []

        def recording(a, full_matrices=True, compute_uv=True):
            calls.append((np.shape(a), compute_uv))
            return real_svd(a, full_matrices=full_matrices, compute_uv=compute_uv)

        monkeypatch.setattr(linalg, "_svd", recording)
        linalg.row_space_basis(rng.standard_normal((40, 120)), TOL)
        assert calls == [((40, 40), False)]

    @pytest.mark.parametrize("shape", [(1, 4000), (200, 30), (46, 46)])
    def test_one_row_and_tall_inputs_keep_the_svd(self, rng, qr_calls, shape):
        # (46, 46) is square and above the crossover, so it takes the QR
        m = rng.standard_normal(shape)
        self.check_against_svd_rule(m)
        assert qr_calls == ([shape] if shape == (46, 46) else [])

    def test_negligible_input_is_not_factored(self, rng, monkeypatch):
        # ||m||_F <= tol bounds every singular value: rank 0 without a
        # factorization, as in rank_tol, for inputs the QR would take
        def no_factorization(*args, **kwargs):
            raise AssertionError("factored a matrix of Frobenius norm <= tol")

        monkeypatch.setattr(linalg, "_svd", no_factorization)
        monkeypatch.setattr(np.linalg, "qr", no_factorization)
        noise = rng.standard_normal((40, 120))
        for m in (np.zeros((40, 120)), np.zeros((0, 7)),
                  0.5 * TOL * noise / np.linalg.norm(noise)):
            assert linalg.row_space_basis(m, TOL).shape == (0, m.shape[1])

    def test_nan_input_raises(self):
        m = np.ones((40, 120))
        m[3, 5] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            linalg.row_space_basis(m, TOL)


def svd_route_angle(q1, q2):
    """principal_angle with its largest sine read from a values-only SVD."""
    if q1.shape[0] < q2.shape[0]:
        q1, q2 = q2, q1
    cosines = q2 @ q1.T
    sines = np.linalg.svd(q2 - cosines @ q1, compute_uv=False)
    if sines[0] ** 2 <= 0.5:
        return float(np.arcsin(sines[0]))
    return float(np.arccos(np.linalg.svd(cosines, compute_uv=False)[-1]))


class TestPrincipalAngle:
    @staticmethod
    def rotated_pair(rng, rows1, rows2, c, theta):
        # rows2 of the first set turned by angles up to theta, within planes
        # orthogonal to everything else
        frame = orthonormal_rows(rng, rows1 + rows2, c)
        q1, away = frame[:rows1], frame[rows1:]
        angles = theta * np.linspace(1.0, 0.5, rows2)
        q2 = np.cos(angles)[:, None] * q1[:rows2] + np.sin(angles)[:, None] * away
        return q1, q2

    @pytest.mark.parametrize(
        "theta", [1e-14, 1e-12, 1e-9, 1e-6, 1e-3, 0.3, 0.78, 0.79, 1.0, 1.5]
    )
    @pytest.mark.parametrize("rows1, rows2, c", [(1, 1, 3), (3, 3, 10), (6, 2, 40)])
    def test_equals_the_svd_route(self, rng, theta, rows1, rows2, c):
        q1, q2 = self.rotated_pair(rng, rows1, rows2, c, theta)
        for a, b in ((q1, q2), (q2, q1)):
            got = linalg.principal_angle(a, b)
            assert_allclose(got, svd_route_angle(a, b), rtol=1e-12, atol=0)
        if theta >= 1e-6:
            assert_allclose(got, theta, rtol=1e-8)

    def test_identical_sets_give_zero(self, rng):
        for q in (np.eye(4)[:2], np.eye(3)):
            assert linalg.principal_angle(q, q) == 0.0
        q = orthonormal_rows(rng, 5, 30)
        got = linalg.principal_angle(q, q)
        assert 0.0 <= got < 1e-14

    def test_rounding_below_zero_gives_zero(self, monkeypatch):
        # a Gram matrix of rounding noise may have a negative top eigenvalue
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: np.full(len(g), -1e-40))
        assert linalg.principal_angle(np.eye(3)[:2], np.eye(3)[:2]) == 0.0

    def test_uses_the_smaller_gram(self, rng, monkeypatch):
        shapes = []
        real_eigvalsh = np.linalg.eigvalsh

        def recording(g):
            shapes.append(np.shape(g))
            return real_eigvalsh(g)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        q1, q2 = self.rotated_pair(rng, 6, 2, 40, 0.1)
        linalg.principal_angle(q1, q2)
        linalg.principal_angle(q2, q1)
        assert shapes == [(2, 2), (2, 2)]


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

    def test_negligible_matrix_is_not_factored(self, monkeypatch, rng):
        # ||a||_F <= tol bounds every singular value, so the whole space is
        # the kernel without an SVD
        def no_svd(*args, **kwargs):
            raise AssertionError("factored a matrix of Frobenius norm <= tol")

        monkeypatch.setattr(linalg, "_svd", no_svd)
        noise = rng.standard_normal((4, 3))
        for a in (np.zeros((3, 3)), np.diag([TOL, 0.0]),
                  0.5 * TOL * noise / np.linalg.norm(noise)):
            v, w = numerical_ker(a, TOL)
            assert np.array_equal(v, np.eye(a.shape[1]))
            assert w.shape == (a.shape[1], 0)

    def test_norm_above_tol_is_factored(self, monkeypatch):
        # every singular value 0.8 tol: rank 0 all the same, from the SVD
        calls = []
        real_svd = linalg._svd

        def recording(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "_svd", recording)
        v, w = numerical_ker(np.diag([0.8, 0.8]) * TOL, TOL)
        assert calls == [(2, 2)]
        assert v.shape == (2, 2) and w.shape == (2, 0)

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

    def test_dimension_mismatch(self, monkeypatch):
        # raised before either argument is factored
        def no_svd(*args, **kwargs):
            raise AssertionError("factored a matrix of the wrong width")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
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

    def test_row_whose_squared_norm_overflows_is_kept(self):
        # the squared norm of (1e200, 1e200) overflows; divided by it
        # unscaled, the row would come out zero with a RuntimeWarning
        out = equilibrate_rows([[1e200, 1e200], [0.0, 0.0], [3e-300, 4e-300]], TOL)
        assert_allclose(out, [[2 ** -0.5, 2 ** -0.5]], rtol=1e-15)
        # the threshold is scaled with the row, so it still decides
        out = equilibrate_rows([[1e200, 1e200], [1e160, 0.0]], 1e170)
        assert out.shape == (1, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_raises(self, bad):
        # a NaN row fails the norm test, so it would vanish without a trace
        with pytest.raises(NonConvergence, match="non-finite"):
            equilibrate_rows([[1.0, 0.0], [bad, 1.0]], TOL)


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(lqreduce.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import lqreduce, sys; "
        "assert not any(m.startswith('scipy') for m in sys.modules)"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


# what a user of the reducer needs; internals are imported from their modules
PUBLIC_API = {
    "DEFAULT_TOL", "AsymmetricQ", "AsymmetricR", "DimensionMismatch",
    "EmptySubspace", "ExperimentRecord", "InitialMatrices", "InsufficientData",
    "InvalidShape", "InvalidTolerance", "LQProblem", "LQReduceError",
    "NonConvergence", "NonFiniteEntry", "OracleResult", "ReductionResult",
    "ValidationError", "compare_final_subspaces", "fit_loglog_slope",
    "gen_exp1", "gen_exp2", "gen_exp3", "independent_rows", "initial_matrices",
    "make_problem", "perturb", "pontryagin_hamiltonian", "recursive_reduce",
    "reduce", "run_sweep", "subspace_angle", "validate",
}
MODULE_LEVEL = {
    "reduction": ("StepState", "step"),
    "linalg": ("numerical_ker", "rank_tol", "equilibrate_rows", "extend_rows",
               "symplectic_matrix"),
    "constraints": ("apply_feedback_to_constraints", "strip_coisotropic"),
    "classify": ("split_first_second", "poisson_brackets"),
}


def test_exports_resolve_once():
    names = lqreduce.__all__
    assert len(names) == len(set(names))
    assert set(names) == PUBLIC_API
    for name in names:
        getattr(lqreduce, name)
    # the internals left out of the package's names stay public in their modules
    for module_name, attrs in MODULE_LEVEL.items():
        module = importlib.import_module(f"lqreduce.{module_name}")
        for attr in attrs:
            obj = getattr(module, attr)
            assert inspect.isfunction(obj) or inspect.isclass(obj)
            assert obj.__module__ == module.__name__
            assert attr not in names


def test_signed_swap_is_minus_rows_j(rng):
    for n in (1, 3):
        rows = rng.standard_normal((4, 2 * n))
        assert np.array_equal(signed_swap(rows), -(rows @ symplectic_matrix(n)))


def test_symplectic_matrix_properties():
    j = symplectic_matrix(3)
    assert_allclose(j @ j, -np.eye(6))
    assert_allclose(j.T, -j)
