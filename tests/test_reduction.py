import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lqreduce import (
    InvalidTolerance,
    LQProblem,
    NonConvergence,
    NonFiniteEntry,
    compare_final_subspaces,
    gen_exp1,
    gen_exp2,
    gen_exp3,
    initial_matrices,
    perturb,
    recursive_reduce,
    reduce,
    run_sweep,
    subspace_angle,
)
from lqreduce import classify, linalg, model, reduction
from lqreduce.classify import poisson_brackets, split_first_second
from lqreduce.constraints import (
    apply_feedback_to_constraints,
    strip_coisotropic,
    with_zero_order,
)
from lqreduce.linalg import extend_rows, principal_angle, rank_tol
from lqreduce.reduction import StepState, step
from conftest import (
    drift_blocks,
    max_orthonormality_error,
    random_problem,
    stacked_reconstruction,
    symplectic_matrix,
)
from test_structure_snapshot import SNAPSHOT, structure_cases

TOL = 1e-6

# a known limit, pinned so the suite fails once it is lifted
ABSOLUTE_TOL_LIMIT = pytest.mark.xfail(
    strict=True,
    reason="rank decisions use an absolute tolerance, so cost scaling past "
    "about 1e5 loses second-class pairs (ROADMAP item 4)",
)


def orthonormality_error(rows):
    return np.linalg.norm(rows @ rows.T - np.eye(rows.shape[0]))


def record_held_sets(monkeypatch):
    """A list that each later ``reduce`` appends its held sets to, in pass order.

    The seed's rows come first, then the set as each pass's extension left
    it: the sets that ``class_counts`` counts, one entry each.
    """
    held = []

    def seeded(m, tol):
        sr, rows = linalg.scaled_row_space(m, tol)
        held.append(rows.copy())
        return sr, rows

    def extended(basis, rows, tol, out=None):
        rows = extend_rows(basis, rows, tol, out=out)
        held.append(rows.copy())
        return rows

    monkeypatch.setattr(reduction, "scaled_row_space", seeded)
    monkeypatch.setattr(reduction, "extend_rows", extended)
    return held


def regular_1x1():
    return LQProblem(A=[[0.0]], B=[[1.0]], Q=[[1.0]], N=[[0.0]], R=[[1.0]])


def singular_1x1():
    return LQProblem(A=[[0.0]], B=[[1.0]], Q=[[1.0]], N=[[0.0]], R=[[0.0]])


def unfolded_state(a, q, z, s, rk, p_hess):
    """The state of the field G0 = [[A, 0], [Q, -A']], Z before any fold."""
    a, q, z = (np.asarray(x, dtype=float) for x in (a, q, z))
    n = a.shape[0]
    w = symplectic_matrix(n) @ z  # w = J Z, so J w = -Z
    return StepState(a=a, q=q, left=np.zeros((2 * n, 0)), right=np.zeros((0, 2 * n)),
                     w_jw=np.vstack([w, -z]), s=np.asarray(s, dtype=float),
                     rk=np.asarray(rk, dtype=float), p_hess=np.asarray(p_hess, dtype=float))


def dense_hess(state):
    """hess = hess0 + [K_1, F_1', ...] [F_1; K_1'; ...], formed densely."""
    a, q = state.a, state.q
    hess0 = np.block([[-q, a.T], [a, np.zeros_like(a)]])
    j = symplectic_matrix(a.shape[0])
    return hess0 - j @ state.left @ state.right


def dense_step(hess, w, p_hess, s, rk, tol):
    """The fold and the next level on a dense Hessian: the recurrence that
    ``step`` carries as the problem's blocks plus fold factors."""
    n = hess.shape[0] // 2
    j = symplectic_matrix(n)
    u, sig, vt, r = linalg.rank_svd(rk, tol, full_matrices=True)
    rows = s
    if r:
        v = vt.T
        feed = (u[:, :r].T @ s) / sig[:r, None]
        w1, w2 = (w @ v)[:, :r], (w @ v)[:, r:]
        p_rot = v.T @ p_hess @ v
        p11, p12 = p_rot[:r, :r], p_rot[:r, r:]
        hess = hess + w1 @ feed + feed.T @ w1.T + feed.T @ p11 @ feed
        hess = (hess + hess.T) / 2.0
        w = w2 + feed.T @ p12
        p_hess = (p_rot[r:, r:] + p_rot[r:, r:].T) / 2.0
        rows = u[:, r:].T @ s
    sf = -rows @ j
    return hess, w, p_hess, sf @ hess, -(sf @ w)


def relative_error(got, want, scale=None):
    """||got - want|| over ||want||, or over ``scale``: a level that
    cancels to near zero is judged against the size of its product's
    factors, where rounding enters."""
    scale = np.linalg.norm(want) if scale is None else scale
    return np.linalg.norm(got - want) / max(scale, 1e-300)


class TestStep:
    # the state holds the problem's A and Q, the fold factors and w = J Z
    # of a field (x; p)' = G (x; p) + Z u, with G0 = [[A, 0], [Q, -A']]
    def test_no_feedback_update(self):
        st = unfolded_state(a=[[0.0]], q=[[1.0]], z=[[1.0], [0.0]],
                            s=[[0.0, 1.0]], rk=[[0.0]], p_hess=np.zeros((1, 1)))
        new, feed, v_rot, r = step(st, TOL)
        assert r == 0
        assert feed.shape == (0, 2)
        assert_allclose(v_rot, np.eye(1))
        assert_allclose(new.s, [[1.0, 0.0]])   # S' = S G
        assert_allclose(new.rk, [[0.0]])       # R' = -S Z
        assert new.m_cur == 1
        assert new.left.shape == (2, 0) and new.right.shape == (0, 2)

    def test_full_rank_solves_all_controls(self, rng):
        st = unfolded_state(a=np.zeros((2, 2)), q=np.zeros((2, 2)),
                            z=rng.standard_normal((4, 2)), s=rng.standard_normal((2, 4)),
                            rk=np.eye(2), p_hess=-np.eye(2))
        new, feed, v_rot, r = step(st, TOL)
        assert r == 2
        assert new.m_cur == 0
        assert new.s.shape == (0, 4)
        assert feed.shape == (2, 4)
        # K and F' of the two solved controls
        assert new.left.shape == (4, 4) and new.right.shape == (4, 4)

    @pytest.mark.parametrize("r", [1, 3])
    def test_fold_matches_four_term_update(self, r, rng):
        # M' = M + W1 F + F'W1' + F'P11 F, symmetrized, is the fold's update;
        # P is given a small asymmetric part that both forms average out.
        # The state starts from an earlier fold of rank 2, so M is hess0
        # plus a rank-4 term, and the level is checked against sf M' too
        n, m = 5, 4
        a, q = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        k0, f0 = rng.standard_normal((2 * n, 2)), rng.standard_normal((2, 2 * n))
        p_hess = rng.standard_normal((m, m))
        st = dataclasses.replace(
            unfolded_state(a=a, q=q + q.T, z=rng.standard_normal((2 * n, m)),
                           s=rng.standard_normal((m, 2 * n)),
                           rk=rng.standard_normal((m, r)) @ rng.standard_normal((r, m)),
                           p_hess=p_hess + p_hess.T + 1e-3 * p_hess),
            left=symplectic_matrix(n) @ np.hstack([k0, f0.T]),
            right=np.vstack([f0, k0.T]),
        )
        new, feed, v_rot, got_r = step(st, TOL)
        assert got_r == r
        assert new.left.shape == (2 * n, 4 + 2 * r) and new.right.shape == (4 + 2 * r, 2 * n)
        hess, w, p_new, s_new, rk_new = dense_step(
            dense_hess(st), st.w_jw[:2 * n], st.p_hess, st.s, st.rk, TOL)
        assert relative_error(dense_hess(new), hess) <= 1e-13
        assert relative_error(new.w_jw, np.vstack([w, symplectic_matrix(n) @ w])) <= 1e-13
        assert np.array_equal(new.p_hess, p_new)
        assert relative_error(new.s, s_new) <= 1e-13
        assert relative_error(new.rk, rk_new) <= 1e-13

    def test_partial_rank_splits(self):
        st = unfolded_state(a=np.zeros((2, 2)), q=np.zeros((2, 2)), z=np.zeros((4, 2)),
                            s=[[1.0, 0, 0, 0], [0, 1.0, 0, 0]], rk=np.diag([1.0, 0.0]),
                            p_hess=np.zeros((2, 2)))
        new, feed, v_rot, r = step(st, TOL)
        assert r == 1
        assert new.m_cur == 1
        assert feed.shape == (1, 4)
        assert new.s.shape == (1, 4)  # one reduced constraint row emitted


class TestDenseRecurrence:
    # reduce carries hess = hess0 + sum K F + F'K' as the problem's blocks
    # plus fold factors; a dense recurrence from hess0 along the same rank
    # decisions gives the same levels and the same reduced drift
    @staticmethod
    def problems(rng):
        yield perturb(gen_exp1(24, 9, 6, seed=2), 1e-10, seed=2)
        yield perturb(gen_exp2(12), 1e-10, seed=1)
        yield perturb(gen_exp3(10), 1e-10, seed=1, preserve_structure=True)
        for _ in range(10):
            yield random_problem(rng, 6, 3, singular_r=True)

    def test_levels_and_exit_blocks_match_the_dense_recurrence(self, monkeypatch, rng):
        folds = 0
        for prob in self.problems(rng):
            pairs = []
            real_step = reduction.step

            def spy(state, tol):
                out = real_step(state, tol)
                pairs.append((state, out[0]))
                return out

            monkeypatch.setattr(reduction, "step", spy)
            res = reduce(prob, TOL)
            monkeypatch.undo()
            g0, z0 = drift_blocks(prob)
            j = symplectic_matrix(prob.n)
            hess, w, p_hess = j @ g0, j @ z0, -prob.R
            kept = [hess]
            for before, after in pairs:
                hess, w, p_hess, s, rk = dense_step(hess, w, p_hess, before.s, before.rk, TOL)
                kept.append(hess)
                folds += after.m_cur < before.m_cur
                size = np.linalg.norm(before.s)
                assert relative_error(after.s, s, size * np.linalg.norm(hess)) <= 1e-13
                assert relative_error(after.rk, rk, size * np.linalg.norm(w)) <= 1e-13
                assert relative_error(after.w_jw, np.vstack([w, j @ w])) <= 1e-13
            # reduce keeps the state of every step it counts, one per
            # feedback rank; a last step that found nothing is dropped
            g = -j @ kept[len(res.feedback_ranks)]
            blocks = np.block([[res.ax, res.ap], [res.qx, res.qp]])
            assert relative_error(blocks, g) <= 1e-13
        assert folds > 10


class TestMemory:
    def test_peak_is_the_result_blocks(self):
        # no 2n x 2n array: on family 2, which folds one control, the
        # traced peak is the four n x n drift blocks of the result plus
        # thin factors (a dense Hessian and its update made it 2.5 times)
        prob = perturb(gen_exp2(300), 1e-10, seed=1)
        tracemalloc.start()
        try:
            res = reduce(prob, TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        blocks = sum(getattr(res, name).nbytes for name in ("ax", "ap", "qx", "qp"))
        assert blocks == 4 * 300 * 300 * 8
        assert peak <= 1.25 * blocks


class TestPassCost:
    def test_errstate_is_entered_once_a_run(self, monkeypatch):
        # the loop enters the floating-point error state once, not once a
        # pass: a chain twice as long enters it as often
        entries = []
        real = np.errstate

        def counting(*args, **kwargs):
            entries.append(kwargs)
            return real(*args, **kwargs)

        counts = []
        for n in (20, 40):
            problem = gen_exp3(n)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(np, "errstate", counting)
                del entries[:]
                assert reduce(problem, TOL).index_k == n
            counts.append(len(entries))
        assert counts[0] == counts[1]


class TestStepRankZero:
    # rank_svd decides a negligible rk from its norm, without the SVD, and
    # the pass is the SVD route's r = 0 pass byte for byte

    @staticmethod
    def states(rng):
        # the state every pass of some real chains starts from
        seen = []
        real_step = reduction.step

        def spy(state, tol):
            seen.append(state)
            return real_step(state, tol)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reduction, "step", spy)
            reduce(perturb(gen_exp3(12), 1e-10, seed=1, preserve_structure=True), TOL)
            reduce(perturb(gen_exp2(8), 1e-10, seed=1), TOL)
            for _ in range(10):
                reduce(random_problem(rng, 5, 3, singular_r=True), TOL)
        return seen

    def test_negligible_rk_matches_the_svd_route(self, monkeypatch, rng):
        states = [st for st in self.states(rng) if linalg.negligible(st.rk, TOL)]
        assert len(states) > 10
        calls = []
        real_svd = linalg._svd

        def recording(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "_svd", recording)
        for st in states:
            del calls[:]
            lean = step(st, TOL)
            assert calls == []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(linalg, "negligible", lambda m, tol: False)
                svd = step(st, TOL)
            assert len(calls) == 1
            assert lean[3] == svd[3] == 0
            for field in ("a", "q", "left", "right", "w_jw", "s", "rk", "p_hess"):
                a, b = getattr(lean[0], field), getattr(svd[0], field)
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert lean[1].shape == svd[1].shape == (0, st.s.shape[1])
            assert np.array_equal(lean[2], svd[2])

    def test_rk_just_above_tol_is_factored(self, monkeypatch):
        calls = []
        real_svd = linalg._svd

        def recording(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "_svd", recording)
        # ||rk||_F = 1.13 tol with both singular values 0.8 tol: factored,
        # and of rank 0; one singular value just above tol: rank 1
        for rk, want in ((np.diag([0.8, 0.8]) * TOL, 0), (np.diag([1.001, 0.0]) * TOL, 1)):
            st = unfolded_state(a=np.zeros((2, 2)), q=np.zeros((2, 2)), z=np.ones((4, 2)),
                                s=np.eye(2, 4), rk=rk, p_hess=np.zeros((2, 2)))
            del calls[:]
            assert step(st, TOL)[3] == want
            assert calls == [(2, 2)]


class TestReduceRegular:
    def test_minimal_regular(self):
        res = reduce(regular_1x1(), TOL)
        assert res.index_k == 1
        assert res.m_res == 0
        assert res.rp == 0
        assert res.phi_first.shape[0] == 0
        assert res.phi_second.shape[0] == 0
        assert res.bu.shape == (1, 0)
        assert_allclose(res.feedback_law(), [[0.0, 1.0]])  # u = p

    def test_closed_form_on_random_problems(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            prob = random_problem(rng, n, m, spd_r=True)
            res = reduce(prob, TOL)
            assert res.index_k == 1 and res.m_res == 0
            zeta = rng.standard_normal(2 * n)
            expected = np.linalg.solve(
                prob.R, prob.B.T @ zeta[n:] - prob.N.T @ zeta[:n]
            )
            got = res.feedback_law() @ zeta
            err = np.linalg.norm(got - expected) / (1 + np.linalg.norm(expected))
            assert err < 1e-10


class TestReduceSingular:
    def test_hand_iterated_1x1(self):
        res = reduce(singular_1x1(), TOL)
        assert res.index_k == 3
        assert res.m_res == 0
        # final constraints span {x, p}; the solved control is u = 0
        assert subspace_angle(
            res.final_constraints(), np.eye(2), TOL
        ) < 1e-10
        assert_allclose(res.feedtot, np.zeros((1, 2)), atol=1e-12)
        assert_allclose(np.abs(res.feedsel), [[1.0]])
        # reconstructed (x, p, u) subspace is all of R^3
        assert subspace_angle(
            res.final_constraints_original_controls(), np.eye(3), TOL
        ) < 1e-10

    def test_counts_monotone_until_termination(self, rng):
        for _ in range(25):
            prob = random_problem(
                rng, int(rng.integers(2, 6)), int(rng.integers(1, 4)), singular_r=True
            )
            res = reduce(prob, TOL)
            counts = res.constraint_counts
            diffs = np.diff(counts)
            assert np.all(diffs >= 0)
            assert np.all(diffs[:-1] > 0)

    def test_second_class_count_monotone_between_feedbacks(self, rng):
        # a feedback fold may consume solved second-class pairs, but the
        # classification itself never demotes one: on fold-free passes the
        # second-class count cannot drop
        for _ in range(25):
            prob = random_problem(
                rng, int(rng.integers(2, 6)), int(rng.integers(1, 4)), singular_r=True
            )
            res = reduce(prob, TOL)
            seconds = [c[1] for c in res.class_counts]
            for i, r in enumerate(res.feedback_ranks[: len(seconds) - 1]):
                if r == 0:
                    assert seconds[i + 1] >= seconds[i]

    def test_hamiltonian_invariant(self, rng):
        # the reduced field is Hamiltonian: J G is symmetric
        for _ in range(25):
            prob = random_problem(
                rng, int(rng.integers(2, 6)), int(rng.integers(1, 4)), singular_r=True
            )
            res = reduce(prob, TOL)
            g = np.block([[res.ax, res.ap], [res.qx, res.qp]])
            jg = symplectic_matrix(prob.n) @ g
            assert np.linalg.norm(jg - jg.T) <= 1e-10 * (1 + np.linalg.norm(g))

    @pytest.mark.parametrize(
        "base", [lambda: gen_exp1(160, 80, 40), lambda: gen_exp2(640)],
        ids=["family1", "family2"],
    )
    def test_large_folded_field_is_hamiltonian(self, base):
        # the folds leave J G symmetric to rounding on large problems
        prob = perturb(base(), 1e-10, seed=0)
        res = reduce(prob, TOL)
        assert sum(res.feedback_ranks) > 0
        g = np.block([[res.ax, res.ap], [res.qx, res.qp]])
        jg = symplectic_matrix(prob.n) @ g
        assert np.linalg.norm(jg - jg.T) <= 1e-13 * (1 + np.linalg.norm(g))

    def test_original_control_rows_are_orthonormal(self, rng):
        problems = [
            random_problem(rng, 4, 3, singular_r=True),
            perturb(gen_exp1(24, 9, 6), 1e-8, seed=3),
            perturb(gen_exp2(30), 1e-10, seed=0),
            perturb(gen_exp3(40), 1e-10, seed=0, preserve_structure=True),
        ]
        for prob in problems:
            rows = reduce(prob, TOL).final_constraints_original_controls()
            assert rows.shape[0] > 0
            assert orthonormality_error(rows) <= 1e-12

    @pytest.mark.parametrize(
        "draw",
        [
            lambda: perturb(gen_exp3(120), 1e-10, seed=1731038949, preserve_structure=True),
            lambda: perturb(gen_exp1(160, 80, 40, seed=1), 1e-10, seed=18114953),
        ],
        ids=["family3", "family1"],
    )
    def test_reconstruction_by_extension_matches_the_stack(self, draw, monkeypatch):
        # the benchmark's first draws of its two workloads at seed 1.  The
        # stripped sets are orthonormal, and the reconstruction, built from
        # them by extension, has the stacked reference's rows and span; no
        # QR spans its whole stack (the chain's set is not factored at all)
        res = reduce(draw(), TOL)
        assert max_orthonormality_error(res.phi_first) <= 1e-13
        assert max_orthonormality_error(res.phi_second) <= 1e-13
        ref = stacked_reconstruction(res)
        real_qr, qrs = np.linalg.qr, []

        def recording_qr(a, *args, **kwargs):
            qrs.append(np.shape(a))
            return real_qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        rows = res.final_constraints_original_controls()
        assert rows.shape == ref.shape
        assert principal_angle(rows, ref) <= 1e-12
        parts = [res.phi_second.shape[0], res.feedtot.shape[0]] if res.rp else []
        assert [cols for _, cols in qrs] == parts

    def test_feedback_completeness(self, rng):
        # solved combination directions plus residual selectors span R^m
        for _ in range(25):
            m = int(rng.integers(1, 4))
            prob = random_problem(rng, int(rng.integers(2, 6)), m, singular_r=True)
            res = reduce(prob, TOL)
            basis = np.vstack([res.feedsel, res.nofeed])
            assert rank_tol(basis, TOL) == m
            assert_allclose(basis @ basis.T, np.eye(m), atol=1e-10)

    def test_residual_controls_match_oracle(self, rng):
        # structural cross-check: the reference algorithm's final rows leave
        # exactly the residual controls free that the reduction reports
        for _ in range(25):
            m = int(rng.integers(1, 4))
            prob = random_problem(rng, int(rng.integers(2, 6)), m, singular_r=True)
            assert recursive_reduce(prob, TOL).m_res == reduce(prob, TOL).m_res

    def test_perturbed_family1_takes_no_extra_pass(self):
        # a perturbation at 1e-10 once made this draw take spurious passes
        # with odd second-class counts
        res = reduce(perturb(gen_exp1(160, 80, 40, seed=1), 1e-10, seed=100), TOL)
        assert (res.index_k, res.m_res, res.rp) == (3, 40, 80)
        assert all(second % 2 == 0 for _, second in res.class_counts)
        assert res.rp == res.phi_second.shape[0]

    def test_svd_retry_keeps_family1_structure(self):
        # gesdd failed to converge on a 32 x 112 matrix of this draw's
        # coisotropic strip once the set was kept as an orthonormal basis
        res = reduce(perturb(gen_exp1(40, 16, 8, seed=1), 0, seed=101), TOL)
        assert (res.index_k, res.m_res, res.rp) == (3, 16, 16)

    def test_each_pass_factors_only_the_new_level(self, monkeypatch):
        # family 3 adds one row per pass and solves no control.  A reduction
        # that re-factors its constraint stack factors many-row inputs with
        # 2n + 2 columns; one that extends a row basis decides each new row
        # and each rank-0 rk from norms, so it factors nothing per pass and
        # its factorization count does not grow with n.  Recorded at the
        # package's factorization seam, _svd, through which every SVD goes
        real_svd = linalg._svd
        shapes = []

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "_svd", recording)
        factored = {}
        for n in (20, 40):
            del shapes[:]
            res = reduce(gen_exp3(n), TOL)
            assert res.index_k == n
            factored[n] = len(shapes)
            assert [s for s in shapes if s[0] >= 2 and s[1] == 2 * n + 2] == []
        assert 0 < factored[20] == factored[40]

    def test_family1_factors_each_matrix_once_at_its_rank_size(self, monkeypatch):
        # a factorization ledger of a family 1 problem whose primary stack
        # (32 x 96) is large enough for the QR route.  The seed stack is
        # factored once, by a QR of its transpose; the strip decides on the
        # k x q block that combines the q held rows; the split's SVD decides
        # the last count too; and no factorization or bracket product spans
        # the 2n + 2 m_cur columns of the set with its zero-order rows
        prob = gen_exp1(32, 12, 8)
        n, m = prob.n, prob.m
        stack = np.hstack([initial_matrices(prob).s1, -prob.R])
        assert stack.size >= linalg._QR_MIN_ENTRIES
        real_svd, real_qr = np.linalg.svd, np.linalg.qr
        real_strip = reduction.strip_coisotropic
        real_brackets = classify.poisson_brackets
        svds, qrs, strip_svds, bracket_widths = [], [], [], []
        stripping = []

        def svd(a, *args, **kwargs):
            (strip_svds if stripping else svds).append(np.array(a))
            return real_svd(a, *args, **kwargs)

        def qr(a, *args, **kwargs):
            qrs.append(np.array(a))
            return real_qr(a, *args, **kwargs)

        def strip(*args):
            stripping.append(True)
            try:
                return real_strip(*args)
            finally:
                stripping.pop()

        def brackets(rows, n):
            bracket_widths.append(rows.shape[1])
            return real_brackets(rows, n)

        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(np.linalg, "qr", qr)
        monkeypatch.setattr(reduction, "strip_coisotropic", strip)
        monkeypatch.setattr(classify, "poisson_brackets", brackets)
        res = reduce(prob, TOL)
        assert (res.index_k, res.m_res, res.feedback_ranks) == (3, 12, (12, 0, 8))

        def same(a, b):
            return a.shape == b.shape and np.array_equal(a, b)

        factored = svds + strip_svds + qrs
        assert [same(a, stack.T) for a in qrs].count(True) == 1
        assert not any(same(a, stack) or same(a, stack.T) for a in svds + strip_svds)
        final = res.phi_first_ext.shape[0] + res.phi_second_ext.shape[0]
        held = final - res.m_res
        assert strip_svds and all(a.shape[1] <= held for a in strip_svds)
        last = [a for a in svds if a.shape == (final, final) and np.array_equal(a, -a.T)]
        assert len(last) == 1
        m_cur = [m - sum(res.feedback_ranks[:i]) for i in range(len(res.feedback_ranks) + 1)]
        extended = {2 * n + 2 * k for k in m_cur}
        assert not any(set(a.shape) & extended for a in factored)
        assert bracket_widths and set(bracket_widths) == {2 * n}

    @pytest.mark.parametrize(
        "base, qr_route, pinned",
        [
            (gen_exp1(32, 12, 8), True, (3, 12, 16, (63, 71, 79, 79),
                                         ((39, 24), (31, 16), (23, 32), (23, 16)), (12, 0, 8))),
            (gen_exp1(8, 3, 2), False, (3, 3, 4, (15, 17, 19, 19),
                                        ((9, 6), (7, 4), (5, 8), (5, 4)), (3, 0, 2))),
        ],
        ids=["qr-route", "svd-route"],
    )
    def test_rank_deficient_seed(self, base, qr_route, pinned):
        # the last control duplicates the first in B, N and R, so the
        # primary stack [S1, -R] has rank m - 1: the seed for step is then
        # Sigma-weighted rows from the factorization that gives the basis,
        # on the QR route (a stack of at least 2048 entries) and below it
        b, nm, r = base.B.copy(), base.N.copy(), base.R.copy()
        b[:, -1], nm[:, -1] = b[:, 0], nm[:, 0]
        r[-1, :] = r[0, :]
        r[:, -1] = r[:, 0]
        prob = LQProblem(A=base.A, B=b, Q=base.Q, N=nm, R=r)
        stack = np.hstack([initial_matrices(prob).s1, -prob.R])
        assert rank_tol(stack, TOL) == prob.m - 1
        assert (stack.size >= linalg._QR_MIN_ENTRIES) == qr_route
        res = reduce(prob, TOL)
        oracle = recursive_reduce(prob, TOL)
        assert res.m_res == oracle.m_res
        assert compare_final_subspaces(oracle, res) <= 1e-10
        assert (res.index_k, res.m_res, res.rp, res.constraint_counts,
                res.class_counts, res.feedback_ranks) == pinned

    def test_bracket_matrix_built_once_per_fold(self, monkeypatch):
        # a segment's bracket matrix is built once, where it is counted: at
        # the fold that ends it and at the exit.  Family 3 solves no control
        # and its brackets vanish, so its only matrix is the exit's, and
        # rank 0 leaves nothing to factor at the split: no square
        # factorization has more than 2 rows
        real_svd = linalg._svd
        real_brackets = classify.poisson_brackets
        square, built = [], []

        def recording_svd(a, *args, **kwargs):
            rows, cols = np.shape(a)
            if rows == cols > 2:
                square.append(rows)
            return real_svd(a, *args, **kwargs)

        def recording_brackets(rows, n):
            built.append(rows.shape[0])
            return real_brackets(rows, n)

        monkeypatch.setattr(linalg, "_svd", recording_svd)
        monkeypatch.setattr(classify, "poisson_brackets", recording_brackets)
        res = reduce(perturb(gen_exp3(40), 1e-10, seed=0, preserve_structure=True), TOL)
        assert res.index_k == 40
        assert len(built) == 1
        assert res.rp == 0
        assert square == []
        # folds at passes 1 and 3
        built.clear()
        res = reduce(gen_exp1(24, 9, 6), TOL)
        assert res.feedback_ranks == (9, 0, 6)
        assert len(built) == 1 + sum(r > 0 for r in res.feedback_ranks)

    def test_carried_bracket_matrix_is_the_fresh_one(self, monkeypatch, rng):
        # each matrix that reduce builds is that of the set it counts, the
        # implied zero-order rows first: at a fold, the set the fold takes,
        # the last one held; at the exit, the final set.  One is built per
        # fold and one at the exit
        held = record_held_sets(monkeypatch)
        built = []

        def recording(rows, n):
            poi = classify.bracket_matrix(rows, n)
            built.append((rows.copy(), n, poi))
            return poi

        monkeypatch.setattr(reduction, "bracket_matrix", recording)
        problems = [gen_exp1(24, 9, 6)]
        problems += [
            random_problem(
                rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)), singular_r=True
            )
            for _ in range(25)
        ]
        problems.append(perturb(gen_exp3(25), 1e-10, seed=0, preserve_structure=True))
        for prob in problems:
            held.clear()
            built.clear()
            res = reduce(prob, TOL)
            folds = [i for i, r in enumerate(res.feedback_ranks) if r > 0]
            assert len(built) == len(folds) + 1
            for i, (rows, *_) in zip(folds, built):
                assert np.array_equal(rows, held[i])
            if len(res.feedback_ranks) < len(res.class_counts):
                # the exit did not fold: the split takes the last set held
                assert np.array_equal(built[-1][0], held[-1])
            for rows, n, poi in built:
                fresh = poisson_brackets(with_zero_order(rows, n), n)
                bound = 1e-13 * max(1.0, np.linalg.norm(fresh))
                assert np.linalg.norm(poi - fresh) <= bound

    def test_fold_factors_no_zero_order_row(self, monkeypatch):
        # the zero-order rows v = 0 are implied, not held: the fold gets the
        # count's q rows less the m_cur zero-order ones, and the fold and
        # every bracket build get rows over (x, p, u) alone
        folded, built = [], []

        def recording_fold(rows, n, v_rot, feed, r, tol):
            folded.append(rows.shape)
            return apply_feedback_to_constraints(rows, n, v_rot, feed, r, tol)

        def recording_brackets(rows, n):
            built.append(rows.shape[1])
            return classify.bracket_matrix(rows, n)

        monkeypatch.setattr(reduction, "apply_feedback_to_constraints", recording_fold)
        monkeypatch.setattr(reduction, "bracket_matrix", recording_brackets)
        prob = gen_exp1(24, 9, 6)
        res = reduce(prob, TOL)
        ranks = res.feedback_ranks
        assert ranks == (9, 0, 6)
        m_cur = [prob.m - sum(ranks[:i]) for i in range(len(ranks) + 1)]
        folds = [i for i, r in enumerate(ranks) if r > 0]
        assert folded == [
            (res.constraint_counts[i] - 2 * (prob.m - m_cur[i]) - m_cur[i],
             2 * prob.n + m_cur[i])
            for i in folds
        ]
        # one build at each fold, before it, and one at the exit
        assert built == [2 * prob.n + m_cur[i] for i in folds + [len(ranks)]]

    def test_split_sets_span_every_zero_order_direction(self, rng):
        # the zero-order rows are added back once, before the split, so the
        # final sets over (x, p, u_res, v_res) contain every e_v direction
        problems = []
        for i in range(25):
            p = random_problem(
                rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)), singular_r=True
            )
            if i % 2:
                # the last control enters neither B, N nor R: a gauge control
                b, nm = p.B.copy(), p.N.copy()
                b[:, -1] = nm[:, -1] = 0.0
                p = LQProblem(A=p.A, B=b, Q=p.Q, N=nm, R=p.R)
            problems.append(p)
        problems += [
            perturb(gen_exp1(16, 6, 4, seed=1), 1e-10, seed=1),
            gen_exp2(12),
            perturb(gen_exp3(10), 1e-10, seed=1, preserve_structure=True),
            perturb(gen_exp1(8, 3, 2), 1e-6, seed=25),  # fold exit
        ]
        checked = 0
        for prob in problems:
            res = reduce(prob, TOL)
            if res.m_res == 0:
                continue
            width = 2 * prob.n + 2 * res.m_res
            e_v = np.eye(width)[width - res.m_res :]
            final = np.vstack([res.phi_first_ext, res.phi_second_ext])
            assert principal_angle(e_v, final) <= 1e-12
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize(
        "prob, last_pass_folds",
        [
            (gen_exp1(24, 9, 6), False),
            (perturb(gen_exp1(8, 3, 2), 1e-6, seed=25), True),
        ],
        ids=["folds-inside", "fold-exit"],
    )
    def test_split_rebuilds_brackets_only_after_a_last_fold(
        self, monkeypatch, prob, last_pass_folds
    ):
        # each fold costs one build of the bracket matrix, from the rows it
        # takes, and the split one more, from the final set: after a fold
        # exit (no count follows the fold) that is the folded set
        built = []
        real_brackets = classify.poisson_brackets

        def recording_brackets(rows, n):
            built.append(rows.shape[0])
            return real_brackets(rows, n)

        monkeypatch.setattr(classify, "poisson_brackets", recording_brackets)
        res = reduce(prob, TOL)
        folds = sum(r > 0 for r in res.feedback_ranks)
        # a fold exit adds a feedback rank without a class count
        assert (len(res.feedback_ranks) == len(res.class_counts)) == last_pass_folds
        assert len(built) == 1 + folds
        if last_pass_folds:
            assert built[-1] == res.phi_first_ext.shape[0] + res.phi_second_ext.shape[0]

    def test_overflowing_level_raises(self):
        # reduce differentiates its levels at the data's scale: with a drift
        # entry of 1e200 the third level's coefficients reach about 1e400
        prob = LQProblem(
            A=np.diag([1e200, 1.0]), B=[[1.0], [1.0]], Q=np.eye(2),
            N=[[0.0], [0.0]], R=[[0.0]],
        )
        with pytest.raises(NonConvergence, match="non-finite"):
            reduce(prob, TOL)
        # at 1e100 the same chain is representable: the secondary level
        # x1 + x2 - 1e100 p1 - p2 = 0 is kept and solves the control
        prob = LQProblem(
            A=np.diag([1e100, 1.0]), B=[[1.0], [1.0]], Q=np.eye(2),
            N=[[0.0], [0.0]], R=[[0.0]],
        )
        res = reduce(prob, TOL)
        assert (res.index_k, res.m_res, res.constraint_counts) == (2, 0, (2, 3, 3))

    def test_falling_count_raises(self, monkeypatch):
        # a pass that loses a row the set already held breaks the invariant
        # the stopping rule relies on; it must not exit as a flat count
        monkeypatch.setattr(reduction, "extend_rows", lambda basis, rows, tol, out=None: basis[:-1])
        with pytest.raises(NonConvergence, match="fell"):
            reduce(gen_exp3(4), TOL)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pass0_classified_like_later_passes(self, seed):
        # every pass classifies an orthonormal basis, pass 0 included; on
        # brackets of primary rows at their data scale a perturbation at the
        # tolerance moved this draw's pass-0 split away from the exact one
        exact = reduce(gen_exp1(24, 9, 7, seed=seed), TOL)
        assert exact.class_counts[0] == (30, 18)
        res = reduce(perturb(gen_exp1(24, 9, 7, seed=seed), 1e-6, seed=seed), TOL)
        assert res.class_counts[0] == exact.class_counts[0]

    def test_constraint_set_orthonormal_from_seed_to_split(self, monkeypatch, rng):
        # reduce hands extend_rows its constraint set as it holds it, with no
        # re-normalization, so the set must be an orthonormal basis at every
        # pass: after the seed, after each fold and after each extension
        bases = []

        def recording(basis, rows, tol, out=None):
            bases.append(basis)
            return extend_rows(basis, rows, tol, out=out)

        monkeypatch.setattr(reduction, "extend_rows", recording)
        problems = [
            random_problem(
                rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)), singular_r=True
            )
            for _ in range(25)
        ]
        problems += [gen_exp1(16, 6, 4, seed=1), gen_exp2(12), gen_exp3(10)]
        problems.append(perturb(gen_exp1(8, 3, 2), 1e-6, seed=25))  # fold exit
        for prob in problems:
            res = reduce(prob, TOL)
            for phi in (res.phi_first_ext, res.phi_second_ext):
                assert orthonormality_error(phi) <= 1e-12
        assert len(bases) > len(problems)
        assert max(orthonormality_error(basis) for basis in bases) <= 1e-12

    def test_reduced_field_blocks_consistent(self, rng):
        prob = random_problem(rng, 4, 2, singular_r=True)
        res = reduce(prob, TOL)
        n = prob.n
        g = np.block([[res.ax, res.ap], [res.qx, res.qp]])
        j = symplectic_matrix(n)
        jg = j @ g
        assert np.linalg.norm(jg - jg.T) <= 1e-10 * (1 + np.linalg.norm(g))
        assert res.bu.shape == (n, res.m_res)
        assert res.nu.shape == (n, res.m_res)

    def test_flat_count_fold_exit(self):
        # this draw's count stays flat while a control is still solvable:
        # the loop folds that feedback in and exits without a new level, so
        # the final class split must be taken on the folded set
        res = reduce(perturb(gen_exp1(8, 3, 2), 1e-6, seed=25), TOL)
        assert res.feedback_ranks == (3, 2, 2, 1)
        assert len(res.feedback_ranks) == len(res.class_counts) == 4
        assert res.m_res == 0
        rows = np.vstack([res.phi_first_ext, res.phi_second_ext])
        poi = poisson_brackets(rows, res.n)
        assert res.rp == res.phi_second.shape[0] == rank_tol(poi, TOL)
        assert res.rp % 2 == 0

    @pytest.mark.parametrize(
        "scale",
        [1e-3, 1.0, 1e3, 1e5]
        + [pytest.param(s, marks=ABSOLUTE_TOL_LIMIT) for s in (1e6, 1e7, 1e9)],
    )
    def test_cost_scaling_keeps_structure(self, scale):
        # scaling Q, N and R by s scales the cost, not its structure; the
        # reducer gives (3, 3, 2), (3, 3, 0), (4, 0, 0) at s = 1e6, 1e7, 1e9
        p = gen_exp1(8, 3, 2)
        prob = LQProblem(A=p.A, B=p.B, Q=scale * p.Q, N=scale * p.N, R=scale * p.R)
        res = reduce(prob, TOL)
        assert (res.index_k, res.m_res, res.rp) == (3, 3, 4)

    def test_reduced_field_values(self, rng):
        # a regular problem feeds back u = R^-1 (B'p - N'x) in full
        for _ in range(25):
            n = int(rng.integers(1, 7))
            prob = random_problem(rng, n, int(rng.integers(1, 7)), spd_r=True)
            res = reduce(prob, TOL)
            a, b, q, nm = prob.A, prob.B, prob.Q, prob.N
            rinv_bt = np.linalg.solve(prob.R, b.T)
            rinv_nt = np.linalg.solve(prob.R, nm.T)
            expected = np.block(
                [[a - b @ rinv_nt, b @ rinv_bt], [q - nm @ rinv_nt, -a.T + nm @ rinv_bt]]
            )
            got = np.block([[res.ax, res.ap], [res.qx, res.qp]])
            assert np.linalg.norm(got - expected) <= 1e-10 * (
                1 + np.linalg.norm(expected)
            )
        # family 3 never feeds back, so its field is the problem data
        prob = gen_exp3(6)
        res = reduce(prob, TOL)
        assert res.m_res == prob.m
        assert_allclose(res.ax, prob.A, atol=1e-14)
        assert_allclose(res.ap, np.zeros((6, 6)), atol=1e-14)
        assert_allclose(res.qx, prob.Q, atol=1e-14)
        assert_allclose(res.qp, -prob.A.T, atol=1e-14)
        assert_allclose(res.bu, prob.B, atol=1e-14)
        assert_allclose(res.nu, prob.N, atol=1e-14)

    def test_no_constraints_at_all(self):
        # B = N = R = 0: the cost ignores u entirely, every control is gauge
        prob = LQProblem(A=[[1.0]], B=[[0.0]], Q=[[1.0]], N=[[0.0]], R=[[0.0]])
        res = reduce(prob, TOL)
        assert res.m_res == 1
        assert res.index_k == 1
        assert res.phi_first.shape[0] == 0
        assert res.phi_second.shape[0] == 0


class TestRankZeroExit:
    # when the final bracket matrix has rank 0, reduce skips the split and
    # the strip: the set is all first class, and the held rows' (x, p, u)
    # blocks are already its stripped orthonormal basis

    @staticmethod
    def fold_exit_problems():
        # past the absolute tolerance's limit (ROADMAP item 4) a flat count
        # can leave a control to solve; these exit on that fold with rp = 0
        return [LQProblem(A=[[-1.0]], B=[[-1.0, 1.0]], Q=[[4.0 * s]],
                          N=[[0.0, 2.0 * s]], R=[[s, -s], [-s, s]])
                for s in (1e10, 1e11)]

    def rank_zero_problems(self, rng):
        snapshot = json.loads(SNAPSHOT.read_text())
        problems = [prob for label, prob in structure_cases()
                    if snapshot[label][2] == 0]
        problems += [perturb(gen_exp3(n), 1e-10, seed=0, preserve_structure=True)
                     for n in (4, 40)]
        # regular: every control is solved on pass 0 and no row is left
        problems += [random_problem(rng, 4, 2, spd_r=True) for _ in range(5)]
        return problems + self.fold_exit_problems()

    def test_matches_the_split_route(self, rng):
        checked = folded = 0
        for prob in self.rank_zero_problems(rng):
            res = reduce(prob, TOL)
            assert res.rp == 0
            checked += 1
            # a loop that ends on a fold rebuilds its brackets after the count
            folded += len(res.feedback_ranks) == len(res.class_counts)
            ext = res.phi_first_ext
            assert res.phi_second_ext.shape[0] == 0 and res.phi_second.shape[0] == 0
            first, second = split_first_second(poisson_brackets(ext, res.n), TOL)
            assert second.shape[0] == 0
            # the held rows follow the zero-order rows, over (x, p, u_res)
            held = ext[res.m_res :, : 2 * res.n + res.m_res]
            stripped = strip_coisotropic(first, held, TOL)
            assert res.phi_first.shape == stripped.shape
            if stripped.shape[0]:
                assert orthonormality_error(res.phi_first) < 1e-12
                assert subspace_angle(res.phi_first, stripped, TOL) < 1e-12
        assert checked > 280 and folded > 0

    def test_rank_zero_is_not_factored_at_the_split(self, monkeypatch):
        calls = []
        for name in ("split_first_second", "strip_coisotropic"):
            def counting(*args, _name=name, _fn=getattr(reduction, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(reduction, name, counting)
        real_svd = linalg._svd

        def factoring(*args, **kwargs):
            calls.append("_svd")
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(linalg, "_svd", factoring)
        # rank 0 read by the split's norm test on the last count's matrix,
        # or on the matrix rebuilt after a fold that ends the loop: from the
        # split on, nothing is factored
        problems = [perturb(gen_exp3(10), 1e-10, seed=0, preserve_structure=True)]
        for prob in problems + self.fold_exit_problems():
            del calls[:]
            res = reduce(prob, TOL)
            assert res.rp == 0
            split = calls.index("split_first_second")
            # the strip is of the empty second class
            assert calls[split:] == ["split_first_second", "strip_coisotropic"]
        assert len(res.feedback_ranks) == len(res.class_counts)
        # second-class rows take the split and strip both sets
        del calls[:]
        res = reduce(gen_exp1(24, 9, 6), TOL)
        assert res.rp > 0
        layers = [call for call in calls if call != "_svd"]
        assert sorted(layers) == ["split_first_second"] + ["strip_coisotropic"] * 2

    def test_rebuilt_matrix_takes_the_count_rule(self, monkeypatch):
        # the matrix rebuilt after a fold exit is judged by the rule every
        # count uses, sigma > tol, not by a norm test of its own: with the
        # Frobenius shortcut off wherever reduce could look it up, the
        # split's SVD still counts rank 0
        calls = []
        for name in ("split_first_second", "strip_coisotropic"):
            def counting(*args, _name=name, _fn=getattr(reduction, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(reduction, name, counting)
        for module in (linalg, reduction):
            monkeypatch.setattr(module, "negligible", lambda m, tol: False, raising=False)
        for prob in self.fold_exit_problems():
            del calls[:]
            res = reduce(prob, TOL)
            assert len(res.feedback_ranks) == len(res.class_counts)
            assert res.rp == 0
            # the strip is of the empty second class
            assert calls == ["split_first_second", "strip_coisotropic"]


class TestValidationPropagation:
    def test_invalid_problem_rejected(self):
        # a problem is checked when it is built, so none reaches reduce
        with pytest.raises(NonFiniteEntry):
            LQProblem(A=[[0.0]], B=[[1.0]], Q=[[np.inf]], N=[[0.0]], R=[[1.0]])

    def test_built_problems_are_not_validated_again(self, monkeypatch):
        # each problem is validated once, when it is built, and never by
        # the routes that take it
        validated = []
        original = model.validate
        monkeypatch.setattr(
            model, "validate", lambda problem: validated.append(problem) or original(problem)
        )
        problems = [gen_exp1(8, 3, 2), gen_exp2(6), gen_exp3(5)]
        assert len(validated) == 3
        for problem in problems:
            reduce(problem, TOL)
            recursive_reduce(problem, TOL)
        assert len(validated) == 3
        # the exact problem and the two nonzero perturbations; delta = 0
        # reuses the exact problem
        run_sweep(2, 6, [1e-10, 0.0, 1e-9], seed=1)
        assert len(validated) == 6
        assert len({id(problem) for problem in validated[3:]}) == 3

    @pytest.mark.parametrize(
        "tol",
        [-1.0, 0.0, np.nan, np.inf,
         # not real numbers, though numpy would coerce some: True reads as 1
         True, np.bool_(True), "1e-6", None, 1e-6 + 0j, np.array([1e-6, 1e-6]),
         np.array([1e-6])],
    )
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(InvalidTolerance):
            reduce(gen_exp2(4), tol)
        with pytest.raises(InvalidTolerance):
            recursive_reduce(gen_exp2(4), tol)

    @pytest.mark.parametrize(
        "tol", [1e-6, np.float64(1e-6), np.float32(1e-6), np.array(1e-6)]
    )
    def test_real_tolerances_accepted(self, tol):
        assert reduce(gen_exp3(4), tol).index_k == 4
        assert recursive_reduce(gen_exp3(4), tol).index_k == 4

    @pytest.mark.parametrize("tol", [1, np.int64(1), np.array(1)])
    def test_integer_tolerance_is_its_value(self, tol):
        # at tol = 1 the chain's levels are negligible from the first one
        assert reduce(gen_exp3(4), tol).index_k == reduce(gen_exp3(4), 1.0).index_k == 1


class TestCarriedBracketNorm:
    # the passes between two folds are counted at the segment's end, from
    # the leading blocks of its last bracket matrix, whose norm decides
    # every count of a segment whose brackets vanish

    def test_lean_passes_read_no_bracket_matrix(self, monkeypatch):
        # this chain never folds: its one segment is counted at the exit
        # from one negligible test of the last matrix, whose verdict the
        # split reads too, and no block is read.  Every other rank test of
        # the whole run is of a pass's 1 x 1 rk or of a single row
        seen = []

        def spy(name, fn):
            def recording(m, *args):
                seen.append((name, np.shape(m)))
                return fn(m, *args)
            return recording

        recording = spy("negligible", linalg.negligible)
        for module in (linalg, classify, reduction):
            monkeypatch.setattr(module, "negligible", recording, raising=False)
        monkeypatch.setattr(classify, "rank_tol", spy("rank_tol", classify.rank_tol))
        res = reduce(perturb(gen_exp3(40), 1e-10, seed=0, preserve_structure=True), TOL)
        assert (res.index_k, res.m_res, res.rp) == (40, 1, 0)
        assert len(res.class_counts) == 41
        q = sum(res.class_counts[-1])
        square = [call for call in seen if call[1][0] == call[1][1] > 1]
        assert square == [("negligible", (q, q))]
        assert not [call for call in seen if call[0] == "rank_tol"]

    def test_each_count_is_its_pass_matrix_rank(self, monkeypatch, rng):
        # a count taken at the segment's end, from a leading block of the
        # matrix built there, is the rank of the bracket matrix built fresh
        # from the set its pass held
        held = record_held_sets(monkeypatch)
        problems = [gen_exp1(24, 9, 6), perturb(gen_exp1(16, 6, 4, seed=3), 1e-8, seed=3)]
        problems += [random_problem(rng, 6, 3, singular_r=True) for _ in range(20)]
        mixed = 0
        for prob in problems:
            held.clear()
            res = reduce(prob, TOL)
            assert len(held) == len(res.class_counts)
            for rows, count in zip(held, res.class_counts):
                fresh = poisson_brackets(with_zero_order(rows, prob.n), prob.n)
                second = rank_tol(fresh, TOL)
                assert count == (fresh.shape[0] - second, second)
                mixed += 0 < second < fresh.shape[0]
        assert mixed > 20


class TestFeedbackSigns:
    @staticmethod
    def leading_entries(sel):
        return sel[np.arange(sel.shape[0]), np.abs(sel).argmax(axis=1)]

    def test_every_feedsel_row_leads_positive(self):
        # the convention holds on every snapshot problem that folds
        folded = 0
        for _, prob in structure_cases():
            res = reduce(prob, TOL)
            if res.feedsel.shape[0]:
                folded += 1
                assert np.all(self.leading_entries(res.feedsel) > 0)
                assert res.feedtot.shape[0] == res.feedsel.shape[0]
        assert folded > 300

    def test_flip_keeps_the_feedback_law(self, monkeypatch):
        # a flip of both rows of a pair is exact, so feedback_law() keeps
        # its bytes against the rows as the SVD picked them
        problems = [prob for _, prob in itertools.islice(structure_cases(), 150)]
        problems.append(perturb(gen_exp1(24, 9, 6), 1e-10, seed=0))
        results = [reduce(prob, TOL) for prob in problems]
        monkeypatch.setattr(reduction, "_sign_canonical", lambda sel, feed: (sel, feed))
        flipped = 0
        for prob, res in zip(problems, results):
            raw = reduce(prob, TOL)
            law = res.feedback_law()
            assert law.tobytes() == raw.feedback_law().tobytes()
            signs = np.sign(self.leading_entries(raw.feedsel))
            assert np.array_equal(res.feedsel, signs[:, None] * raw.feedsel)
            assert np.array_equal(res.feedtot, signs[:, None] * raw.feedtot)
            flipped += int(np.sum(signs < 0))
        assert flipped > 20
