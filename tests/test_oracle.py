import numpy as np
import pytest

from lqreduce import (
    LQProblem,
    NonConvergence,
    compare_final_subspaces,
    gen_exp1,
    gen_exp2,
    gen_exp3,
    perturb,
    recursive_reduce,
    reduce,
    subspace_angle,
)
from lqreduce import linalg
from conftest import drift_blocks, random_problem
from test_structure_snapshot import structure_cases

TOL = 1e-6


class TestRecursiveReduce:
    def test_regular_problem_has_only_primaries(self, rng):
        prob = random_problem(rng, 3, 2, spd_r=True)
        out = recursive_reduce(prob, TOL)
        assert out.index_k == 1
        assert out.final_constraints.shape[0] == 2
        primary = np.hstack([-prob.N.T, prob.B.T, -prob.R])
        assert subspace_angle(out.final_constraints, primary, TOL) < 1e-10

    def test_hand_iterated_1x1_chain(self):
        prob = LQProblem(A=[[0.0]], B=[[1.0]], Q=[[1.0]], N=[[0.0]], R=[[0.0]])
        out = recursive_reduce(prob, TOL)
        assert out.index_k == 3
        # the chain p, x, u spans all of (x, p, u)
        assert subspace_angle(out.final_constraints, np.eye(3), TOL) < 1e-10

    def test_sum_constraint_family(self):
        out = recursive_reduce(gen_exp2(3), TOL)
        ref = np.array(
            [
                [1.0, 1, 1, 0, 0, 0, 0],
                [0.0, 0, 0, 1, 1, 1, 0],
                [0.0, 0, 0, 0, 0, 0, 1],
            ]
        )
        assert out.index_k == 3
        assert subspace_angle(out.final_constraints, ref, TOL) < 1e-10

    def test_nilpotent_family_index(self):
        for n in (2, 4, 7):
            out = recursive_reduce(gen_exp3(n), TOL)
            assert out.index_k == n
            assert out.final_constraints.shape[0] == n

    def test_overflowing_level_raises(self):
        # the oracle differentiates unit rows, so its level overflows only
        # when the data does: 1.5e308 + 1.5e308 in the primary's derivative
        prob = LQProblem(
            A=[[1.5e308, 1.5e308], [0.0, 1.0]], B=[[1.0], [1.0]], Q=np.eye(2),
            N=[[0.0], [0.0]], R=[[0.0]],
        )
        with pytest.raises(NonConvergence, match="non-finite"):
            recursive_reduce(prob, TOL)

    def test_svd_retry_on_long_chain(self):
        # a 120-pass chain whose full stack, 128 x 241, gesdd does not
        # factor; the oracle must get through it either way
        prob = perturb(gen_exp3(120), 1e-10, seed=2880094716, preserve_structure=True)
        out = recursive_reduce(prob, TOL)
        assert (out.index_k, out.m_res) == (120, 1)

    def test_family3_n2_draw_matches_reduction(self):
        prob = perturb(gen_exp3(2), 1e-10, seed=7, preserve_structure=True)
        res = reduce(prob, TOL)
        assert (res.index_k, res.m_res, res.rp) == (2, 1, 0)
        out = recursive_reduce(prob, TOL)
        assert (out.index_k, out.m_res) == (2, 1)
        assert out.final_constraints.shape[0] == 2

    def test_stabilization_is_genuine(self, rng):
        # one more differentiation pass of the whole final stack, the plain
        # Rabier-Rheinboldt rule, adds nothing; the tiny gen_exp3(2) draws
        # are left out, because near the tolerance that rule is the defect
        # test_family3_n2_draw_matches_reduction pins
        from lqreduce import independent_rows
        from lqreduce.linalg import equilibrate_rows, numerical_ker

        problems = (
            random_problem(rng, 4, 2, singular_r=True),
            perturb(gen_exp3(40), 1e-10, seed=0, preserve_structure=True),
            perturb(gen_exp1(24, 9, 6, seed=0), 1e-10, seed=0),
            perturb(gen_exp2(30), 1e-10, seed=0),
        )
        for prob in problems:
            out = recursive_reduce(prob, TOL)
            g0, z0 = drift_blocks(prob)
            rows = out.final_constraints
            two_n = 2 * prob.n
            ker, _ = numerical_ker(rows[:, two_n:].T, TOL)
            s_all = rows[:, :two_n]
            cands = ker.T @ np.hstack([s_all @ g0, s_all @ z0])
            stacked = independent_rows(
                equilibrate_rows(np.vstack([rows, cands]), TOL), TOL
            )
            assert stacked.shape[0] == rows.shape[0]

    def test_each_pass_factors_only_the_new_rows(self, monkeypatch):
        # family 3 adds one zero-u row per pass; an oracle that re-factors
        # its whole stack factors stacks of up to 2n rows, one that
        # differentiates only the new rows factors at most two.  Recorded
        # at the package's factorization seam, _svd, through which every
        # SVD goes
        prob = perturb(gen_exp3(40), 1e-10, seed=0, preserve_structure=True)
        real_svd = linalg._svd
        shapes = []

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "_svd", recording)
        out = recursive_reduce(prob, TOL)
        assert out.index_k == 40
        assert shapes and all(rows <= 2 for rows, _ in shapes)

    def test_matches_reduction_on_structure_cases(self):
        # the oracle's counts equal reduce's on every problem of the
        # structure snapshot, and the final subspaces coincide
        moved, worst = {}, 0.0
        for label, prob in structure_cases():
            res = reduce(prob, TOL)
            out = recursive_reduce(prob, TOL)
            got = (out.index_k, out.m_res, out.final_constraints.shape[0])
            want = (
                res.index_k,
                res.m_res,
                res.final_constraints_original_controls().shape[0],
            )
            if got != want:
                moved[label] = (got, want)
            angle = compare_final_subspaces(out, res)
            # the orthonormal-row route agrees with the public reference
            reference = subspace_angle(
                out.final_constraints, res.final_constraints_original_controls(), TOL
            )
            assert abs(angle - reference) <= 1e-12, label
            worst = max(worst, angle)
        assert moved == {}
        assert worst <= 1e-6


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
                assert recursive_reduce(problem, TOL).index_k == n
            counts.append(len(entries))
        assert counts[0] == counts[1]


class TestCompareFinalSubspaces:
    def test_regular_same_problem(self, rng):
        prob = random_problem(rng, 3, 2, spd_r=True)
        assert compare_final_subspaces(
            recursive_reduce(prob, TOL), reduce(prob, TOL)
        ) < 1e-10

    def test_singular_same_problem(self):
        prob = LQProblem(A=[[0.0]], B=[[1.0]], Q=[[1.0]], N=[[0.0]], R=[[0.0]])
        assert compare_final_subspaces(
            recursive_reduce(prob, TOL), reduce(prob, TOL)
        ) < 1e-8

    def test_dimension_mismatch_raised(self, rng):
        from lqreduce import DimensionMismatch

        p1 = random_problem(rng, 2, 1, spd_r=True)
        p2 = random_problem(rng, 2, 2, spd_r=True)
        with pytest.raises(DimensionMismatch):
            compare_final_subspaces(recursive_reduce(p1, TOL), reduce(p2, TOL))

    def test_mismatched_problems_detected(self):
        # orthogonal primary constraints: p1 = 0 versus p2 = 0
        common = dict(Q=np.zeros((2, 2)), N=np.zeros((2, 1)), R=[[1.0]])
        p1 = LQProblem(A=np.zeros((2, 2)), B=[[1.0], [0.0]], **common)
        p2 = LQProblem(A=np.zeros((2, 2)), B=[[0.0], [1.0]], **common)
        angle = compare_final_subspaces(
            recursive_reduce(p1, TOL), reduce(p2, TOL)
        )
        assert angle > 0.1

    def test_equivalence_on_random_singular_problems(self, rng):
        for _ in range(30):
            prob = random_problem(
                rng, int(rng.integers(2, 7)), int(rng.integers(1, 5)), singular_r=True
            )
            angle = compare_final_subspaces(
                recursive_reduce(prob, TOL), reduce(prob, TOL)
            )
            assert angle < 1e-8

    def test_known_families_agree(self):
        for prob in (gen_exp2(5), gen_exp3(5)):
            angle = compare_final_subspaces(
                recursive_reduce(prob, TOL), reduce(prob, TOL)
            )
            assert angle < 1e-8

    @pytest.mark.parametrize(
        "draw",
        [
            lambda: perturb(gen_exp1(24, 9, 6), 1e-8, seed=3),
            lambda: perturb(gen_exp3(40), 1e-10, seed=0, preserve_structure=True),
        ],
        ids=["family1", "family3"],
    )
    def test_factors_only_the_reconstruction(self, draw, monkeypatch):
        # both row sets are orthonormal, so the comparison factors only the
        # reconstruction, never either set a second time.  It has full row
        # rank, so one QR of its transpose and a values-only SVD of the
        # triangle give its basis; the sines come from an eigenvalue solve
        prob = draw()
        out, res = recursive_reduce(prob, TOL), reduce(prob, TOL)
        k, c = res.final_constraints_original_controls().shape
        assert k * c >= linalg._QR_MIN_ENTRIES
        real_svd, real_qr = np.linalg.svd, np.linalg.qr
        svds, qrs = [], []

        def recording_svd(a, full_matrices=True, compute_uv=True):
            svds.append((np.shape(a), compute_uv))
            return real_svd(a, full_matrices=full_matrices, compute_uv=compute_uv)

        def recording_qr(a, *args, **kwargs):
            qrs.append(np.shape(a))
            return real_qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        assert compare_final_subspaces(out, res) < 1e-6
        assert qrs == [(c, k)]
        assert svds == [((k, k), False)]
