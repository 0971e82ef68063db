"""Constraint reduction of singular LQ problems with partial feedback.

Starting from the Hamilton equations (x; p)' = G (x; p) + Z u and the
stationarity constraints dH/du = S (x; p) - R u = 0, each iteration splits
the control coefficients R by SVD: the range part solves some rotated
controls as linear feedback in (x, p), the cokernel part yields the next
level of constraints, obtained by differentiating along the (feedback
updated) flow.  Constraints are propagated on the symplectically extended
space (x, p, u, v), classified into first and second class at every pass,
and the iteration stops once the count of independent constraints
(including those consumed by feedback, two per solved control) stabilizes
or every control is solved.

The drift G stays Hamiltonian throughout: J G is symmetric at every
iteration, which the reducer records as a residual trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import split_first_second
from .constraints import (
    ConstraintMatrix,
    apply_feedback_to_constraints,
    strip_coisotropic,
)
from .errors import NonConvergence
from .linalg import (
    DEFAULT_TOL,
    check_tol,
    empty_matrix,
    equilibrate_rows,
    independent_rows,
    rank_tol,
    symplectic_matrix,
)
from .model import LQProblem, initial_matrices


@dataclass(frozen=True)
class StepState:
    """Per-iteration matrices of the reduction.

    g/z define the current vector field (x; p)' = g (x; p) + z u on the
    remaining m_cur controls; s/rk are the coefficients of the current
    constraint level s (x; p) - rk u = 0.  p_hess is the control Hessian
    d2H/du2 of the running Hamiltonian (initially -R), needed so that each
    feedback substitution produces the exact Hamiltonian field of the
    restricted Hamiltonian and J g stays symmetric at every iteration.
    """

    g: np.ndarray
    z: np.ndarray
    s: np.ndarray
    rk: np.ndarray
    m_cur: int
    p_hess: np.ndarray


@dataclass(frozen=True)
class ReductionResult:
    """Everything the reduction produces.

    Attributes:
        index_k: number of iterations until the constraint chain stabilized.
        m_res: residual (gauge) control count, m - sum of feedback ranks.
        rp: rank of the Poisson-bracket matrix of the final constraint set,
            i.e. the number of second-class constraints.
        feedtot: the per-pass feedback blocks, each r_k x 2n, stacked; maps
            (x; p) to the values of every solved control combination.
        feedsel: the matching combination directions in original control
            coordinates (orthonormal rows); row i of feedsel paired with row
            i of feedtot reads  feedsel[i] . u = feedtot[i] . (x; p).
        nofeed: m_res x m selector of the residual free controls,
            u_res = nofeed . u.
        phi_first/phi_second: first/second-class constraint rows over the
            reduced coordinates (x, p, u_res), coisotropic columns stripped.
        phi_first_ext/phi_second_ext: the same sets before stripping, over
            (x, p, u_res, v_res); needed to evaluate Poisson brackets.
        ax, ap, qx, qp: n x n blocks of the reduced drift,
            xdot = ax x + ap p + bu u_res, pdot = qx x + qp p + nu u_res.
        bu, nu: n x m_res control blocks (zero-width when all solved).
        jg_residuals: per-iteration ||J G - (J G)'||_F / (1 + ||G||_F).
        constraint_counts: per-pass effective count of independent
            constraints (rows found plus two per solved control).
        class_counts: per-pass (first-class, second-class) row counts.
        feedback_ranks: controls solved at each pass (aligned with the
            entries of class_counts after the initial one).
    """

    index_k: int
    m_res: int
    rp: int
    feedtot: np.ndarray
    feedsel: np.ndarray
    nofeed: np.ndarray
    phi_first: np.ndarray
    phi_second: np.ndarray
    phi_first_ext: ConstraintMatrix
    phi_second_ext: ConstraintMatrix
    ax: np.ndarray
    ap: np.ndarray
    qx: np.ndarray
    qp: np.ndarray
    bu: np.ndarray
    nu: np.ndarray
    jg_residuals: tuple
    constraint_counts: tuple
    class_counts: tuple
    feedback_ranks: tuple
    n: int
    m: int
    tol: float

    def feedback_law(self) -> np.ndarray:
        """m x 2n map of the solved control component in original coordinates.

        u = feedback_law() @ (x; p) + nofeed' u_res on the final space; for a
        regular problem this is the closed-form optimal feedback
        R^{-1} (B' p - N' x).
        """
        return self.feedsel.T @ self.feedtot

    def final_constraints(self) -> np.ndarray:
        """Independent final constraint rows over (x, p, u_res)."""
        stacked = np.vstack([self.phi_first, self.phi_second])
        return independent_rows(equilibrate_rows(stacked, self.tol), self.tol)

    def final_constraints_original_controls(self) -> np.ndarray:
        """Final constraint subspace over (x, p, u) in original controls.

        Residual-control columns are pulled back through nofeed and the
        feedback relations feedsel . u - feedtot . (x; p) = 0 are appended,
        so the rows cut out the same subspace of R^{2n+m} that the plain
        recursive algorithm finds.
        """
        two_n = 2 * self.n
        blocks = []
        for phi in (self.phi_first, self.phi_second):
            if phi.shape[0]:
                blocks.append(
                    np.hstack([phi[:, :two_n], phi[:, two_n:] @ self.nofeed])
                )
        if self.feedtot.shape[0]:
            blocks.append(np.hstack([-self.feedtot, self.feedsel]))
        if not blocks:
            return empty_matrix(two_n + self.m)
        return independent_rows(
            equilibrate_rows(np.vstack(blocks), self.tol), self.tol
        )


def _jg_residual(g: np.ndarray) -> float:
    j = symplectic_matrix(g.shape[0] // 2)
    jg = j @ g
    return float(
        np.linalg.norm(jg - jg.T, "fro") / (1.0 + np.linalg.norm(g, "fro"))
    )


def step(
    state: StepState, tol: float = DEFAULT_TOL
) -> tuple[StepState, np.ndarray, np.ndarray, int]:
    """One iteration of the matrix recursion.

    Returns ``(state', feed, v_rot, r)`` where r = rank of the current
    control coefficients rk.  For r > 0 the SVD rk = U Sigma V' splits the
    rotated controls: the first r satisfy (V' u)[:r] = feed (x; p) with
    feed = Sigma^{-1} (U' s)[:r], and the cokernel rows s_c = (U' s)[r:]
    are differentiated along the updated flow: s' = s_c g', rk' = -s_c z'.
    For r = 0 the update degenerates to s' = s g, rk' = -s z with no
    feedback and v_rot the identity.

    The updated field is the Hamiltonian field of the restricted
    Hamiltonian, not the bare substitution g + (z V)[:, :r] feed: writing
    J g = M and J z = W for the quadratic Hamiltonian
    H = z'Mz/2 + z'Wu + u'Pu/2 (z = (x; p), P = p_hess), eliminating the
    solved controls gives M' = M + W~ F + F'W~' + F'P11 F and
    W'' = W' + F'P12 in rotated control blocks.  The two fields agree on
    the constraint subspace (they differ by multiples of already-found
    constraints) but only this one keeps J g' symmetric at every level.
    """
    r = rank_tol(state.rk, tol)
    two_n = state.g.shape[0]
    if r == 0:
        s_new = state.s @ state.g
        rk_new = -(state.s @ state.z)
        new_state = StepState(
            state.g, state.z, s_new, rk_new, state.m_cur, state.p_hess
        )
        return new_state, np.zeros((0, two_n)), np.eye(state.m_cur), 0
    u, sig, vt = np.linalg.svd(state.rk, full_matrices=True)
    feed = (u[:, :r].T @ state.s) / sig[:r, None]
    v_rot = vt.T
    zv = state.z @ v_rot
    p_rot = v_rot.T @ state.p_hess @ v_rot
    j = symplectic_matrix(two_n // 2)
    # update the (x, p) Hessian M = J g of the restricted Hamiltonian and
    # map back; the explicit symmetrization removes rounding asymmetry only
    wf = (j @ zv[:, :r]) @ feed
    m_new = j @ state.g + wf + wf.T + feed.T @ (p_rot[:r, :r] @ feed)
    g_new = -j @ ((m_new + m_new.T) / 2.0)
    z_new = zv[:, r:] - (j @ feed.T) @ p_rot[:r, r:]
    p_new = (p_rot[r:, r:] + p_rot[r:, r:].T) / 2.0
    s_c = u[:, r:].T @ state.s
    s_new = s_c @ g_new
    rk_new = -(s_c @ z_new)
    new_state = StepState(g_new, z_new, s_new, rk_new, state.m_cur - r, p_new)
    return new_state, feed, v_rot, r


def _constraint_rows(state: StepState) -> np.ndarray:
    """Extended-space rows of the current constraint level (v block zero)."""
    l = state.s.shape[0]
    return np.hstack([state.s, -state.rk, np.zeros((l, state.m_cur))])


def reduce(problem: LQProblem, tol: float = DEFAULT_TOL) -> ReductionResult:
    """Reduce an LQ problem to its consistent Hamiltonian form.

    One loop runs on the extended space over one independent constraint
    set, seeded with the zero-order constraints v = 0 and the primary
    constraints.  Each pass solves what it can of the current control
    coefficients as partial feedback and folds it into the set, stacks the
    next constraint level onto it, and splits the whole set into first and
    second class.  The loop runs while some control is unsolved and the
    previous pass raised the effective count of independent constraints
    (rows plus two per solved control).  A regular problem solves every
    control on its first pass, where its primary rows fold to zero.  After
    a flat-count pass a feedback that is still solvable is folded in before
    the loop exits, without a new constraint level.  At the end the
    coisotropic columns are stripped from the reported constraint sets.

    Raises InvalidTolerance unless ``tol`` is finite and positive, a
    ValidationError subclass for inconsistent problem data, and
    NonConvergence if the loop exceeds 2(n + m) + 2 passes, which
    consistent linear data cannot do.
    """
    check_tol(tol)
    n, m = problem.n, problem.m
    two_n = 2 * n
    init = initial_matrices(problem)

    # independent primary rows over (x, p, u); the u coefficient is -R
    sr = independent_rows(np.hstack([init.s1, -init.r1]), tol)
    s = sr[:, :two_n]
    rk = -sr[:, two_n:]
    state = StepState(init.g0, init.z0, s, rk, m, p_hess=-init.r1)
    jg_residuals = [_jg_residual(state.g)]

    feed_blocks: list[np.ndarray] = []
    sel_blocks: list[np.ndarray] = []
    nofeed = np.eye(m)

    # constraint set on the extended space: zero-order rows, then primaries
    zero_order = np.hstack([np.zeros((m, two_n + m)), np.eye(m)])
    phi = ConstraintMatrix(np.vstack([zero_order, _constraint_rows(state)]), n, m)
    split = split_first_second(phi, tol)
    counts = [phi.n_rows]
    class_counts = [(split.n_first, split.n_second)]
    feedback_ranks: list[int] = []

    rfeed = 0
    index_k = 0
    cap = 2 * (n + m) + 2
    increased = True
    while rfeed < m:
        nxt, feed, v_rot, r = step(state, tol)
        if r == 0 and not increased:
            break  # flat count and nothing left to solve
        state = nxt
        feedback_ranks.append(r)
        if r > 0:
            feed_blocks.append(feed)
            sel_blocks.append(v_rot.T[:r] @ nofeed)
            nofeed = (v_rot.T @ nofeed)[r:]
            rfeed += r
            phi = apply_feedback_to_constraints(phi, v_rot, feed, r, tol)
        jg_residuals.append(_jg_residual(state.g))
        if not increased:
            break  # after a flat count, fold in what is solvable, add no level
        if index_k >= cap:
            raise NonConvergence(
                f"constraint iteration exceeded {cap} passes; "
                "check the tolerance against the problem scaling"
            )
        index_k += 1
        stack = np.vstack([phi.rows, _constraint_rows(state)])
        phi = phi.with_rows(independent_rows(equilibrate_rows(stack, tol), tol))
        split = split_first_second(phi, tol)
        # the split recombines the independent rows orthogonally, so the
        # class counts add up to phi.n_rows
        counts.append(phi.n_rows + 2 * rfeed)
        class_counts.append((split.n_first, split.n_second))
        increased = counts[-1] > counts[-2]

    # final class split; rp, the rank of the bracket matrix, is the
    # second-class row count
    split = split_first_second(phi, tol)
    phi1 = phi.with_rows(split.first_class)
    phi2 = phi.with_rows(split.second_class)

    feedtot = np.vstack(feed_blocks) if feed_blocks else empty_matrix(two_n)
    feedsel = np.vstack(sel_blocks) if sel_blocks else empty_matrix(m)

    g, z = state.g, state.z
    return ReductionResult(
        index_k=index_k,
        m_res=m - rfeed,
        rp=split.n_second,
        feedtot=feedtot,
        feedsel=feedsel,
        nofeed=nofeed,
        phi_first=strip_coisotropic(phi1, tol),
        phi_second=strip_coisotropic(phi2, tol),
        phi_first_ext=phi1,
        phi_second_ext=phi2,
        ax=g[:n, :n],
        ap=g[:n, n:],
        qx=g[n:, :n],
        qp=g[n:, n:],
        bu=z[:n, :],
        nu=z[n:, :],
        jg_residuals=tuple(jg_residuals),
        constraint_counts=tuple(counts),
        class_counts=tuple(class_counts),
        feedback_ranks=tuple(feedback_ranks),
        n=n,
        m=m,
        tol=tol,
    )
