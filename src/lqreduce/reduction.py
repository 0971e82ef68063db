"""Constraint reduction of singular LQ problems with partial feedback.

Starting from the Hamilton equations (x; p)' = G (x; p) + Z u and the
stationarity constraints dH/du = S (x; p) - R u = 0, each iteration splits
the control coefficients R by SVD: the range part solves some rotated
controls as linear feedback in (x, p), the cokernel part yields the next
level of constraints, obtained by differentiating along the (feedback
updated) flow.  Constraints are propagated on the symplectically extended
space (x, p, u, v), and the iteration stops once the count of independent
constraints (including those consumed by feedback, two per solved control)
stabilizes or every control is solved.  The zero-order constraints v = 0,
one per remaining control, are implied rather than held: every held row has
a zero v block, so they enter only the count, the bracket matrix (as its
leading rows) and the final split.  Each pass counts second-class rows as
the rank of their Poisson brackets; only the final set is split.  The
bracket matrix is carried from pass to pass and bordered by the brackets of
each pass's new rows; a feedback fold changes coordinates, so the count after
it rebuilds the matrix in full.  Rank 0 is decided from the matrix's
Frobenius norm without an SVD (:func:`~lqreduce.linalg.rank_tol`), which
covers every pass of a chain whose brackets vanish.  The final split takes
the carried matrix too, so the reported rp is the last pass's second-class
count whenever that pass did not fold.  When that matrix has rank 0 by the
same count, as on every chain whose brackets vanish, nothing is factored at
the split: every row is first class, and the held rows' (x, p, u) blocks
are the stripped set.

The loop holds the Hessian blocks of the running quadratic Hamiltonian
rather than its vector field G = -J M, so J G = M is symmetric to
rounding.  It starts from hess0 = J G0, which
:func:`~lqreduce.model.initial_matrices` builds block by block.

A pass that solves no control and adds one row, every pass of a long
chain, factors nothing.  Its rank 0 is read from ||rk||_F <= tol by
:func:`~lqreduce.linalg.rank_svd`, the one row is appended by the one-row
path of :func:`~lqreduce.linalg.extend_rows`, and the
bracket border is one product.  The constraint set and its bracket matrix
are held in the leading rows of buffers that each pass appends to, grown
by half when full, instead of being restacked on every pass.  A fold
starts new buffers, so no array that a pass handed out is written again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import class_counts, extend_brackets, split_first_second
from .constraints import (
    ConstraintMatrix,
    apply_feedback_to_constraints,
    strip_coisotropic,
    with_zero_order,
)
from .errors import NonConvergence
from .linalg import (
    DEFAULT_TOL,
    check_tol,
    empty_matrix,
    equilibrate_rows,
    extend_rows,
    independent_rows,
    rank_svd,
    row_space_basis,
    signed_swap,
)
from .model import LQProblem, initial_matrices


@dataclass(frozen=True)
class StepState:
    """Per-iteration matrices of the reduction.

    hess, w and p_hess are the Hessian blocks of the running Hamiltonian
    H = z'(hess)z/2 + z'(w)u + u'(p_hess)u/2 over z = (x; p) and the
    remaining m_cur controls, where (x; p)' = G (x; p) + Z u is the field
    they define: hess = J G (2n x 2n, symmetric to rounding), w = J Z
    (2n x m_cur) and p_hess = d2H/du2 (initially -R).  s/rk are the
    coefficients of the current constraint level s (x; p) - rk u = 0.
    """

    hess: np.ndarray
    w: np.ndarray
    s: np.ndarray
    rk: np.ndarray
    p_hess: np.ndarray

    @property
    def m_cur(self) -> int:
        return self.w.shape[1]


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
        constraint_counts: per-pass effective count of independent
            constraints: the rows held, plus one zero-order row v = 0 per
            remaining control, plus two per solved control.
        class_counts: per-pass (first-class, second-class) row counts; the
            second count is the bracket rank of that pass's constraint set.
        feedback_ranks: controls solved at each pass (aligned with the
            entries of class_counts after the initial one; a fold after a
            flat count adds a last rank without a class count).
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
        recursive algorithm finds.  The rows returned are orthonormal:
        :func:`~lqreduce.linalg.row_space_basis` of the equilibrated stack,
        whose rank is the count of its singular values > tol, the same rank
        decision as :meth:`final_constraints`.  A stack of full row rank
        gets its basis from a QR, with no singular vector computed.
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
        return row_space_basis(
            equilibrate_rows(np.vstack(blocks), self.tol), self.tol
        )


def step(
    state: StepState, tol: float = DEFAULT_TOL
) -> tuple[StepState, np.ndarray, np.ndarray, int]:
    """One iteration of the matrix recursion on the Hessian blocks.

    Returns ``(state', feed, v_rot, r)`` where r is the number of singular
    values of the current control coefficients rk above ``tol``.  For r > 0
    the SVD rk = U Sigma V' splits the rotated controls: the first r satisfy
    (V' u)[:r] = feed (x; p) with feed = Sigma^{-1} (U' s)[:r], and the
    cokernel rows s_c = (U' s)[r:] are differentiated along the updated
    flow.  For r = 0 the rows s are differentiated as they are, with no
    feedback, no change to the Hessian blocks and v_rot the identity.  An
    rk with ||rk||_F <= tol has r = 0 without an SVD
    (:func:`~lqreduce.linalg.rank_svd`), the count the SVD would give,
    since no singular value exceeds the Frobenius norm.

    Eliminating the solved controls from the quadratic Hamiltonian
    H = z'Mz/2 + z'Wu + u'Pu/2 (z = (x; p), M = hess, W = w, P = p_hess)
    gives, in rotated control blocks, M' = M + W1 F + F'W1' + F'P11 F,
    W' = W2 + F'P12 and P' = P22.  M' is formed as one rank-2r product
    M + [K, F'] [F; K'] with K = W1 + F'P11/2, which also averages P11's
    rounding asymmetry out of it, so M' is symmetric to rounding.  Its
    field z' = -J (M' z + W' u) agrees with the bare substitution of the
    feedback on the constraint subspace (they differ by multiples of
    already-found constraints).  A row c acting on z therefore has the
    time derivative sf (M' z + W' u) with sf = -c J, a signed swap of its
    x and p columns (:func:`~lqreduce.linalg.signed_swap`): s' = sf M' and
    rk' = -sf W'.
    """
    hess, w, p_hess, rows = state.hess, state.w, state.p_hess, state.s
    u, sig, vt, r = rank_svd(state.rk, tol, full_matrices=True)
    if r == 0:
        feed, v_rot = empty_matrix(rows.shape[1]), np.eye(state.m_cur)
    else:
        feed = (u[:, :r].T @ state.s) / sig[:r, None]
        v_rot = vt.T
        w_rot = w @ v_rot
        p_rot = v_rot.T @ p_hess @ v_rot
        # K F + F'K' = W1 F + F'W1' + F'(P11 + P11')/2 F
        k = w_rot[:, :r] + (feed.T @ p_rot[:r, :r]) / 2.0
        hess = hess + np.hstack([k, feed.T]) @ np.vstack([feed, k.T])
        w = w_rot[:, r:] + feed.T @ p_rot[:r, r:]
        p_hess = (p_rot[r:, r:] + p_rot[r:, r:].T) / 2.0
        rows = u[:, r:].T @ state.s
    sf = signed_swap(rows)
    new_state = StepState(hess, w, sf @ hess, -(sf @ w), p_hess)
    return new_state, feed, v_rot, r


def _constraint_rows(state: StepState) -> np.ndarray:
    """Extended-space rows of the current constraint level (v block zero)."""
    two_n, m = state.s.shape[1], state.m_cur
    rows = np.zeros((state.s.shape[0], two_n + 2 * m))
    rows[:, :two_n] = state.s
    rows[:, two_n : two_n + m] = -state.rk
    return rows


def _room(buf: np.ndarray | None, need: int, held: int, cols: int | None = None):
    """``buf`` if it has ``need`` rows, else a new empty buffer.

    The new buffer has ``cols`` columns, or as many columns as rows when
    ``cols`` is None.  A first buffer has ``need`` rows; one that replaces
    a full buffer has max(need, 1.5 held).  Growing by half of what is
    held keeps the copies of a set that gains one row per pass to
    O(log passes), without reserving room for the largest set possible,
    and a set extended once between folds gets no spare rows.
    """
    if buf is not None and buf.shape[0] >= need:
        return buf
    size = need if buf is None else max(need, held + held // 2)
    return np.empty((size, size if cols is None else cols))


def reduce(problem: LQProblem, tol: float = DEFAULT_TOL) -> ReductionResult:
    """Reduce an LQ problem to its consistent Hamiltonian form.

    One loop runs on the extended space over one constraint set, held as
    an orthonormal row basis from seed to split.  The seed, the primary
    constraints, is normalized once.  The zero-order constraints v = 0 are
    not held: every held row has a zero v block (new levels are written
    with one, and a fold rotates the v coordinates among themselves), so
    the m_cur zero-order rows are implied.  They add m_cur to each count,
    stand first in the bracket matrix, which reads [[0, -U'], [U, P0]]
    with U the u block of the held rows and P0 their own brackets, and are
    materialized once, before the split.

    Each pass solves what it can of the current control coefficients as
    partial feedback and folds it into the set (the fold returns an
    orthonormal basis), extends the set by what the next constraint level
    adds (:func:`extend_rows` factors only the projected new rows), and
    counts its second-class rows as the rank of their brackets; pass 0 is
    counted on the normalized seed, like every later pass.  The bracket
    matrix is carried between folds, where each pass borders it with
    [U_new | brackets of its new rows with the held ones]
    (:func:`extend_brackets`); the first count after a fold rebuilds it
    in full on the set with its zero-order rows.  A bracket matrix of
    Frobenius norm <= tol counts rank 0 without an SVD
    (:func:`~lqreduce.classify.class_counts`).  The loop runs
    while some control is unsolved and the previous pass raised the
    effective count of independent constraints (rows plus two per solved
    control).  A regular problem solves every control on its first pass,
    where its primary rows fold to zero.  After a flat-count pass a
    feedback that is still solvable is folded in before the loop exits,
    without a new constraint level.  Only the final set, zero-order rows
    included, is split into first and second class, from the bracket
    matrix the last count read (rebuilt only when that last fold changed
    coordinates), and the coisotropic columns are stripped from the
    reported constraint sets.  A matrix of rank 0 by the count's rule,
    read from the last count or, after a rebuild, counted on the rebuilt
    matrix, is not factored: the whole set is first class, and its
    stripped rows are the held rows' (x, p, u) blocks, which are
    orthonormal, since the e_v rows project to zero.

    Raises InvalidTolerance unless ``tol`` is finite and positive, a
    ValidationError subclass for inconsistent problem data, and
    NonConvergence if the loop exceeds 2(n + m) + 2 passes, the effective
    constraint count falls, which consistent linear data cannot do, or a
    new constraint level overflows to non-finite coefficients.
    """
    check_tol(tol)
    n, m = problem.n, problem.m
    two_n = 2 * n
    init = initial_matrices(problem)

    # independent primary rows over (x, p, u); the u coefficient is -R
    sr = independent_rows(np.hstack([init.s1, -init.r1]), tol)
    # J Z0 = s1' by the primary-constraint identity
    state = StepState(init.hess0, init.s1.T, sr[:, :two_n], -sr[:, two_n:], -init.r1)

    feed_blocks: list[np.ndarray] = []
    sel_blocks: list[np.ndarray] = []
    nofeed = np.eye(m)

    # constraint set on the extended space, seeded with the primary rows;
    # the rows of sr are sigma_i v_i' with sigma_i > tol, so normalizing them
    # once gives the orthonormal basis that every later pass keeps.  The
    # zero-order rows v = 0, one per remaining control, are implied: they
    # enter the counts and the bracket matrix, and are added at the split
    phi = ConstraintMatrix(equilibrate_rows(_constraint_rows(state), tol), n, m)
    counts = [m + phi.n_rows]
    poi = extend_brackets(None, phi)
    pass_classes = [class_counts(poi, tol)]
    feedback_ranks: list[int] = []

    index_k = 0
    cap = 2 * (n + m) + 2
    increased = True
    # each pass appends to these buffers, which hold the set's rows and its
    # bracket matrix in their leading rows; a fold starts new ones, so no
    # array handed out of a pass is written again
    rows_buf = brackets_buf = None
    while state.m_cur:
        # an overflowing product leaves inf or NaN in the new level, which
        # extend_rows rejects with NonConvergence
        with np.errstate(over="ignore", invalid="ignore"):
            nxt, feed, v_rot, r = step(state, tol)
        if r == 0 and not increased:
            break  # flat count and nothing left to solve
        state = nxt
        feedback_ranks.append(r)
        if r > 0:
            feed_blocks.append(feed)
            sel_blocks.append(v_rot.T[:r] @ nofeed)
            nofeed = (v_rot.T @ nofeed)[r:]
            phi = apply_feedback_to_constraints(phi, v_rot, feed, r, tol)
            poi = None  # new coordinates; the next count rebuilds the brackets
            rows_buf = brackets_buf = None
        if not increased:
            break  # after a flat count, fold in what is solvable, no level
        if index_k >= cap:
            raise NonConvergence(
                f"constraint iteration exceeded {cap} passes; "
                "check the tolerance against the problem scaling"
            )
        index_k += 1
        level = _constraint_rows(state)
        held = phi.n_rows
        rows_buf = _room(rows_buf, held + level.shape[0], held, level.shape[1])
        phi = phi.with_rows(extend_rows(phi.rows, level, tol, out=rows_buf))
        # held rows, implied zero-order rows, two per solved control
        counts.append(phi.n_rows + state.m_cur + 2 * (m - state.m_cur))
        if counts[-1] < counts[-2]:
            raise NonConvergence(
                f"constraint count fell from {counts[-2]} to {counts[-1]} "
                f"at pass {index_k}; check the tolerance against the problem scaling"
            )
        if poi is not None:
            brackets_buf = _room(brackets_buf, state.m_cur + phi.n_rows, poi.shape[0])
        poi = extend_brackets(poi, phi, out=brackets_buf)
        pass_classes.append(class_counts(poi, tol))
        increased = counts[-1] > counts[-2]

    # rp, the rank of the bracket matrix, is the second-class row count;
    # the carried matrix is the one the last count read, and it is stale
    # only when the last pass folded
    if poi is None:
        poi = extend_brackets(None, phi)
        second = class_counts(poi, tol)[1]
    else:
        second = pass_classes[-1][1]
    ext = with_zero_order(phi)
    if second == 0:
        # every row is first class; the projection onto (x, p, u) of any
        # orthonormal basis of the set has singular values 1 and 0 only,
        # so the strip would keep the held rows' blocks, orthonormal already
        phi1, phi2 = ext, ext.with_rows(empty_matrix(ext.rows.shape[1]))
        first = phi.rows[:, : two_n + phi.m_cur]
    else:
        phi1, phi2 = split_first_second(ext, poi, tol)
        first = strip_coisotropic(phi1, tol)

    feedtot = np.vstack(feed_blocks) if feed_blocks else empty_matrix(two_n)
    feedsel = np.vstack(sel_blocks) if sel_blocks else empty_matrix(m)

    hess, w = state.hess, state.w
    return ReductionResult(
        index_k=index_k,
        m_res=state.m_cur,
        rp=phi2.n_rows,
        feedtot=feedtot,
        feedsel=feedsel,
        nofeed=nofeed,
        phi_first=first,
        phi_second=strip_coisotropic(phi2, tol),
        phi_first_ext=phi1,
        phi_second_ext=phi2,
        # G = -J hess and Z = -J w: the same signed swap of row blocks
        ax=hess[n:, :n],
        ap=hess[n:, n:],
        qx=-hess[:n, :n],
        qp=-hess[:n, n:],
        bu=w[n:],
        nu=-w[:n],
        constraint_counts=tuple(counts),
        class_counts=tuple(pass_classes),
        feedback_ranks=tuple(feedback_ranks),
        n=n,
        m=m,
        tol=tol,
    )
