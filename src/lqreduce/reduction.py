"""Constraint reduction of singular LQ problems with partial feedback.

Starting from the Hamilton equations (x; p)' = G (x; p) + Z u and the
stationarity constraints dH/du = S (x; p) - R u = 0, each iteration
(:func:`step`) splits the control coefficients R by SVD: the range part
solves some rotated controls as linear feedback in (x, p), the cokernel
part yields the next level of constraints, obtained by differentiating
along the (feedback updated) flow.  The running quadratic Hamiltonian's
Hessian M, whose field is G = -J M, is never formed: it is
hess0 = J G0 = [[-Q, A'], [A, 0]] plus one symmetric rank-2r term per
feedback fold, so the loop holds the problem's read-only A and Q and the
fold factors, stacked (:class:`StepState`).  A row c = (c_x, c_p) then
differentiates to the oracle's own product [c_x A + c_p Q, -c_p A'] plus
two thin products through the factors, and the reduced drift blocks are
formed once, at the exit, from the same sum; no 2n x 2n array is made.

The constraint set lives on the symplectically extended space
(x, p, u, v), but beyond the zero-order constraints v = 0, one per
remaining control, no constraint involves v.  So the set is held as one
orthonormal basis of rows over (x, p, u), from seed to split, and the
zero-order rows are implied: they add m_cur to each count, stand first in
the bracket matrix, which reads [[0, -U'], [U, P0]] with U the u block of
the held rows and P0 their own brackets, and join the set only in the
reported first- and second-class sets
(:func:`~lqreduce.constraints.with_zero_order`).

Each rank decision is paid for once, at the size it needs:

- The primary rows [S1, -R] are factored once
  (:func:`~lqreduce.linalg.scaled_row_space`, a QR for a large stack).
  Their orthonormal basis is the held set, and their rows at the data's
  scale seed ``step``: the stack itself at full row rank, since the rank
  and feedback of ``step`` do not change under an orthogonal change of
  rows.
- A pass records only the size of its bracket matrix, and only once the
  next ``step`` shows that the loop goes on, so the last count is the
  split's own rank decision.  Between two folds the set only grows, so
  the passes of such a segment are counted together at its end, from
  leading blocks of one matrix (:func:`~lqreduce.classify.class_counts`),
  built in block form, with one product over (x, p) alone
  (:func:`~lqreduce.classify.bracket_matrix`): at a fold, from the rows
  before it, and at the exit, where the split reads it too.
- At rank 0 every row is first class and the held rows are the stripped
  set; a negligible matrix, as on every chain whose brackets vanish, is
  not even factored.  Otherwise the strip decides on the k x q block of
  the split's coefficients that combines the held rows, rather than on
  k rows over (x, p, u).
- A pass that solves no control and adds one row, every pass of a long
  chain, factors nothing: its rk is negligible, the row takes the one-row
  path of :func:`~lqreduce.linalg.extend_rows`, and no bracket is
  formed.  Such a pass pays for little besides its products: the loop
  enters one ``np.errstate`` for all its passes, and the norms of the
  rank-0 tests come from ``np.vdot``, which reports no overflow.  The
  set is held in the leading rows of a buffer that each pass appends
  to, grown by half when full; a fold starts a new buffer, so no array
  that a pass handed out is written again.

Each fold's feedback rows come as pairs sel . u = feed . (x; p), whose
common sign the SVD picks; the pair is stored with its ``feedsel`` row's
largest entry positive, so ``feedtot`` and ``feedsel`` do not depend on
that pick and ``feedback_law()`` is the same to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import bracket_matrix, class_counts, split_first_second
from .constraints import (
    apply_feedback_to_constraints,
    strip_coisotropic,
    with_zero_order,
)
from .errors import NonConvergence
from .linalg import (
    DEFAULT_TOL,
    _room,
    check_tol,
    empty_matrix,
    equilibrate_rows,
    extend_rows,
    independent_rows,
    negligible,
    rank_svd,
    scaled_row_space,
)
from .model import LQProblem, initial_matrices


# not frozen: a frozen dataclass sets each field through object.__setattr__,
# about 2 us a state on CPython 3.11, where a lean pass of a long chain
# takes about 50 us; step makes a new state each pass and nothing writes one
@dataclass(slots=True)
class StepState:
    """Per-iteration matrices of the reduction.

    They define the running Hamiltonian
    H = z'(hess)z/2 + z'(w)u + u'(p_hess)u/2 over z = (x; p) and the
    remaining m_cur controls, whose field is (x; p)' = G (x; p) + Z u with
    G = -J hess and Z = -J w.  hess is never formed: each fold adds a
    symmetric rank-2r term K F + F'K' to it, so

        hess = hess0 + [K_1, F_1', ...] [F_1; K_1'; ...],
        G = G0 - left right,

    with hess0 = [[-Q, A'], [A, 0]] and G0 = [[A, 0], [Q, -A']] read from
    the problem's own read-only blocks a = A and q = Q, left = J [K_1,
    F_1', ...] (2n x 2R) and right = [F_1; K_1'; ...] (2R x 2n) over the
    R controls solved so far.  w_jw = [w; J w] (4n x m_cur) holds w with
    J w below it, and p_hess = d2H/du2 (initially -R).  s/rk are the
    coefficients of the current constraint level s (x; p) - rk u = 0.
    """

    a: np.ndarray
    q: np.ndarray
    left: np.ndarray
    right: np.ndarray
    w_jw: np.ndarray
    s: np.ndarray
    rk: np.ndarray
    p_hess: np.ndarray

    @property
    def m_cur(self) -> int:
        return self.w_jw.shape[1]


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
            i of feedtot reads  feedsel[i] . u = feedtot[i] . (x; p).  The
            entry of largest magnitude of each feedsel row is positive.
        nofeed: m_res x m selector of the residual free controls,
            u_res = nofeed . u.
        phi_first/phi_second: first/second-class constraint rows over the
            reduced coordinates (x, p, u_res), coisotropic columns stripped.
            Each set's rows are orthonormal: the held rows themselves when
            no bracket survives (rp = 0), else an orthonormal basis of the
            stripped rows (:func:`~lqreduce.constraints.strip_coisotropic`).
        phi_first_ext/phi_second_ext: the same sets before stripping, plain
            arrays over (x, p, u_res, v_res) with 2n + 2 m_res columns;
            ``classify.poisson_brackets(rows, n)`` gives their brackets.
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
    phi_first_ext: np.ndarray
    phi_second_ext: np.ndarray
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
        recursive algorithm finds.  The rows returned are orthonormal.

        The first nonempty set of phi_first and phi_second, pulled back as
        [phi[:, :2n], phi[:, 2n:] @ nofeed], is the basis as it stands:
        its rows are orthonormal because those of phi and of nofeed are.
        The other set and the feedback relations are appended with
        :func:`~lqreduce.linalg.extend_rows`, which factors only the
        residual that each adds, at the reduction's own tolerance.  A
        chain, one set and no feedback, is not factored at all.
        """
        two_n = 2 * self.n
        basis = empty_matrix(two_n + self.m)
        for phi in (self.phi_first, self.phi_second):
            if phi.shape[0]:
                pulled = np.hstack([phi[:, :two_n], phi[:, two_n:] @ self.nofeed])
                basis = extend_rows(basis, pulled, self.tol) if basis.shape[0] else pulled
        if self.feedtot.shape[0]:
            basis = extend_rows(
                basis, np.hstack([-self.feedtot, self.feedsel]), self.tol
            )
        return basis


def step(
    state: StepState, tol: float = DEFAULT_TOL
) -> tuple[StepState, np.ndarray, np.ndarray, int]:
    """One iteration of the matrix recursion on the Hessian blocks.

    Returns ``(state', feed, v_rot, r)`` where r is the rank of the current
    control coefficients rk and v_rot = V from their SVD rk = U Sigma V'
    (:func:`~lqreduce.linalg.rank_svd`, the identity for a negligible rk),
    which ``reduce`` reads only when r > 0.  For r > 0 the SVD splits the
    rotated controls: the first r satisfy (V' u)[:r] = feed (x; p) with
    feed = Sigma^{-1} (U' s)[:r], and the cokernel rows s_c = (U' s)[r:]
    are differentiated along the updated flow.  For r = 0 the rows s are
    differentiated as they are, with no feedback and no change to the
    Hessian blocks.

    Eliminating the solved controls from the quadratic Hamiltonian
    H = z'Mz/2 + z'Wu + u'Pu/2 (z = (x; p), M = hess, W = w, P = p_hess)
    gives, in rotated control blocks, M' = M + W1 F + F'W1' + F'P11 F,
    W' = W2 + F'P12 and P' = P22.  M' is M + [K, F'] [F; K'] with
    K = W1 + F'P11/2, which also averages P11's rounding asymmetry out of
    it; the fold appends J K and J F' to ``left`` and F and K' to
    ``right``, and holds J W' below W'.  J X = [-X_p; X_x] is a copy of
    X's rows with one block negated, not a product.  The field
    z' = -J (M' z + W' u) agrees with the bare substitution of the
    feedback on the constraint subspace (they differ by multiples of
    already-found constraints).  A row c = (c_x, c_p) acting on z
    therefore has the time derivative -c J (M' z + W' u):
    s' = [c_x A + c_p Q, -c_p A'] - (c left) right, the first term the
    oracle's own product, and rk' = c J W'.  Held premultiplied by J,
    the factors and w need no swap of c.
    """
    a, q, left, right, w_jw, p_hess, rows = (
        state.a, state.q, state.left, state.right, state.w_jw, state.p_hess, state.s)
    n = a.shape[0]
    two_n = 2 * n
    u, sig, vt, r = rank_svd(state.rk, tol, full_matrices=True)
    v_rot = vt.T
    if r == 0:
        feed = right[:0]  # no control solved: a 0 x 2n view
    else:
        feed = (u[:, :r].T @ rows) / sig[:r, None]
        ft = feed.T
        w_rot = w_jw[:two_n] @ v_rot
        p_rot = v_rot.T @ p_hess @ v_rot
        k = w_rot[:, :r] + ft @ (p_rot[:r, :r] / 2.0)
        w = w_rot[:, r:] + ft @ p_rot[:r, r:]
        # J X = [-X_p; X_x], a copy of rows, not a product
        k_f = np.concatenate((k, ft), axis=1)
        left = np.concatenate((left, np.concatenate((-k_f[n:], k_f[:n]))), axis=1)
        right = np.concatenate((right, feed, k.T))
        w_jw = np.concatenate((w, -w[n:], w[:n]))
        p_hess = (p_rot[r:, r:] + p_rot[r:, r:].T) / 2.0
        rows = u[:, r:].T @ state.s
    cx, cp = rows[:, :n], rows[:, n:]
    s = np.concatenate((cx.dot(a) + cp.dot(q), (-cp).dot(a.T)), axis=1)
    if right.shape[0]:
        s -= rows.dot(left).dot(right)
    new_state = StepState(a, q, left, right, w_jw, s, rows.dot(w_jw[two_n:]), p_hess)
    return new_state, feed, v_rot, r


def _sign_canonical(sel: np.ndarray, feed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sel, feed)`` with each row pair's sign fixed by its ``sel`` row.

    A pair of rows sel[i] . u = feed[i] . (x; p) holds for either sign,
    and the SVD that finds it picks one.  The pairs whose ``sel`` row has a
    negative entry of largest magnitude (the first such, on a tie) are
    negated, both rows at once, so the rows do not depend on that choice
    and their products sel' feed keep every bit.
    """
    rows = np.arange(sel.shape[0])
    flip = sel[rows, np.abs(sel).argmax(axis=1)] < 0
    return np.where(flip[:, None], -sel, sel), np.where(flip[:, None], -feed, feed)


def reduce(problem: LQProblem, tol: float = DEFAULT_TOL) -> ReductionResult:
    """Reduce an LQ problem to its consistent Hamiltonian form.

    Each pass solves what it can of the current control coefficients as
    partial feedback and folds it into the held set
    (:func:`~lqreduce.constraints.apply_feedback_to_constraints`), extends
    the set by what the next constraint level adds
    (:func:`~lqreduce.linalg.extend_rows`).  The loop runs while some
    control is unsolved and the previous pass raised the effective count
    of independent constraints: the rows held, plus one zero-order row per
    remaining control, plus two per solved control.  A regular problem
    solves every control on its first pass, where its primary rows fold to
    zero.  After a flat-count pass a feedback that is still solvable is
    folded in before the loop exits, without a new constraint level.

    Only the final set, zero-order rows included, is split into first and
    second class (:func:`~lqreduce.classify.split_first_second`), by one
    factorization of the final set's bracket matrix, which is the last
    pass's count as well; when the last pass folded, it was counted before
    the fold, from the rows the fold took.  The
    coisotropic columns are then stripped from the reported sets
    (:func:`~lqreduce.constraints.strip_coisotropic`).

    Raises InvalidTolerance unless ``tol`` is a finite, positive real
    number, and NonConvergence if the loop exceeds 2(n + m) + 2 passes, the
    constraint count falls, which consistent linear data cannot do, or a new
    level overflows to non-finite coefficients; the problem data is not
    checked again (LQProblem checks it when it is built).
    """
    check_tol(tol)
    n, m = problem.n, problem.m
    two_n = 2 * n
    init = initial_matrices(problem)

    # the primary rows over (x, p, u), whose u coefficient is -R, factored
    # once: rows, an orthonormal basis of their span, seeds the constraint
    # set that every later pass keeps orthonormal, and sr spans it at the
    # data's scale for step (the stack itself at full row rank).  The
    # zero-order rows v = 0 are implied (see with_zero_order)
    sr, rows = scaled_row_space(np.hstack([init.s1, -init.r1]), tol)
    # w = J Z0 = s1' by the primary-constraint identity, so J w = -Z0; no
    # control is solved yet, so there are no fold factors
    state = StepState(
        problem.A, problem.Q, np.zeros((two_n, 0)), empty_matrix(two_n),
        np.vstack([init.s1.T, -problem.B, -problem.N]),
        sr[:, :two_n], -sr[:, two_n:], -init.r1,
    )

    feed_blocks: list[np.ndarray] = []
    sel_blocks: list[np.ndarray] = []
    nofeed = np.eye(m)

    counts = [m + rows.shape[0]]
    # a pass's bracket matrix is counted once the next step shows that the
    # loop goes on; the last one is counted by the split's factorization.
    # Those since the last fold are the leading blocks, of these sizes, of
    # the matrix of the set held at the segment's end
    sizes: list[int] = []
    pass_classes: list[tuple[int, int]] = []
    feedback_ranks: list[int] = []

    index_k = 0
    cap = 2 * (n + m) + 2
    increased = True
    m_cur = m
    folded_exit = False
    # each pass appends to this buffer, which holds the set's rows in its
    # leading rows; a fold starts a new one, so no array handed out of a
    # pass is written again
    rows_buf = None
    # an overflowing product leaves inf or NaN in a new level or fold,
    # which extend_rows or the fold's equilibration rejects with
    # NonConvergence; the state is entered once, not once a pass
    with np.errstate(over="ignore", invalid="ignore"):
        while m_cur:
            nxt, feed, v_rot, r = step(state, tol)
            if r == 0 and not increased:
                break  # flat count and nothing left to solve
            sizes.append(m_cur + rows.shape[0])
            state = nxt
            feedback_ranks.append(r)
            if r > 0:
                pass_classes += class_counts(bracket_matrix(rows, n), sizes, tol)
                sizes = []
                m_cur -= r
                sel, signed_feed = _sign_canonical(v_rot.T[:r] @ nofeed, feed)
                sel_blocks.append(sel)
                feed_blocks.append(signed_feed)
                nofeed = (v_rot.T @ nofeed)[r:]
                rows = apply_feedback_to_constraints(rows, n, v_rot, feed, r, tol)
                rows_buf = None
            if not increased:
                # after a flat count, fold in what is solvable, no level;
                # this pass folded, so it is counted already
                folded_exit = True
                break
            if index_k >= cap:
                raise NonConvergence(
                    f"constraint iteration exceeded {cap} passes; "
                    "check the tolerance against the problem scaling"
                )
            index_k += 1
            level = np.concatenate((state.s, -state.rk), axis=1)
            held = rows.shape[0]
            rows_buf = _room(rows_buf, held + level.shape[0], held, level.shape[1])
            rows = extend_rows(rows, level, tol, out=rows_buf)
            # held rows, implied zero-order rows, two per solved control
            counts.append(rows.shape[0] + m_cur + 2 * (m - m_cur))
            if counts[-1] < counts[-2]:
                raise NonConvergence(
                    f"constraint count fell from {counts[-2]} to {counts[-1]} "
                    f"at pass {index_k}; check the tolerance against the problem scaling"
                )
            increased = counts[-1] > counts[-2]

    # rp, the rank of the bracket matrix, is the second-class row count.
    # Unless the last pass folded, and was counted at its fold, the split's
    # one factorization decides the last count too
    poi = bracket_matrix(rows, n)
    # one norm of the last matrix tells the split, and the counts of the
    # segment's passes before the last (none after a fold), whether its
    # brackets vanish
    quiet = negligible(poi, tol)
    if sizes:
        pass_classes += class_counts(poi, sizes, tol, quiet)
    first_c, second_c = split_first_second(poi, tol, quiet)
    if not folded_exit:
        pass_classes.append((first_c.shape[0], second_c.shape[0]))
    if second_c.shape[0] == 0:
        # every row is first class; the projection onto (x, p, u) of any
        # orthonormal basis of the set has singular values 1 and 0 only,
        # so the strip would keep the held rows, orthonormal already
        phi1, first = with_zero_order(rows, n), rows
    else:
        phi1 = with_zero_order(rows, n, first_c)
        first = strip_coisotropic(first_c, rows, tol)
    phi2 = with_zero_order(rows, n, second_c)

    feedtot = np.vstack(feed_blocks) if feed_blocks else empty_matrix(two_n)
    feedsel = np.vstack(sel_blocks) if sel_blocks else empty_matrix(m)

    # G = G0 - left right = [[A, 0], [Q, -A']] - left right, each block
    # formed in place in its own product; qp is formed as its transpose,
    # so that A is read in memory order
    lx, lp = state.left[:n], state.left[n:]
    rx, rp = state.right[:, :n], state.right[:, n:]
    ax, ap, qx, qp_t = lx.dot(rx), lx.dot(rp), lp.dot(rx), rp.T.dot(lp.T)
    np.subtract(problem.A, ax, ax)
    np.negative(ap, ap)
    np.subtract(problem.Q, qx, qx)
    qp_t += problem.A
    np.negative(qp_t, qp_t)
    w = state.w_jw[:two_n]
    return ReductionResult(
        index_k=index_k,
        m_res=state.m_cur,
        rp=second_c.shape[0],
        feedtot=feedtot,
        feedsel=feedsel,
        nofeed=nofeed,
        phi_first=first,
        phi_second=strip_coisotropic(second_c, rows, tol),
        phi_first_ext=phi1,
        phi_second_ext=phi2,
        ax=ax,
        ap=ap,
        qx=qx,
        qp=qp_t.T,
        # Z = -J w
        bu=w[n:],
        nu=-w[:n],
        constraint_counts=tuple(counts),
        class_counts=tuple(pass_classes),
        feedback_ranks=tuple(feedback_ranks),
        n=n,
        m=m,
        tol=tol,
    )
