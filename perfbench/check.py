"""Output checks for the benchmark, independent of the reducer's own code.

Every check compares a result against facts the benchmark knows on its own:
the closed-form structure of each problem family, the reference algorithm
(`recursive_reduce`), and properties any correct answer has (an even
second-class count, a perturbation slope near 1).  Ranks are taken with
numpy directly, never through `lqreduce.linalg`.

A check returns a `Verdict`.  `status` is "ok", "known" or "wrong"; "known"
marks one of the two recorded reducer defects (see `_verdict`), which
counts as a failure like "wrong" does but is not a new one.  worker.py
replaces a large problem that shows one before it measures.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

TOL = 1e-6
MAX_ANGLE = 1e-6
SLOPE_RANGE = (0.85, 1.15)
# deltas well below TOL, where the structure must be exact; the slope fit
# leaves out 1e-13, whose angles sit near the rounding floor
STABLE_DELTAS = (1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8)
SLOPE_DELTAS = (1e-12, 1e-11, 1e-10, 1e-9, 1e-8)
SWEEP_ROWS = 9  # the CLI's default delta list

@dataclass(frozen=True)
class Expect:
    """What a correct reduction of one problem must report.

    `family` is 1, 2 or 3, one of the paper's families; the fields hold
    its closed-form structure.  `rp` is None where no closed form exists.
    """

    family: int
    n: int
    m: int
    index_k: int
    m_res: int
    rp: int | None


@dataclass(frozen=True)
class Verdict:
    status: str
    reasons: tuple = ()

    @property
    def failed(self) -> bool:
        return self.status != "ok"


OK = Verdict("ok")


def family_expect(family: int, n: int, r: int | None = None, l: int | None = None) -> Expect:
    """Closed-form structure of the three experiment families."""
    if family == 1:
        return Expect(1, n, n, 3, n - r - l, None)
    if family == 2:
        return Expect(2, n, 1, 3, 0, 2)
    if family == 3:
        return Expect(3, n, 1, n, 1, 0)
    raise ValueError(f"unknown family {family}")


def numpy_rank(a: np.ndarray, tol: float = TOL) -> int:
    if a.size == 0:
        return 0
    return int(np.count_nonzero(np.linalg.svd(a, compute_uv=False) > tol))


def oracle_m_res(final_constraints: np.ndarray, n: int, m: int) -> int:
    """Residual controls seen by the reference algorithm: m - rank of the u block."""
    return m - numpy_rank(final_constraints[:, 2 * n:])


# LAPACK's divide-and-conquer SVD (gesdd, used by numpy.linalg.svd) fails to
# converge on some finite constraint stacks that recursive_reduce builds; the
# package does not catch it.  Only this reason, from check_chain, is known:
# the same error raised by `reduce` or by a CLI call is a new failure.
KNOWN_ORACLE_RAISE = "recursive_reduce raised LinAlgError('SVD did not converge')"


def _verdict(reasons: list[str], expect: Expect) -> Verdict:
    """"known" when every fault is one of the two recorded reducer defects.

    1. Family 1 perturbed at delta = 1e-10, four decades below TOL, can take
       spurious extra passes (index_k 4, or rarely 5, instead of 3), show an
       odd second-class count on a pass, or both, while m_res, rp and the
       final subspace stay right.
    2. `recursive_reduce` raising an SVD that does not converge on a large
       problem (see KNOWN_ORACLE_RAISE).
    """
    if not reasons:
        return OK

    def extra_passes(reason):
        # "index_k K != k" with K > k
        words = reason.split()
        return words[0] == "index_k" and words[1].isdigit() and int(words[1]) > expect.index_k

    def known(reason):
        if reason == KNOWN_ORACLE_RAISE:
            return True
        return expect.family == 1 and (
            extra_passes(reason) or reason.startswith("odd second-class"))

    return Verdict("known" if all(map(known, reasons)) else "wrong", tuple(reasons))


def _structure(expect: Expect, index_k, m_res, rp, second_counts) -> list[str]:
    reasons = []
    if index_k != expect.index_k:
        reasons.append(f"index_k {index_k} != {expect.index_k}")
    if m_res != expect.m_res:
        reasons.append(f"m_res {m_res} != {expect.m_res}")
    if expect.rp is not None and rp != expect.rp:
        reasons.append(f"rp {rp} != {expect.rp}")
    if rp % 2:
        reasons.append(f"rp {rp} is odd")
    odd = [c for c in second_counts if c % 2]
    if odd:
        reasons.append(f"odd second-class count {odd[0]}")
    return reasons


def check_chain(expect: Expect, res, ref, angle) -> Verdict:
    """Check `reduce`, `recursive_reduce` and their comparison on one problem.

    `res` and `ref` are the results, or the exceptions the calls raised;
    `angle` is the float from `compare_final_subspaces`, the exception it
    raised, or None when it was not called.
    """
    reasons = []
    if isinstance(res, Exception):
        reasons.append(f"reduce raised {res!r}")
    else:
        seconds = [c[1] for c in res.class_counts] + [res.phi_second.shape[0]]
        reasons += _structure(expect, res.index_k, res.m_res, res.rp, seconds)
        if res.rp != res.phi_second.shape[0]:
            reasons.append(f"rp {res.rp} != second-class rows {res.phi_second.shape[0]}")
    if isinstance(ref, Exception):
        reasons.append(f"recursive_reduce raised {ref!r}")
    else:
        ref_m_res = oracle_m_res(ref.final_constraints, expect.n, expect.m)
        if ref_m_res != expect.m_res:
            reasons.append(f"oracle m_res {ref_m_res} != {expect.m_res}")
    if isinstance(angle, Exception):
        reasons.append(f"angle not computable: {angle!r}")
    elif angle is not None and not angle <= MAX_ANGLE:
        reasons.append(f"oracle angle {angle:.3g} > {MAX_ANGLE:g}")
    return _verdict(reasons, expect)


def _parse_json(code: int, out: str):
    if code != 0:
        return None, [f"exit code {code}"]
    try:
        return json.loads(out), []
    except json.JSONDecodeError as exc:
        return None, [f"unparseable JSON: {exc}"]


def check_cli_reduce(expect: Expect, code: int, out: str) -> Verdict:
    """Check the JSON report of `lqreduce reduce`."""
    doc, reasons = _parse_json(code, out)
    if doc is None:
        return Verdict("wrong", tuple(reasons))
    try:
        second = doc["classification"]["second_class"]
        reasons = _structure(expect, doc["index_k"], doc["m_res"], doc["rp"], [second])
        if doc["rp"] != second:
            reasons.append(f"rp {doc['rp']} != second-class rows {second}")
        if len(doc["phi_second"]) != second:
            reasons.append("phi_second does not match the classification count")
    except (KeyError, TypeError) as exc:
        return Verdict("wrong", (f"malformed report: {exc!r}",))
    return _verdict(reasons, expect)


def check_cli_oracle(expect: Expect, code: int, out: str) -> Verdict:
    """Check the JSON document of `lqreduce oracle`."""
    doc, reasons = _parse_json(code, out)
    if doc is None:
        return Verdict("wrong", tuple(reasons))
    try:
        reasons = _structure(expect, doc["index_k"], doc["m_res"], doc["rp"], [])
        angle = doc["angle"]
        if not isinstance(angle, float) or not angle <= MAX_ANGLE:
            reasons.append(f"oracle angle {angle!r} is not <= {MAX_ANGLE:g}")
    except (KeyError, TypeError) as exc:
        return Verdict("wrong", (f"malformed oracle document: {exc!r}",))
    return _verdict(reasons, expect)


def check_sweep(expect: Expect, code: int, out: str) -> tuple[Verdict, list]:
    """Check the CSV of `lqreduce experiment` with the default deltas.

    Returns the verdict and the (delta, alpha) points on the slope deltas,
    which `check_slope` fits once several seeds are pooled.
    """
    if code != 0:
        return Verdict("wrong", (f"exit code {code}",)), []
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    try:
        rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
        if len(rows) != SWEEP_ROWS:
            return Verdict("wrong", (f"{len(rows)} sweep rows, expected {SWEEP_ROWS}",)), []
        reasons = []
        points = []
        for row in rows:
            delta = float(row["delta"])
            exact = (int(row["steps_exact"]), int(row["m"]), int(row["rp"]))
            reasons += _structure(expect, *exact, [])
            if delta in STABLE_DELTAS:
                got = (int(row["steps"]), int(row["m1"]), int(row["rp1"]))
                if got != exact:
                    reasons.append(f"delta={delta:g}: structure {got} != {exact}")
            if delta in SLOPE_DELTAS:
                if row["alpha"] == "not_computable":
                    reasons.append(f"delta={delta:g}: angle not computable")
                else:
                    points.append((delta, float(row["alpha"])))
    except (KeyError, ValueError) as exc:
        return Verdict("wrong", (f"malformed sweep CSV: {exc!r}",)), []
    if reasons:
        return Verdict("wrong", tuple(reasons[:3])), []
    return OK, points


def check_slope(points: list) -> Verdict:
    """Pooled log-log slope of angle against delta must lie in SLOPE_RANGE."""
    pts = [(d, a) for d, a in points if a > 0.0]
    if len(pts) < 2:
        return Verdict("wrong", ("fewer than two positive angles to fit",))
    xs, ys = np.log10(np.array(pts)).T
    slope = float(np.polyfit(xs, ys, 1)[0])
    lo, hi = SLOPE_RANGE
    if not lo <= slope <= hi:
        return Verdict("wrong", (f"sweep slope {slope:.3f} outside [{lo}, {hi}]",))
    return OK
