"""Command-line front end: reduce problem files, cross-check, run sweeps.

Problems are JSON documents with keys "A", "B", "Q", "N", "R" (rectangular
arrays of arrays of finite numbers) and an optional "name".  Reports are
JSON on stdout; sweeps are CSV.  Exit codes: 0 success, 1 output pipe
closed by its reader, 2 input error, 3 non-convergence.

The argument parser is built once per process, on the first call of
:func:`main`, and reused: it holds only constants and the subcommands'
functions, so a later call parses as a first one would.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from functools import cache
from itertools import chain

import numpy as np

from .errors import InsufficientData, LQReduceError, NonConvergence, ValidationError
from .experiments import fit_loglog_slope, run_sweep
from .linalg import DEFAULT_TOL, principal_angle
from .model import LQProblem
from .oracle import recursive_reduce
from .reduction import ReductionResult, reduce

_MATRIX_KEYS = ("A", "B", "Q", "N", "R")


class ProblemFileError(ValueError):
    """Raised with a message naming the offending key or structure."""


def load_problem(path: str) -> LQProblem:
    """Parse a problem file, naming the bad field on failure.

    Matrix entries must be JSON numbers, not strings, booleans or null.
    Integers are read as doubles: one beyond double range is inf.
    """
    try:
        with open(path) as handle:
            doc = json.load(handle, parse_int=float)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON, or text that is not UTF-8
        raise ProblemFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFileError(f"{path}: top level must be an object")
    blocks = {}
    for key in _MATRIX_KEYS:
        if key not in doc:
            raise ProblemFileError(f"{path}: missing matrix {key!r}")
        try:
            block = np.asarray(doc[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ProblemFileError(f"{path}: matrix {key!r} is not numeric") from exc
        if block.ndim != 2:
            raise ProblemFileError(f"{path}: matrix {key!r} must be an array of arrays")
        if not set(map(type, chain.from_iterable(doc[key]))) <= {float}:
            raise ProblemFileError(f"{path}: matrix {key!r} has an entry that is not a number")
        if not np.all(np.isfinite(block)):
            raise ProblemFileError(f"{path}: matrix {key!r} contains non-finite entries")
        blocks[key] = block
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ProblemFileError(f"{path}: 'name' must be a string")
    return LQProblem(**blocks, name=name)


def _listify(a: np.ndarray) -> list:
    return np.asarray(a, dtype=float).tolist()


def render_report(result: ReductionResult, name: str | None = None) -> dict:
    """JSON-ready dictionary for a reduction result.

    Matrices round-trip exactly: values are plain floats whose repr encodes
    the full double.
    """
    return {
        "name": name,
        "index_k": result.index_k,
        "m_res": result.m_res,
        "rp": result.rp,
        "classification": {
            "first_class": int(result.phi_first.shape[0]),
            "second_class": int(result.phi_second.shape[0]),
        },
        "feedtot": _listify(result.feedtot),
        "feedsel": _listify(result.feedsel),
        "nofeed": _listify(result.nofeed),
        "phi_first": _listify(result.phi_first),
        "phi_second": _listify(result.phi_second),
        "vector_field": {
            "ax": _listify(result.ax),
            "ap": _listify(result.ap),
            "qx": _listify(result.qx),
            "qp": _listify(result.qp),
            "bu": _listify(result.bu),
            "nu": _listify(result.nu),
        },
    }


def _format_alpha(alpha: float | None) -> str:
    if alpha is None:
        return "not_computable"
    return f"{alpha:.16f}"


def render_csv(records, family: int, n: int, seed: int, tol: float) -> str:
    """CSV document for a sweep, one row per delta, plus a slope comment."""
    lines = [
        f"# family={family} n={n} seed={seed} tol={tol:g}",
        "n,delta,steps_exact,steps,m,m1,rp,rp1,alpha",
    ]
    for rec in records:
        lines.append(
            f"{rec.n},{rec.delta:g},{rec.steps_exact},{rec.steps},"
            f"{rec.m},{rec.m1},{rec.rp},{rec.rp1},{_format_alpha(rec.alpha)}"
        )
    try:
        lines.append(f"# slope={fit_loglog_slope(records):.6f}")
    except InsufficientData:
        pass
    return "\n".join(lines) + "\n"


def _cmd_reduce(args) -> int:
    problem = load_problem(args.path)
    result = reduce(problem, tol=args.tol)
    print(json.dumps(render_report(result, name=problem.name), indent=2))
    return 0


def _cmd_oracle(args) -> int:
    problem = load_problem(args.path)
    result = reduce(problem, tol=args.tol)
    ref = recursive_reduce(problem, tol=args.tol)
    # the same orthonormal rows compare_final_subspaces re-inflates,
    # computed once; both sides are orthonormal, so neither is re-factored
    rows = result.final_constraints_original_controls()
    try:
        angle_out = principal_angle(ref.final_constraints, rows)
    except LQReduceError:
        angle_out = "not computable"
    doc = {
        "name": problem.name,
        "index_k": result.index_k,
        "oracle_index_k": ref.index_k,
        "m_res": result.m_res,
        "oracle_m_res": ref.m_res,
        "rp": result.rp,
        "constraint_rows": int(rows.shape[0]),
        "oracle_constraint_rows": int(ref.final_constraints.shape[0]),
        "angle": angle_out,
    }
    print(json.dumps(doc, indent=2))
    return 0


def _parse_deltas(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ProblemFileError(f"bad --deltas list: {text!r}") from exc


def _cmd_experiment(args) -> int:
    deltas = _parse_deltas(args.deltas)
    records = run_sweep(
        args.family, args.n, deltas, seed=args.seed, tol=args.tol, r=args.r, l=args.l
    )
    if args.format == "json":
        print(json.dumps([dataclasses.asdict(rec) for rec in records], indent=2))
    else:
        sys.stdout.write(render_csv(records, args.family, args.n, args.seed, args.tol))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqreduce",
        description="Reduce singular LQ optimal control problems to a "
        "consistent Hamiltonian form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_reduce = sub.add_parser("reduce", help="reduce a problem file, print a JSON report")
    p_reduce.add_argument("path", help="problem file (JSON with A, B, Q, N, R)")
    p_reduce.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_reduce.set_defaults(func=_cmd_reduce)

    p_oracle = sub.add_parser(
        "oracle", help="run both algorithms on a problem file and compare"
    )
    p_oracle.add_argument("path")
    p_oracle.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_exp = sub.add_parser("experiment", help="perturbation sweep on a problem family")
    p_exp.add_argument("--family", type=int, required=True, choices=(1, 2, 3))
    p_exp.add_argument("--n", type=int, required=True)
    p_exp.add_argument("--r", type=int, default=None, help="rank of R (family 1)")
    p_exp.add_argument("--l", type=int, default=None, help="cost truncation (family 1)")
    p_exp.add_argument(
        "--deltas", default="1e-13,1e-12,1e-11,1e-10,1e-9,1e-8,1e-7,1e-6,1e-5"
    )
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_exp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use."""
    return build_parser()


def _stdout_fd() -> int | None:
    """The file descriptor of stdout, or None for a stream without one."""
    try:
        return sys.stdout.fileno()
    except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        return None


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout's pipe.  As the signal module's notes on
        # SIGPIPE advise, the descriptor is pointed at os.devnull, so the
        # interpreter's last flush has nowhere to fail, and the exit code is
        # 1, without a traceback.  A stream with no descriptor, as an
        # in-process caller redirects it, keeps the error
        fd = _stdout_fd()
        if fd is None:
            raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1
    except (ProblemFileError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size whose arrays cannot be allocated
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
