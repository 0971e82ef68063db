"""One benchmark process: set up a workload, run it in a closed loop, report.

Started by run.py with BLAS pinned to one thread.  It prints READY once
`import lqreduce` and input generation are done (run.py times set-up up
to that line), then measures and prints one JSON document as its last
line.  Before measuring it screens the large problems (see `screen`).
With --trace 1 it runs each operation both untraced and traced and
reports per-layer figures instead of end-to-end ones.  The figures are
plain values keyed by name; run.py picks the ones BENCHMARK.json names and
adds their units.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import replace

import lqreduce
import lqreduce.cli
import numpy as np
import scipy

from check import (
    OK,
    SWEEP_ROWS,
    Verdict,
    check_chain,
    check_cli_oracle,
    check_cli_reduce,
    check_slope,
    check_sweep,
)
from tracer import Tracer
from workloads import WORKLOADS, make_inputs

# shares of a run's busy time per operation stream
SHARES = {"chain": 0.6, "front": 0.3, "cold": 0.1}
LARGE_SHARE = 0.5  # of a large problem's times, the fastest share that counts
SWEEP_EVERY = 32  # in-process CLI calls between two sweep groups
COLD_RUNS = 5
IMPORTTIME_RUNS = 3
SUBPROCESS_TIMEOUT = 60


class Tally:
    """Operations attempted and failed, with the reasons of the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.reasons = []

    def add(self, verdict, what: str):
        self.attempted += 1
        if verdict.failed:
            self.failed += 1
            self.unexpected += verdict.status == "wrong"
            if len(self.reasons) < 10:
                self.reasons.append(f"{what}: {verdict.status}: {'; '.join(verdict.reasons)}")


class Samples:
    """Timings of one measured or traced pass, keyed by input."""

    def __init__(self):
        self.chain_reduce = defaultdict(list)
        self.chain_oracle = defaultdict(list)
        self.cli_reduce = defaultdict(list)
        self.cli_oracle = defaultdict(list)
        self.sweep = defaultdict(list)
        self.cold = []


def _recording(tracer):
    return tracer.record() if tracer is not None else nullcontext()


def _attempt(fn, *args):
    """Call fn; a raise becomes the returned exception, a failed operation rather than a crash."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def chain_call(case, tracer=None):
    """reduce, recursive_reduce and compare_final_subspaces on one large problem.

    Returns the seconds of `reduce`, the seconds of the oracle check, and
    the verdict.  A call that raises is timed like one that returns, so
    every problem has a sample in both streams and a failure cannot leave
    a faster problem set behind.
    """
    with _recording(tracer):
        t0 = time.perf_counter()
        res = _attempt(lqreduce.reduce, case.problem)
        t1 = time.perf_counter()
        ref = _attempt(lqreduce.recursive_reduce, case.problem)
        angle = None
        if not isinstance(res, Exception) and not isinstance(ref, Exception):
            angle = _attempt(lqreduce.compare_final_subspaces, ref, res)
        t2 = time.perf_counter()
    return t1 - t0, t2 - t1, check_chain(case.expect, res, ref, angle)


def run_chain(case, samples, tally, tracer=None):
    reduce_s, oracle_s, verdict = chain_call(case, tracer)
    samples.chain_reduce[case.key].append(reduce_s)
    samples.chain_oracle[case.key].append(oracle_s)
    tally.add(verdict, case.key)


def screen(inputs, tally):
    """Run each large problem once, untimed, and replace those showing a recorded defect.

    A workload must have no failing operation, so a draw whose faults are
    all recorded reducer defects (status "known", see check.py) gives way
    to the next draw of its family.  The outcome depends on the seed
    alone, so every run with that seed measures the same problems.  A
    draw with any other fault stays in and counts as a wrong answer.
    This is also the large problems' warm-up.  Returns the screened inputs
    and one line per replaced draw.
    """
    families = {family.name: family for family in inputs.families}
    drawn = Counter(case.family for case in inputs.chain)
    chain, replaced = [], []
    for case in inputs.chain:
        verdict = chain_call(case)[2]
        while verdict.status == "known":
            replaced.append(f"{case.key}: {'; '.join(verdict.reasons)}")
            family = families[case.family]
            if drawn[family.name] == len(family.seeds):
                raise RuntimeError(f"every draw of {family.name} shows a recorded defect")
            case = family.draw(drawn[family.name])
            drawn[family.name] += 1
            verdict = chain_call(case)[2]
        if verdict.failed:
            tally.add(verdict, f"{case.key} (screen)")
        chain.append(case)
    return replace(inputs, chain=tuple(chain)), replaced


def cli_call(argv, tracer=None):
    """In-process `lqreduce` call; returns (seconds, exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()), _recording(tracer):
        t0 = time.perf_counter()
        try:
            code = lqreduce.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a failed call, not a crashed run
            code = f"raised {exc!r}"
        elapsed = time.perf_counter() - t0
    return elapsed, code, out.getvalue()


def run_cli(sub, case, samples, tally, tracer=None):
    elapsed, code, out = cli_call([sub, case.path], tracer)
    if sub == "reduce":
        samples.cli_reduce[case.path].append(elapsed)
        verdict = check_cli_reduce(case.expect, code, out)
    else:
        samples.cli_oracle[case.path].append(elapsed)
        verdict = check_cli_oracle(case.expect, code, out)
    tally.add(verdict, f"cli {sub} {os.path.basename(case.path)}")


def run_sweep_group(group, samples, tally, tracer=None):
    """SWEEP_SEEDS experiment calls of one family; the slope is fitted over all."""
    points, passed = [], 0
    for argv in group.argvs:
        elapsed, code, out = cli_call(argv, tracer)
        samples.sweep[argv].append(elapsed)
        verdict, pts = check_sweep(group.expect, code, out)
        tally.add(verdict, " ".join(argv))
        points += pts
        passed += not verdict.failed
    slope = check_slope(points) if passed == len(group.argvs) else OK
    if slope.failed:
        # the individual calls were counted as passing; the pooled fit fails them all
        tally.failed += passed
        tally.unexpected += passed
        tally.reasons.append(f"{group.key}: {'; '.join(slope.reasons)}")


def front_ops(inputs):
    """One cycle of front-end calls: reduce and oracle on every file, sweeps between."""
    ops, groups = [], 0
    for j in range(2 * len(inputs.files)):
        ops.append(("cli", ("reduce", "oracle")[j % 2], inputs.files[j // 2]))
        if (j + 1) % SWEEP_EVERY == 0:
            ops.append(("sweep", None, inputs.sweeps[groups % len(inputs.sweeps)]))
            groups += 1
    while groups < len(inputs.sweeps):
        ops.append(("sweep", None, inputs.sweeps[groups]))
        groups += 1
    return ops


def run_cold(case, samples, tally):
    """Fresh-process `python -m lqreduce.cli reduce` on one of the workload's files."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lqreduce.cli", "reduce", case.path],
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT,
    )
    samples.cold.append(time.perf_counter() - t0)
    tally.add(check_cli_reduce(case.expect, proc.returncode, proc.stdout),
              f"cold reduce {os.path.basename(case.path)}")


def run_op(op, samples, tally, tracer=None):
    kind, sub, item = op
    if kind == "chain":
        run_chain(item, samples, tally, tracer)
    elif kind == "cli":
        run_cli(sub, item, samples, tally, tracer)
    elif kind == "sweep":
        run_sweep_group(item, samples, tally, tracer)
    else:
        run_cold(item, samples, tally)


def best(by_key, share=0.0) -> list:
    """Each input's time at its best: the mean of its fastest `share` of times.

    On a shared host, speed can swing by 2x over minutes as other tenants
    load it, while an input's fastest times barely move, so every time
    metric takes each input at its best over the run.  A small call is
    timed dozens of times in a run and takes its single fastest time
    (share 0).  A large problem is timed only about a dozen times, where
    the single fastest is often a lucky outlier, so it takes the mean of
    its fastest half (LARGE_SHARE).
    """
    out = []
    for times in by_key.values():
        fastest = sorted(times)[:max(1, int(len(times) * share))]
        out.append(statistics.fmean(fastest))
    return out


def rate(by_key, units=1.0, share=0.0):
    """Units per second over one pass of all inputs, each at its best time."""
    return units * len(by_key) / sum(best(by_key, share))


def measure(inputs, seconds, tally):
    """Interleave the workload's operation streams over the whole run.

    Each stream gets its share of the busy time, so every metric samples the
    same stretch of wall time; each stream also completes at least one
    full cycle of its operations.
    """
    streams = {
        "chain": [("chain", None, case) for case in inputs.chain],
        "front": front_ops(inputs),
        "cold": [("cold", None, case) for case in inputs.files[:COLD_RUNS]],
    }
    busy = dict.fromkeys(streams, 0.0)
    done = dict.fromkeys(streams, 0)
    samples = Samples()
    end = time.perf_counter() + seconds
    while True:
        if time.perf_counter() < end:
            candidates = list(streams)
        else:
            candidates = [k for k in streams if done[k] < len(streams[k])]
        if not candidates:
            break
        kind = min(candidates, key=lambda k: busy[k] / SHARES[k])
        ops = streams[kind]
        t0 = time.perf_counter()
        run_op(ops[done[kind] % len(ops)], samples, tally)
        busy[kind] += time.perf_counter() - t0
        done[kind] += 1
    lat = best(samples.cli_reduce) + best(samples.cli_oracle)
    return {
        "reduce_per_s": rate(samples.chain_reduce, share=LARGE_SHARE),
        "oracle_per_s": rate(samples.chain_oracle, share=LARGE_SHARE),
        "sweep_rows_per_s": rate(samples.sweep, SWEEP_ROWS),
        "cli_p50_ms": 1e3 * statistics.median(lat),
        "cli_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[-1],
        "cli_cold_ms": 1e3 * statistics.median(samples.cold),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(summary) -> tuple[dict, dict]:
    """Counts, which repeat exactly for the same operations, and self times."""
    spans, counters = summary["spans"], summary["counters"]
    counts = {f"{name}.calls": span["calls"] for name, span in spans.items()}
    times = {f"{name}.self_s": span["self_s"] for name, span in spans.items()}
    rows_in = counters.get("linalg.independent_rows.rows_in", 0.0)
    rows_out = counters.get("linalg.independent_rows.rows_out", 0.0)
    counts["linalg.independent_rows.rows_in"] = rows_in
    counts["linalg.independent_rows.keep_ratio"] = rows_out / rows_in if rows_in else 0.0
    for name in ("linalg.svd.flops_est", "reduction.passes", "oracle.passes"):
        counts[name] = counters.get(name, 0.0)
    return counts, times


def import_times() -> dict:
    """Cumulative import seconds of lqreduce and of scipy, from -X importtime."""
    scipy_s, lqreduce_s = [], []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import lqreduce"],
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT, check=True,
        )
        entries = []  # (depth, module, cumulative seconds), children before parents
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split(":", 1)[1].split("|")
            if not cumulative.strip().isdigit():
                continue
            depth = (len(name) - len(name.lstrip())) // 2
            entries.append((depth, name.strip(), int(cumulative) / 1e6))
        # a scipy module counts when its importer (the next shallower entry) is not scipy
        total = 0.0
        for i, (depth, name, cum) in enumerate(entries):
            if not name.startswith("scipy"):
                continue
            parent = next((e[1] for e in entries[i + 1:] if e[0] < depth), "")
            if not parent.startswith("scipy"):
                total += cum
        scipy_s.append(total)
        lqreduce_s.append(sum(cum for _, name, cum in entries if name == "lqreduce"))
    return {"import.scipy_s": statistics.median(scipy_s),
            "import.lqreduce_s": statistics.median(lqreduce_s)}


def timed_op(op, tally, tracer=None) -> float:
    with tracer.installed() if tracer is not None else nullcontext():
        t0 = time.perf_counter()
        run_op(op, Samples(), tally, tracer)
        return time.perf_counter() - t0


def trace(inputs, seconds, tally):
    """Run each operation of a fixed cycle twice, untraced and traced.

    Pairing op by op makes the host's speed drift cancel within each pair,
    so trace.overhead_frac compares like with like.  Cycles repeat while a
    further one fits in `seconds`; the counts of every cycle must equal
    those of the first, and a count that differs is a failure.  Self times
    take the median over cycles.
    """
    ops = [("chain", None, case) for case in inputs.chain] + front_ops(inputs)
    tracer = Tracer()
    untraced = traced = 0.0
    first_counts, times = None, []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        tracer.reset()
        for i, op in enumerate(ops):
            # alternate which run goes first, so warm caches favour neither side
            if i % 2:
                traced += timed_op(op, tally, tracer)
            untraced += timed_op(op, tally)
            if not i % 2:
                traced += timed_op(op, tally, tracer)
        counts, cycle_times = layer_metrics(tracer.summary())
        times.append(cycle_times)
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            differ = [f"{k} {counts[k]!r} != {first_counts[k]!r}"
                      for k in counts if counts[k] != first_counts[k]]
            tally.add(Verdict("wrong", tuple(differ[:3])), f"traced cycle {len(times)} counts")
        now = time.perf_counter()
        if now + (now - cycle_start) > start + seconds:
            break
    out = dict(first_counts)
    out.update({name: statistics.median(t[name] for t in times) for name in times[0]})
    out["trace.overhead_frac"] = (traced - untraced) / untraced
    out["trace.cycles"] = len(times)
    out.update(import_times())
    return out


def environment() -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next(
                (ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def warm_up(inputs):
    """Let lazy imports and first-call costs of the front ends finish before timing."""
    cli_call(["reduce", inputs.files[0].path])
    cli_call(["oracle", inputs.files[0].path])
    cli_call(inputs.sweeps[0].argvs[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    inputs = make_inputs(args.workload, args.seed, args.work)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    tally = Tally()
    inputs, replaced = screen(inputs, tally)
    warm_up(inputs)
    values = (trace if args.trace else measure)(inputs, args.seconds, tally)
    print(json.dumps({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "unexpected": tally.unexpected,
        "reasons": tally.reasons,
        "replaced": replaced,
        "values": values,
        "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
