"""Run one lqreduce benchmark workload and print its metrics.

    python3 perfbench/run.py --workload long_chain --seed 1 --seconds 45 --trace 0

Run it from anywhere inside a source checkout; it imports lqreduce from
`src/`.  Workloads: long_chain, wide_few_pass (see README.md beside this
file).  Every process runs with BLAS pinned to one thread, and
the workload is a closed loop with one caller.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run.  Earlier lines give the environment, the first failure reasons
and a readable table.  Exit code 0 means a result was printed; any other
code means none was.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("long_chain", "wide_few_pass")
# fresh interpreters timed for setup_s: this many before the measuring one
# and as many after it, so the samples span the run
SETUP_EACH_SIDE = 4
TIMEOUT = 170.0  # seconds for the whole run, every child process included


class ChildFailed(RuntimeError):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(args: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Run worker.py; return seconds from start to its READY line, and its output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, bufsize=0, env=env, cwd=ROOT,
    )
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    killer.start()
    try:
        # unbuffered, so reading the first line takes nothing that follows it
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest, _ = proc.communicate()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != b"READY" or proc.returncode != 0:
        raise ChildFailed(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return ready, rest.decode()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lqreduce" / "__init__.py").is_file():
        print(f"error: no lqreduce sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind through the finally blocks that stop the worker and clean up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    env = pinned_env()
    deadline = time.monotonic() + TIMEOUT
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    setup = []  # seconds to READY of each timed interpreter

    def time_setup(count):
        for _ in range(0 if args.trace else count):
            ready, _ = spawn(common + ["--setup-only",
                                       "--work", os.path.join(work, f"setup{len(setup)}")],
                             env, deadline)
            setup.append(ready)

    try:
        time_setup(SETUP_EACH_SIDE)
        ready, out = spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                     "--work", os.path.join(work, "run")], env, deadline)
        setup.append(ready)
        time_setup(SETUP_EACH_SIDE)
        report = json.loads(out.strip().splitlines()[-1])
    except (ChildFailed, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = report["values"]
    if not args.trace:
        values["setup_s"] = statistics.median(setup)
    # BENCHMARK.json is the one list of metric names and units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the worker computed no {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print("# environment " + json.dumps(report["environment"]))
    if args.trace:
        print(f"# traced cycles {values['trace.cycles']}")
    for reason in report["replaced"]:
        print(f"# replaced draw {reason}")
    for reason in report["reasons"]:
        print(f"# failure {reason}")
    for name, metric in metrics.items():
        print(f"# {name:48s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({
        # a recorded defect is counted in failed but leaves correct true
        "correct": report["unexpected"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
