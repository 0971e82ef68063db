"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import lqreduce  # noqa: E402
import lqreduce.cli  # noqa: E402
import numpy as np  # noqa: E402
import pytest  # noqa: E402

from check import (  # noqa: E402
    check_chain,
    check_cli_oracle,
    check_cli_reduce,
    check_slope,
    check_sweep,
    family_expect,
)
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DELTA,
    ChainCase,
    ChainFamily,
    FAMILY1_LARGE,
    WORKLOADS,
    Inputs,
    make_inputs,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fingerprint(inputs) -> str:
    digest = hashlib.sha256()
    for case in inputs.chain:
        digest.update(case.key.encode())
        for block in ("A", "B", "Q", "N", "R"):
            digest.update(getattr(case.problem, block).tobytes())
    for case in inputs.files:
        digest.update(Path(case.path).read_bytes())
        digest.update(repr(case.expect).encode())
    digest.update(repr([g.argvs for g in inputs.sweeps]).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first = fingerprint(make_inputs(workload, 7, str(tmp_path / "a")))
    again = fingerprint(make_inputs(workload, 7, str(tmp_path / "b")))
    other = fingerprint(make_inputs(workload, 8, str(tmp_path / "c")))
    assert first == again
    assert first != other


def cli_output(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = lqreduce.cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def family2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("files") / "family2.json"
    problem = lqreduce.gen_exp2(4)
    path.write_text(json.dumps({k: getattr(problem, k).tolist() for k in "ABQNR"}))
    return str(path)


def test_checker_accepts_correct_cli_output(family2_file):
    expect = family_expect(2, 4)
    assert check_cli_reduce(expect, *cli_output(["reduce", family2_file])).status == "ok"
    assert check_cli_oracle(expect, *cli_output(["oracle", family2_file])).status == "ok"


def test_checker_rejects_hand_made_wrong_cli_output(family2_file):
    expect = family_expect(2, 4)
    code, out = cli_output(["reduce", family2_file])
    doc = json.loads(out)
    assert check_cli_reduce(expect, 2, out).status == "wrong"
    assert check_cli_reduce(expect, 0, out[:-5]).status == "wrong"
    assert check_cli_reduce(expect, 0, json.dumps({**doc, "m_res": 1})).status == "wrong"
    odd = {**doc, "rp": 1, "classification": {"first_class": 0, "second_class": 1}}
    assert check_cli_reduce(expect, 0, json.dumps(odd)).status == "wrong"

    code, out = cli_output(["oracle", family2_file])
    far = {**json.loads(out), "angle": 1e-3}
    assert check_cli_oracle(expect, 0, json.dumps(far)).status == "wrong"
    missing = {**json.loads(out), "angle": "not computable"}
    assert check_cli_oracle(expect, 0, json.dumps(missing)).status == "wrong"


def test_checker_rejects_hand_made_wrong_sweep():
    expect = family_expect(2, 8)
    code, out = cli_output(["experiment", "--family", "2", "--n", "8", "--seed", "3"])
    verdict, points = check_sweep(expect, code, out)
    assert verdict.status == "ok" and len(points) == 5
    lines = out.splitlines()
    row = lines[3].split(",")
    row[3] = str(int(row[3]) + 1)  # steps of the perturbed problem
    broken = "\n".join(lines[:3] + [",".join(row)] + lines[4:])
    assert check_sweep(expect, code, broken)[0].status == "wrong"
    assert check_sweep(expect, 0, "\n".join(lines[:-3]))[0].status == "wrong"
    assert check_slope([(d, d * d) for d, _ in points]).status == "wrong"


def test_checker_rejects_hand_made_wrong_chain_result():
    problem = lqreduce.perturb(lqreduce.gen_exp3(6), DELTA, seed=5, preserve_structure=True)
    res = lqreduce.reduce(problem)
    ref = lqreduce.recursive_reduce(problem)
    angle = lqreduce.compare_final_subspaces(ref, res)
    expect = family_expect(3, 6)
    assert check_chain(expect, res, ref, angle).status == "ok"
    assert check_chain(expect, dataclasses.replace(res, m_res=0), ref, angle).status == "wrong"
    assert check_chain(expect, dataclasses.replace(res, index_k=5), ref, angle).status == "wrong"
    assert check_chain(expect, res, ref, 1e-3).status == "wrong"
    assert check_chain(expect, res, ref, lqreduce.EmptySubspace("x")).status == "wrong"


def test_known_family1_defect_is_flagged_and_replaced_by_the_screen():
    # family 1 at n=160 perturbed with seed 100 takes a spurious extra pass
    expect = family_expect(1, 160, 80, 40)
    family = ChainFamily("family1", lqreduce.gen_exp1(**FAMILY1_LARGE), expect, False,
                         (100, 1000))
    problem = family.draw(0).problem
    res = lqreduce.reduce(problem)
    ref = lqreduce.recursive_reduce(problem)
    angle = lqreduce.compare_final_subspaces(ref, res)
    verdict = check_chain(expect, res, ref, angle)
    assert verdict.failed and verdict.status == "known"
    assert "index_k 4 != 3" in verdict.reasons
    # two spurious passes are the same defect; too few passes are not
    assert check_chain(expect, dataclasses.replace(res, index_k=5), ref, angle).status == "known"
    assert check_chain(expect, dataclasses.replace(res, index_k=2), ref, angle).status == "wrong"

    tally = worker.Tally()
    inputs = Inputs((family.draw(0),), (family,), (), ())
    screened, replaced = worker.screen(inputs, tally)
    assert [case.key for case in screened.chain] == ["family1-1"]
    assert len(replaced) == 1 and replaced[0].startswith("family1-0: index_k 4 != 3")
    assert (tally.attempted, tally.failed) == (0, 0)

    # a family whose every draw shows the defect stops the run
    stuck = dataclasses.replace(family, seeds=(100,))
    with pytest.raises(RuntimeError):
        worker.screen(Inputs((stuck.draw(0),), (stuck,), (), ()), tally)


def test_svd_nonconvergence_is_known_only_from_recursive_reduce():
    # recursive_reduce raises this on the second long_chain problem of seed 11
    # with the OpenBLAS build recorded in README.md; other LAPACK builds may not
    expect = family_expect(3, 6)
    res = lqreduce.reduce(lqreduce.gen_exp3(6))
    error = np.linalg.LinAlgError("SVD did not converge")
    assert check_chain(expect, res, error, None).status == "known"
    assert check_chain(expect, res, ValueError("other"), None).status == "wrong"
    # the same error from reduce, or from a CLI call, is a new failure
    assert check_chain(expect, error, error, None).status == "wrong"
    assert check_cli_reduce(expect, f"raised {error!r}", "").status == "wrong"
    assert check_cli_oracle(expect, f"raised {error!r}", "").status == "wrong"


def test_a_raising_reduce_is_timed_and_counted_as_wrong(monkeypatch):
    problem = lqreduce.perturb(lqreduce.gen_exp3(6), DELTA, seed=5, preserve_structure=True)
    case = ChainCase("family3", 0, problem, family_expect(3, 6))

    def broken(problem):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(lqreduce, "reduce", broken)
    samples, tally = worker.Samples(), worker.Tally()
    worker.run_chain(case, samples, tally)
    assert list(samples.chain_reduce) == list(samples.chain_oracle) == ["family3-0"]
    assert (tally.attempted, tally.failed, tally.unexpected) == (1, 1, 1)


def test_tracer_rebinds_every_import_site_and_restores_them():
    original = lqreduce.linalg.independent_rows
    tracer = Tracer()
    problem = lqreduce.gen_exp3(8)
    counts = []
    with tracer.installed():
        assert lqreduce.reduction.independent_rows is not original
        assert lqreduce.independent_rows is lqreduce.constraints.independent_rows
        for _ in range(2):
            tracer.reset()
            with tracer.record():
                res = lqreduce.reduce(problem)
                res.final_constraints()
            summary = tracer.summary()
            counts.append({k: v["calls"] for k, v in summary["spans"].items()})
    assert lqreduce.reduction.independent_rows is original
    assert counts[0] == counts[1]
    assert counts[0]["reduction.reduce"] == 1
    assert counts[0]["linalg.svd"] > 0
    ids = {span[0] for span in tracer.spans}
    for span_id, parent, name, start, end, self_s in tracer.spans:
        assert parent is None or parent in ids
        assert -1e-9 <= self_s <= end - start + 1e-9
    # the method's call goes through the rebound name, outside any reduce span
    roots = [s for s in tracer.spans if s[1] is None]
    assert [s[2] for s in roots] == [
        "reduction.reduce", "linalg.equilibrate_rows", "linalg.independent_rows"]


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


@pytest.mark.parametrize("workload,trace", [("long_chain", 1), ("wide_few_pass", 0)])
def test_printed_metrics_match_benchmark_json(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert result["correct"] is True
    assert result["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "wide_few_pass", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
