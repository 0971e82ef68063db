import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lqreduce
from lqreduce import cli, gen_exp1, gen_exp2, reduce, reduction, subspace_angle
from lqreduce.cli import load_problem, main, render_report


def write_problem(path, a, b, q, n, r, name=None):
    doc = {"A": a, "B": b, "Q": q, "N": n, "R": r}
    if name is not None:
        doc["name"] = name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def regular_file(tmp_path):
    return write_problem(
        tmp_path / "regular.json", [[0.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]],
        name="regular-1x1",
    )


@pytest.fixture
def singular_file(tmp_path):
    return write_problem(
        tmp_path / "singular.json", [[0.0]], [[1.0]], [[1.0]], [[0.0]], [[0.0]]
    )


class TestCmdReduce:
    def test_regular_report(self, regular_file, capsys):
        assert main(["reduce", regular_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "regular-1x1"
        assert doc["index_k"] == 1
        assert doc["m_res"] == 0
        assert doc["classification"] == {"first_class": 0, "second_class": 0}
        assert doc["phi_first"] == [] and doc["phi_second"] == []

    def test_singular_report(self, singular_file, capsys):
        assert main(["reduce", singular_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["index_k"] == 3
        assert doc["m_res"] == 0
        constraints = np.array(doc["phi_second"])
        assert subspace_angle(constraints, np.eye(2), 1e-6) < 1e-10
        assert_allclose(np.array(doc["feedtot"]), np.zeros((1, 2)), atol=1e-12)

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["reduce", str(bad)]) == 2
        assert "bad.json" in capsys.readouterr().err

    def test_not_utf8_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"name": "\xe9"}')
        assert main(["reduce", str(bad)]) == 2
        assert "latin1.json" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reduce", "oracle"])
    @pytest.mark.parametrize(
        "key, entry", [("A", "1"), ("B", True), ("Q", None)],
        ids=["string", "boolean", "null"],
    )
    def test_entry_that_is_not_a_number_exit_2(
        self, tmp_path, capsys, command, key, entry
    ):
        # numpy reads "1" and true as 1.0; a problem file must not
        doc = {"A": [[1]], "B": [[1]], "Q": [[1]], "N": [[0]], "R": [[0]]}
        doc[key] = [[entry]]
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"matrix '{key}' has an entry that is not a number" in captured.err

    @pytest.mark.parametrize("command", ["reduce", "oracle"])
    def test_integer_beyond_double_range_exit_2(self, tmp_path, capsys, command):
        # 10**400 has no double; it is non-finite, as 1e400 is
        path = write_problem(
            tmp_path / "huge_int.json", [[10**400]], [[1]], [[1]], [[0]], [[0]]
        )
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "matrix 'A' contains non-finite entries" in captured.err

    def test_integers_within_double_range_load(self, tmp_path, capsys):
        path = write_problem(
            tmp_path / "ints.json", [[10**300]], [[2**53 + 1]], [[1]], [[0]], [[0]]
        )
        prob = load_problem(path)
        assert prob.A[0, 0] == float(10**300) and prob.B[0, 0] == float(2**53 + 1)
        path = write_problem(tmp_path / "small.json", [[0]], [[1]], [[1]], [[0]], [[0]])
        assert main(["reduce", path]) == 0
        assert json.loads(capsys.readouterr().out)["index_k"] == 3

    def test_missing_key_named(self, tmp_path, capsys):
        bad = tmp_path / "nokey.json"
        bad.write_text(json.dumps({"A": [[0.0]], "B": [[1.0]]}))
        assert main(["reduce", str(bad)]) == 2
        assert "'Q'" in capsys.readouterr().err

    def test_invalid_problem_exit_2(self, tmp_path, capsys):
        path = write_problem(
            tmp_path / "asym.json",
            [[0.0, 0.0], [0.0, 0.0]],
            [[1.0], [0.0]],
            [[0.0, 1.0], [0.0, 0.0]],
            [[0.0], [0.0]],
            [[1.0]],
        )
        assert main(["reduce", path]) == 2
        assert "symmetric" in capsys.readouterr().err

    def test_huge_asymmetric_problem_exit_2(self, tmp_path, capsys):
        # both norms of this Q overflow; its asymmetry must still be seen
        path = write_problem(
            tmp_path / "huge_asym.json",
            [[0.0, 0.0], [0.0, 0.0]],
            [[1.0], [0.0]],
            [[1e200, 1e200], [0.0, 1e200]],
            [[0.0], [0.0]],
            [[1.0]],
        )
        assert main(["reduce", path]) == 2
        assert "symmetric" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reduce", "oracle"])
    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tolerance_exit_2(self, singular_file, capsys, command, tol):
        assert main([command, singular_file, f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance" in captured.err

    def test_falling_constraint_count_exit_3(self, singular_file, capsys, monkeypatch):
        # a constraint count that falls is a broken loop invariant
        monkeypatch.setattr(reduction, "extend_rows", lambda basis, rows, tol, out=None: basis[:-1])
        assert main(["reduce", singular_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "constraint count fell" in captured.err

    # A = diag(1e200, 1) puts coefficients near 1e400 in the third
    # constraint level, and B = N = (1e300, 1)' in the second; neither is
    # representable
    @pytest.mark.parametrize("command", ["reduce", "oracle"])
    @pytest.mark.parametrize(
        "b, nm", [([[1.0], [1.0]], [[0.0], [0.0]]), ([[1e300], [1.0]], [[1e300], [1.0]])],
        ids=["large-drift", "large-control"],
    )
    def test_overflowing_level_exit_3(self, tmp_path, capsys, command, b, nm):
        path = write_problem(
            tmp_path / "overflow.json", [[1e200, 0.0], [0.0, 1.0]], b,
            [[1.0, 0.0], [0.0, 1.0]], nm, [[0.0]],
        )
        assert main([command, path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: constraint rows with non-finite")
        assert captured.err.count("\n") == 1


class TestCmdOracle:
    def test_family2_agreement(self, tmp_path, capsys):
        p = gen_exp2(5)
        path = write_problem(
            tmp_path / "exp2.json",
            p.A.tolist(), p.B.tolist(), p.Q.tolist(), p.N.tolist(), p.R.tolist(),
        )
        assert main(["oracle", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["index_k"] == 3 and doc["oracle_index_k"] == 3
        assert float(doc["angle"]) < 1e-8

    def test_family3_agreement(self, tmp_path, capsys):
        from lqreduce import gen_exp3

        p = gen_exp3(5)
        path = write_problem(
            tmp_path / "exp3.json",
            p.A.tolist(), p.B.tolist(), p.Q.tolist(), p.N.tolist(), p.R.tolist(),
        )
        assert main(["oracle", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["index_k"] == 5 and doc["oracle_index_k"] == 5
        assert float(doc["angle"]) < 1e-8

    def test_oracle_residual_controls(self, tmp_path, capsys):
        # family 3 solves no control; family 2 solves its only one
        from lqreduce import gen_exp3

        for p, m_res in ((gen_exp3(4), 1), (gen_exp2(4), 0)):
            path = write_problem(
                tmp_path / "p.json",
                p.A.tolist(), p.B.tolist(), p.Q.tolist(), p.N.tolist(), p.R.tolist(),
            )
            assert main(["oracle", path]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["m_res"] == m_res and doc["oracle_m_res"] == m_res

    def test_oracle_constraint_rows(self, tmp_path, capsys):
        # both row counts are printed, so a rank mismatch shows next to the angle
        from lqreduce import gen_exp3, recursive_reduce

        p = gen_exp3(4)
        path = write_problem(
            tmp_path / "exp3.json",
            p.A.tolist(), p.B.tolist(), p.Q.tolist(), p.N.tolist(), p.R.tolist(),
        )
        assert main(["oracle", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        rows = reduce(p).final_constraints_original_controls().shape[0]
        oracle_rows = recursive_reduce(p).final_constraints.shape[0]
        assert doc["constraint_rows"] == rows
        assert doc["oracle_constraint_rows"] == oracle_rows
        assert rows == oracle_rows

    @pytest.mark.xfail(
        strict=True,
        reason="absolute rank tolerance on mixed-scale data: with a drift "
        "entry of 1e100 reduce solves the control the oracle leaves free "
        "(ROADMAP item 4)",
    )
    def test_oracle_mixed_scale_residual_controls(self, tmp_path, capsys):
        # the two routes disagree on the residual control count while their
        # final subspaces agree to rounding, so only m_res shows it
        path = write_problem(
            tmp_path / "mixed.json",
            [[1e100, 0.0], [0.0, 1.0]], [[1.0], [1.0]], [[1.0, 0.0], [0.0, 1.0]],
            [[0.0], [0.0]], [[0.0]],
        )
        assert main(["oracle", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert float(doc["angle"]) < 1e-12
        assert doc["m_res"] == doc["oracle_m_res"]

    def test_oracle_family3_n2_draw_matches(self, tmp_path, capsys):
        # a tiny draw near the rank tolerance, where a full-stack oracle took
        # a spurious extra pass
        from lqreduce import gen_exp3, perturb

        p = perturb(gen_exp3(2), 1e-10, seed=7, preserve_structure=True)
        path = write_problem(
            tmp_path / "exp3.json",
            p.A.tolist(), p.B.tolist(), p.Q.tolist(), p.N.tolist(), p.R.tolist(),
        )
        assert main(["oracle", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["oracle_index_k"] == doc["index_k"]
        assert doc["oracle_m_res"] == doc["m_res"]
        assert doc["oracle_constraint_rows"] == doc["constraint_rows"]


class TestCmdExperiment:
    def test_csv_shape_and_slope(self, capsys):
        assert main(
            ["experiment", "--family", "2", "--n", "20",
             "--deltas", "1e-12,1e-11,1e-10,1e-9,1e-8", "--seed", "0"]
        ) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("# family=2")
        assert "seed=0" in lines[0]
        assert lines[1] == "n,delta,steps_exact,steps,m,m1,rp,rp1,alpha"
        data = [line for line in lines if not line.startswith("#")]
        assert len(data) == 6  # header + 5 rows
        assert lines[-1].startswith("# slope=")
        slope = float(lines[-1].split("=")[1])
        assert 0.85 <= slope <= 1.15
        assert out.endswith("\n")

    def test_not_computable_rendering(self, capsys):
        assert main(
            ["experiment", "--family", "3", "--n", "6", "--deltas", "1e-5"]
        ) == 0
        out = capsys.readouterr().out
        assert "not_computable" in out

    def test_family1_flags(self, capsys):
        assert main(
            ["experiment", "--family", "1", "--n", "40", "--r", "20", "--l", "5",
             "--deltas", "1e-12"]
        ) == 0
        row = [
            line for line in capsys.readouterr().out.splitlines()
            if not line.startswith(("#", "n,"))
        ][0]
        fields = row.split(",")
        assert fields[5] == "15"  # m1 = n - (r + l)

    def test_bad_family_parameters_exit_2(self, capsys):
        assert main(["experiment", "--family", "1", "--n", "12"]) == 2

    @pytest.mark.parametrize("family", ["2", "3"])
    @pytest.mark.parametrize("flags", [["--r", "3"], ["--l", "9"], ["--r", "3", "--l", "9"]])
    def test_family1_flags_on_other_families_exit_2(self, capsys, family, flags):
        # families 2 and 3 take no r or l, so a value given is an input error
        assert main(["experiment", "--family", family, "--n", "4", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: family {family} takes no r or l")

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_deltas_exit_2(self, capsys, bad):
        # the error names the argument, not the problem data
        assert main(
            ["experiment", "--family", "2", "--n", "4", "--deltas", f"1e-10,{bad}"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: deltas must be")
        assert "matrix" not in err

    def test_repeated_deltas_print_no_slope(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(
                ["experiment", "--family", "2", "--n", "4", "--deltas", "1e-8,1e-8"]
            ) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().split("\n")
        assert len(lines) == 4  # comment, header, 2 rows
        assert not any(line.startswith("# slope=") for line in lines)
        assert captured.err == ""

    def test_huge_delta_validates_without_warning(self, capsys):
        # a perturbation of 1e300 gives cost entries whose norms overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(
                ["experiment", "--family", "2", "--n", "3", "--deltas", "1e300"]
            ) == 0
        assert capsys.readouterr().err == ""

    def test_negative_seed_exit_2(self, capsys):
        assert main(
            ["experiment", "--family", "2", "--n", "4", "--seed", "-1"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be")

    def test_size_beyond_memory_exit_2(self, capsys):
        # n = 10**8 asks for an n x n array of 71 PiB, beyond the address
        # space, so the allocation fails at once
        assert main(
            ["experiment", "--family", "2", "--n", str(10**8), "--deltas", "1e-8"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not enough memory: ")
        assert captured.err.count("\n") == 1

    def test_json_format(self, capsys):
        assert main(
            ["experiment", "--family", "2", "--n", "10", "--deltas", "1e-10",
             "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["steps"] == 3 and doc[0]["m1"] == 0


class TestParserReuse:
    @pytest.fixture
    def fresh_parser(self, monkeypatch):
        # count the parsers built from here on; the cache is emptied before
        # and after, so no other test sees a parser this one built
        built = []
        build = cli.build_parser

        def counting():
            built.append(1)
            return build()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting)
        yield built
        cli._parser.cache_clear()

    def test_built_once_per_process(self, fresh_parser, singular_file, capsys):
        assert main(["reduce", singular_file]) == 0
        assert main(["oracle", singular_file]) == 0
        assert fresh_parser == [1]

    def test_error_leaves_the_parser_as_built(self, fresh_parser, singular_file, capsys):
        # what a first call prints, on a parser of its own
        assert main(["oracle", singular_file]) == 0
        first = capsys.readouterr().out
        cli._parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main(["reduce", singular_file, "--tol", "tiny"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err
        assert main(["oracle", singular_file]) == 0
        assert capsys.readouterr().out == first
        assert fresh_parser == [1, 1]


def test_closed_pipe_ends_quietly(tmp_path):
    # the report (about 0.9 MB) outgrows the pipe's buffer, so writing it
    # meets the closed pipe
    prob = gen_exp1(60, 20, 5, seed=0)
    path = write_problem(tmp_path / "big.json", *(getattr(prob, k).tolist() for k in "ABQNR"))
    src = os.path.dirname(os.path.dirname(lqreduce.__file__))
    with subprocess.Popen(
        [sys.executable, "-m", "lqreduce.cli", "reduce", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
    ) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert len(head) == 100 and head.startswith(b"{")
    assert b"Traceback" not in err
    assert err == b""
    assert code == 1


class TestReportRoundTrip:
    def test_bit_identical(self):
        result = reduce(gen_exp2(4), 1e-6)
        doc = render_report(result, name="roundtrip")
        text = json.dumps(doc)
        back = json.loads(text)
        assert back == doc  # exact equality, including every float
        assert back["index_k"] == result.index_k
        assert back["rp"] == result.rp
        assert np.array(back["phi_second"]).shape == result.phi_second.shape
