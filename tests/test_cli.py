import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lqreduce import gen_exp2, reduce, subspace_angle
from lqreduce.cli import main, render_report


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

    @pytest.mark.parametrize("command", ["reduce", "oracle"])
    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tolerance_exit_2(self, singular_file, capsys, command, tol):
        assert main([command, singular_file, f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance" in captured.err


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

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_deltas_exit_2(self, capsys, bad):
        # the error names the argument, not the problem data
        assert main(
            ["experiment", "--family", "2", "--n", "4", "--deltas", f"1e-10,{bad}"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: deltas must be")
        assert "matrix" not in err

    def test_json_format(self, capsys):
        assert main(
            ["experiment", "--family", "2", "--n", "10", "--deltas", "1e-10",
             "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["steps"] == 3 and doc[0]["m1"] == 0


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
