"""Command-line front-end: subcommands, exit codes, atomic reports."""

import json

import numpy as np
import pytest

import nckahler
from nckahler import holomorphic
from nckahler.cli import main
from nckahler.torus import ThetaMatrix, TorusElement


@pytest.fixture()
def theta2_file(tmp_path):
    theta = ThetaMatrix.random(2, np.random.default_rng(5))
    path = tmp_path / "theta2.json"
    path.write_text(json.dumps(theta.to_json()))
    return str(path), theta


@pytest.fixture()
def theta4_file(tmp_path):
    theta = ThetaMatrix.random(4, np.random.default_rng(6))
    path = tmp_path / "theta4.json"
    path.write_text(json.dumps(theta.to_json()))
    return str(path), theta


@pytest.fixture()
def conn2_file(theta2_file, tmp_path):
    """A non-constant m=1 connection on the n=2 torus: A_1 = U_2."""
    _, theta = theta2_file
    conn = {"theta": theta.to_json(), "m": 1,
            "A": [[[TorusElement.generator(theta, 2).to_json()]]]}
    path = tmp_path / "conn2.json"
    path.write_text(json.dumps(conn))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


META_KEYS = {"version", "timestamp", "tol", "checks", "summary"}
SUMMARY_KEYS = {"pass_count", "total", "max_residual", "all_pass"}


class TestClifford:
    def test_runs_and_reports(self, capsys):
        assert main(["clifford", "--n", "4"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["N"] == 4
        assert obj["relations_residual"] < 1e-12
        assert obj["signs_plus"] == [-1, 1, 1]


class TestEnumerate:
    def test_count_n6(self, capsys):
        assert main(["enumerate", "--n", "6"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["count"] == 15 and len(obj["matchings"]) == 15

    def test_odd_rejected(self, capsys):
        assert main(["enumerate", "--n", "5"]) == 2


class TestVerify:
    def test_default_theta_n2(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--n", "2", "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["n"] == 2
        assert all(c["pass"] for c in obj["checks"])
        names = [c["name"] for c in obj["checks"]]
        assert any("del^2 = 0" in n for n in names)

    def test_theta_file_one_matching(self, theta4_file, tmp_path, capsys):
        path, _ = theta4_file
        out = tmp_path / "report.json"
        code = main(["verify", "--theta", path, "--matching", "1-3,2-4",
                     "--eps-prime", "+1", "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["matching"] == "1-3,2-4"

    def test_bad_matching_exit_2(self, capsys):
        assert main(["verify", "--n", "4", "--matching", "1-2,2-3"]) == 2
        assert "perfect matching" in capsys.readouterr().err

    def test_failure_exit_1_with_report(self, theta2_file, tmp_path, capsys,
                                        monkeypatch):
        path, _ = theta2_file
        out = tmp_path / "report.json"
        monkeypatch.setenv("NCK_TOL", "-1")  # impossible tolerance
        code = main(["verify", "--theta", path, "--out", str(out)])
        assert code == 1
        assert out.exists()  # report still written on failure

    def test_determinism_modulo_timestamp(self, theta2_file, tmp_path, capsys):
        path, _ = theta2_file
        o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["verify", "--theta", path, "--out", str(o1)])
        main(["verify", "--theta", path, "--out", str(o2)])
        a, b = json.loads(o1.read_text()), json.loads(o2.read_text())
        a.pop("timestamp"), b.pop("timestamp")
        assert a == b

    def test_dump_ops(self, theta2_file, capsys):
        path, _ = theta2_file
        assert main(["verify", "--theta", path, "--eps-prime", "+1",
                     "--dump-ops"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert "operators" in obj
        (key, ops), = [(k, v) for k, v in obj["operators"].items()]
        assert "del" in ops and "delbar" in ops


class TestForms:
    def test_rank_table(self, theta4_file, capsys):
        path, _ = theta4_file
        assert main(["forms", "--theta", path]) == 0
        obj = json.loads(capsys.readouterr().out)
        levels = {row["level"]: row for row in obj["table"]}
        assert levels[1]["omega_d"] == 4
        assert levels[2]["omega_0q"] == 1


class TestHolo:
    def test_kernel(self, theta4_file, capsys):
        path, _ = theta4_file
        assert main(["holo", "kernel", "--theta", path, "--radius", "2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["dimension"] == 1

    def test_flat_and_h0(self, theta2_file, tmp_path, capsys):
        path, theta = theta2_file
        conn = {
            "theta": theta.to_json(),
            "m": 2,
            "A": [[[TorusElement.zero(theta).to_json(),
                    TorusElement.zero(theta).to_json()],
                   [TorusElement.zero(theta).to_json(),
                    TorusElement.zero(theta).to_json()]]],
        }
        cpath = tmp_path / "conn.json"
        cpath.write_text(json.dumps(conn))
        assert main(["holo", "flat", "--conn", str(cpath)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["flat"] and obj["residual"] == 0.0
        assert main(["holo", "h0", "--conn", str(cpath), "--radius", "2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["dimension"] == 2

    def test_ps_compare(self, theta2_file, capsys):
        path, _ = theta2_file
        assert main(["holo", "ps-compare", "--theta2", path]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["pass"]

    def test_missing_file_exit_2(self, capsys):
        assert main(["holo", "flat", "--conn", "/nonexistent.json"]) == 2


class TestReport:
    def test_full_report_n2(self, theta2_file, tmp_path, capsys):
        path, _ = theta2_file
        out = tmp_path / "full.json"
        code = main(["report", "--theta", path, "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["summary"]["pass_count"] == obj["summary"]["total"]


class TestSinglePath:
    def test_report_grid_equals_verify(self, theta2_file, capsys):
        path, _ = theta2_file
        _, ver = run_json(capsys, ["verify", "--theta", path, "--eps-prime", "both"])
        _, rep = run_json(capsys, ["report", "--theta", path])
        grid = [c for c in rep["checks"] if c["name"].startswith("[1-2")]
        assert grid == ver["checks"]
        assert [c["name"] for c in grid][-1] == "[1-2] pm conjugation"

    def test_verify_keys(self, theta2_file, capsys):
        path, _ = theta2_file
        _, obj = run_json(capsys, ["verify", "--theta", path])
        assert set(obj) == META_KEYS | {"n", "matching", "eps_prime"}
        assert set(obj["summary"]) == SUMMARY_KEYS
        assert obj["version"] == nckahler.__version__
        assert obj["summary"]["total"] == len(obj["checks"])

    def test_verify_dump_ops_keys(self, theta2_file, capsys):
        path, _ = theta2_file
        _, obj = run_json(capsys, ["verify", "--theta", path, "--dump-ops"])
        assert set(obj) == META_KEYS | {"n", "matching", "eps_prime", "operators"}
        assert sorted(obj["operators"]) == ["1-2|eps'=+1", "1-2|eps'=-1"]

    def test_forms_keys(self, theta4_file, capsys):
        path, _ = theta4_file
        _, obj = run_json(capsys, ["forms", "--theta", path])
        assert set(obj) == META_KEYS | {"n", "nilpotency_residual", "table"}
        assert set(obj["summary"]) == SUMMARY_KEYS
        assert obj["version"] == nckahler.__version__

    def test_report_keys(self, theta2_file, capsys):
        path, _ = theta2_file
        _, obj = run_json(capsys, ["report", "--theta", path])
        assert set(obj) == META_KEYS | {"n", "matching", "eps_prime"}
        assert set(obj["summary"]) == SUMMARY_KEYS
        assert obj["summary"]["all_pass"] is True
        assert obj["version"] == nckahler.__version__


class TestExitCodes:
    def test_solver_fault_is_not_config_error(self, conn2_file, monkeypatch):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(holomorphic.np.linalg, "svd", failing_svd)
        with pytest.raises(np.linalg.LinAlgError):
            main(["holo", "h0", "--conn", conn2_file, "--radius", "1"])

    def test_dense_limit_exit_2(self, conn2_file, capsys):
        # 10001^2 box modes, two entries each: over MAX_BYTES
        assert main(["holo", "h0", "--conn", conn2_file, "--radius", "5000"]) == 2
        assert "dense solver limit" in capsys.readouterr().err

    def test_radius_40_solves(self, conn2_file, capsys):
        # 6561 unknowns, split into 81 blocks of 81
        assert main(["holo", "h0", "--conn", conn2_file, "--radius", "40"]) == 0
        assert json.loads(capsys.readouterr().out)["radius"] == 40

    def test_bad_theta_exit_2(self, tmp_path, capsys):
        path = tmp_path / "theta.json"
        path.write_text(json.dumps({"n": 2, "theta": [[0.0, 0.3, 0.1]]}))
        assert main(["verify", "--theta", str(path)]) == 2

    @pytest.mark.parametrize("n", ["3", "12"])
    def test_bad_dimension_exit_2(self, n, capsys):
        assert main(["clifford", "--n", n]) == 2
