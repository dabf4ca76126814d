"""Command-line front-end: subcommands, exit codes, atomic reports."""

import argparse
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import nckahler
from nckahler import cli, clifford, forms, holomorphic, kahler, ncdiff, pauli
from nckahler.cli import main
from nckahler.holomorphic import grassmannian
from nckahler.report import VerificationReport
from nckahler.torus import PRUNE_TOL, ThetaMatrix, TorusElement


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


@pytest.fixture()
def fresh_gamma():
    """build_gamma's cache emptied around the test: a patched self-check runs
    on a fresh build, and no rep built under the patch outlives the test."""
    clifford.build_gamma.cache_clear()
    yield
    clifford.build_gamma.cache_clear()


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

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_exact_up_to_n10(self, capsys, n):
        assert main(["clifford", "--n", str(n)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["relations_residual"] == 0.0 and obj["grading_residual"] == 0.0
        assert obj["signs_plus"] == list(clifford.SIGNS_PLUS[n % 8])
        assert obj["signs_minus"] == list(clifford.SIGNS_MINUS[n % 8])


class TestEnumerate:
    def test_count_n6(self, capsys):
        assert main(["enumerate", "--n", "6"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["count"] == 15 and len(obj["matchings"]) == 15

    def test_odd_rejected(self, capsys):
        assert main(["enumerate", "--n", "5"]) == 2

    def test_over_the_cap_exit_2(self, monkeypatch, capsys):
        # the count is bounded before any matching is built: 7!! = 105 > 100
        monkeypatch.setattr(kahler, "MAX_MATCHINGS", 100)
        assert main(["enumerate", "--n", "8"]) == 2
        assert "7!! >= 105 perfect matchings" in capsys.readouterr().err
        assert main(["enumerate", "--n", "6"]) == 0

    @pytest.mark.parametrize("n", ["16", "40"])
    def test_huge_n_refused_at_once(self, n, capsys):
        t0 = time.perf_counter()
        assert main(["enumerate", "--n", n]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "MAX_MATCHINGS" in capsys.readouterr().err


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
        monkeypatch.setenv("NCK_TOL", "0")  # no residual is below 0
        code = main(["verify", "--theta", path, "--out", str(out)])
        assert code == 1
        assert out.exists()  # report still written on failure

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1"])
    def test_bad_tol_flag_exit_2(self, bad, capsys):
        # a NaN or infinite tolerance would pass or fail every check silently
        assert main(["verify", "--n", "2", f"--tol={bad}"]) == 2
        assert "tol must be a finite number >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1"])
    def test_bad_tol_env_exit_2(self, bad, capsys, monkeypatch):
        monkeypatch.setenv("NCK_TOL", bad)
        assert main(["verify", "--n", "2"]) == 2
        assert "NCK_TOL must be a finite number >= 0" in capsys.readouterr().err

    def test_determinism_modulo_timestamp(self, theta2_file, tmp_path, capsys):
        path, _ = theta2_file
        o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["verify", "--theta", path, "--out", str(o1)])
        main(["verify", "--theta", path, "--out", str(o2)])
        a, b = json.loads(o1.read_text()), json.loads(o2.read_text())
        a.pop("timestamp"), b.pop("timestamp")
        assert a == b

    def test_out_file_equals_stdout(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--n", "4", "--dump-ops", "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out

    @pytest.mark.parametrize("eps", ["-1", "-"])
    def test_eps_prime_minus_alone(self, eps, capsys):
        code, obj = run_json(capsys, ["verify", "--n", "4", "--matching", "1-2,3-4",
                                      "--eps-prime", eps])
        assert code == 0 and obj["eps_prime"] == eps
        names = [c["name"] for c in obj["checks"]]
        assert names[-1] == "[1-2,3-4] pm conjugation"
        assert names[:-1] and all(n.startswith("[1-2,3-4|eps'=-1] ") for n in names[:-1])

    def test_dump_ops(self, theta2_file, capsys):
        path, _ = theta2_file
        assert main(["verify", "--theta", path, "--eps-prime", "+1",
                     "--dump-ops"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert "operators" in obj
        (key, ops), = [(k, v) for k, v in obj["operators"].items()]
        assert "del" in ops and "delbar" in ops

    @pytest.mark.parametrize("argv", [["--n", "2"], ["--n", "4", "--matching", "1-2,3-4"]],
                             ids=["n2", "n4-one-matching"])
    def test_dump_ops_entries_are_the_dense_words(self, argv, capsys):
        # each dumped entry (i, j) lists, by ascending mode, the (i, j) entry
        # of the dense matrix of the operator's words there, omitting those
        # under PRUNE_TOL
        _, obj = run_json(capsys, ["verify", *argv, "--dump-ops"])
        theta = cli.load_theta(cli._parser().parse_args(["verify", *argv]))
        dumps = obj["operators"]
        assert len(dumps) == 2  # one matching, both eps'
        for key, ops in dumps.items():
            matching, eps = key.split("|eps'=")
            pkg = kahler.build_kahler_package(theta, kahler.Matching.parse(matching), int(eps))
            for name, op in (("del", pkg.del_hol), ("delbar", pkg.del_bar)):
                terms = sorted(op.terms.items())
                assert [t["alpha"] for t in ops[name]] == [list(alpha) for alpha, _ in terms]
                for t, (_, term) in zip(ops[name], terms):
                    dense = {k: pauli.dense_words(w, op.m) for k, w in sorted(term.blocks.items())}
                    assert t["matrix"] == [[
                        [{"m": list(k), "re": b[i, j].real, "im": b[i, j].imag}
                         for k, b in dense.items() if abs(b[i, j]) >= PRUNE_TOL]
                        for j in range(op.m)] for i in range(op.m)]

    def test_dump_ops_over_the_limit_refused_before_building(self, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("a package was built")

        # n = 4 dumps 3 matchings x 2 signs x 2 n 4^n entries: one byte over
        monkeypatch.setattr(cli, "DUMP_MAX_BYTES", 3 * 2 * 2 * 4 * 4 ** 4 * cli.DUMP_ENTRY_BYTES - 1)
        with monkeypatch.context() as patched:
            patched.setattr(kahler, "build_base", unreachable)
            assert main(["verify", "--n", "4", "--dump-ops"]) == 2
            # 105 matchings at n = 8: about 12 GB
            assert main(["verify", "--n", "8", "--dump-ops"]) == 2
        assert capsys.readouterr().err.count("--dump-ops needs") == 2
        # one sign halves the dump
        assert main(["verify", "--n", "4", "--dump-ops", "--eps-prime", "+1"]) == 0
        capsys.readouterr()


class TestForms:
    def test_rank_table(self, theta4_file, capsys):
        path, _ = theta4_file
        assert main(["forms", "--theta", path]) == 0
        obj = json.loads(capsys.readouterr().out)
        levels = {row["level"]: row for row in obj["table"]}
        assert levels[1]["omega_d"] == 4
        assert levels[2]["omega_0q"] == 1

    def test_tol_is_forwarded(self, capsys, monkeypatch):
        reports = []
        check = forms.bidegree_decomposition_check

        def keeping(*args, **kwargs):
            reports.append(check(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(forms, "bidegree_decomposition_check", keeping)
        main(["forms", "--n", "4", "--tol", "1e-30"])
        obj = json.loads(capsys.readouterr().out)
        assert obj["tol"] == 1e-30
        (rp,) = reports
        spans = [c for c in rp.checks if c.name.startswith("span(")]
        assert len(spans) == 4 and all(c.tol == 1e-30 for c in spans)
        # the rank counts compare integers and keep their fixed threshold 0.5
        assert all(c.tol == 0.5 for c in rp.checks if c not in spans)
        by_name = {c["name"]: c for c in obj["checks"]}
        assert all(by_name[c.name]["pass"] == (c.residual < 1e-30) for c in spans)


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

    def test_curved_exit_1(self, theta4_file, tmp_path, capsys):
        # A_1 = U_3, A_2 = 0 on n = 4: F_12 = -delta_2(U_3), residual 2 pi;
        # a check failed, so exit 1 with the report
        _, theta = theta4_file
        conn = {"theta": theta.to_json(), "m": 1,
                "A": [[[TorusElement.generator(theta, 3).to_json()]],
                      [[TorusElement.zero(theta).to_json()]]]}
        cpath = tmp_path / "conn.json"
        cpath.write_text(json.dumps(conn))
        assert main(["holo", "flat", "--conn", str(cpath)]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["flat"] is False and obj["residual"] == pytest.approx(2 * np.pi)

    def test_overflow_is_not_flat(self, tmp_path, capsys):
        # A_1 = c U_1, A_2 = c U_3 on n = 4 is curved: at c = 1 + i the residual
        # is finite, and at c = 1e160 (1 + i) [A_1, A_2] overflows to NaN, which
        # is kept, not pruned as zero, so the residual is NaN and the check fails
        theta = ThetaMatrix.random(4, np.random.default_rng(0))
        cpath = tmp_path / "conn.json"

        def flat(c):
            A = [[[TorusElement.monomial(theta, k, c).to_json()]]
                 for k in ((1, 0, 0, 0), (0, 0, 1, 0))]
            cpath.write_text(json.dumps({"theta": theta.to_json(), "m": 1, "A": A}))
            return main(["holo", "flat", "--conn", str(cpath)]), capsys.readouterr().out

        code, out = flat(1 + 1j)
        assert code == 1 and json.loads(out)["flat"] is False
        assert 0 < json.loads(out)["residual"] < np.inf
        with pytest.warns(RuntimeWarning):
            code, out = flat(1e160 + 1e160j)
        assert code == 1 and json.loads(out)["flat"] is False and '"residual": NaN' in out

    def test_ps_compare(self, theta2_file, capsys):
        path, _ = theta2_file
        assert main(["holo", "ps-compare", "--theta2", path]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["pass"]

    def test_ps_compare_negative_radius_exit_2(self, theta2_file, capsys):
        # an empty box would compare nothing and pass
        path, _ = theta2_file
        assert main(["holo", "ps-compare", "--theta2", path, "--radius", "-1"]) == 2
        assert "radius must be >= 0" in capsys.readouterr().err

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

    def test_negative_radius_exit_2_before_any_check(self, capsys, monkeypatch):
        # the kernel's radius is checked before the grid, not after it
        def refused(*args, **kwargs):
            raise AssertionError("verify_grid ran")

        monkeypatch.setattr(kahler, "verify_grid", refused)
        assert main(["report", "--n", "6", "--radius", "-1"]) == 2
        assert "radius must be >= 0" in capsys.readouterr().err

    def test_radius_over_the_bound_exit_2_before_any_check(self, capsys, monkeypatch):
        # the kernel's byte bound is met before the grid too; its row stays last
        def refused(*args, **kwargs):
            raise AssertionError("verify_grid ran")

        monkeypatch.setattr(kahler, "verify_grid", refused)
        assert main(["report", "--n", "10", "--radius", "100000"]) == 2
        assert capsys.readouterr().err.startswith("error: --radius 100000")


class TestVerificationReport:
    @pytest.mark.parametrize("residuals", [[np.nan, 1.0], [1.0, np.nan], [0.0, np.nan, 2.0]])
    def test_nan_residual_fails_and_is_the_max(self, residuals):
        # a NaN row fails, and the summary's max_residual is NaN wherever it stands
        rp = VerificationReport(tol=1e-10)
        for i, r in enumerate(residuals):
            rp.add(f"row {i}", r)
        summary = rp.to_json()["summary"]
        assert np.isnan(rp.max_residual) and np.isnan(summary["max_residual"])
        assert not rp.all_pass and "NaN" in json.dumps(summary)

    def test_max_residual_of_no_checks(self):
        assert VerificationReport(tol=1e-10).max_residual == 0.0


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


def bad_inputs(tmp_path):
    """Theta and connection files, one per way to be bad (and two good ones),
    as paths by name."""
    theta2 = ThetaMatrix.random(2, np.random.default_rng(5)).to_json()
    unit = {"m": [0, 1], "re": 1.0, "im": 0.0}
    files = {
        "theta2": theta2, "theta4": ThetaMatrix.random(4, np.random.default_rng(6)).to_json(),
        "theta12": ThetaMatrix.random(12, np.random.default_rng(7)).to_json(),
        "odd": {"n": 3, "theta": np.zeros((3, 3)).tolist()},
        "shape": {"n": 2, "theta": [[0.0, 0.3, 0.1]]},
        "no-n": {"theta": [[0, 1], [-1, 0]]},
        "not-skew": {"n": 2, "theta": [[0, 0.3], [0.7, 0]]},
        "conn-u2": {"theta": theta2, "m": 1, "A": [[[[unit]]]]},
        "conn-nan": {"theta": theta2, "m": 1, "A": [[[[unit | {"re": float("nan")}]]]]},
        "conn-no-A": {"theta": theta2, "m": 1},
        "conn-no-theta": {"m": 1, "A": [[[[]]]]},
        "conn-count": {"theta": theta2, "m": 1, "A": []},
        "conn-not-m-by-m": {"theta": theta2, "m": 2, "A": [[[[]]]]},
        "conn-mode": {"theta": theta2, "m": 1, "A": [[[[unit | {"m": [0, 1, 2]}]]]]},
        "conn-text": {"theta": theta2, "m": 1, "A": [[[[unit | {"re": "a"}]]]]},
        "conn-m0": {"theta": theta2, "m": 0, "A": [[]]},
        "conn-odd": {"theta": {"n": 3, "theta": [[0]]}, "m": 1, "A": [[[[]]]]},
    }
    paths = {name: tmp_path / f"{name}.json" for name in [*files, "not-json", "missing"]}
    for name, obj in files.items():
        paths[name].write_text(json.dumps(obj))
    paths["not-json"].write_text("{not json")
    return {name: str(p) for name, p in paths.items()}


# Every input that exits 2: (argv, NCK_TOL, the field that the message names
# first); {name} is a path of bad_inputs
EXIT_2 = [
    (["clifford", "--n", "3"], None, "torus dimension n"),
    (["clifford", "--n", "12"], None, "torus dimension n"),
    (["enumerate", "--n", "5"], None, "--n"),
    (["enumerate", "--n", "20"], None, "--n"),  # over MAX_MATCHINGS
    (["verify", "--n", "0"], None, "--n"),
    (["verify", "--n", "3"], None, "--n"),
    (["verify", "--n", "12"], None, "torus dimension n"),
    (["forms", "--n", "12"], None, "torus dimension n"),
    (["report", "--n", "12"], None, "torus dimension n"),
    (["verify", "--theta", "{theta12}"], None, "torus dimension n"),
    (["verify", "--theta", "{theta4}", "--n", "6"], None, "--n"),
    (["verify", "--n", "4", "--matching", "1-2,2-3"], None, "--matching"),
    (["verify", "--n", "4", "--matching", "a-b"], None, "--matching"),
    (["verify", "--n", "4", "--matching", "1-2"], None, "--matching"),
    (["verify", "--n", "4", "--matching", ""], None, "--matching"),
    (["verify", "--n", "4", "--eps-prime", "2"], None, "--eps-prime"),
    (["verify", "--n", "2", "--tol", "nan"], None, "--tol"),
    (["verify", "--n", "2"], "-1", "NCK_TOL"),
    (["verify", "--n", "8", "--dump-ops"], None, "--dump-ops"),
    *[(["verify", "--theta", "{%s}" % name], None, "--theta")
      for name in ("odd", "shape", "no-n", "not-skew", "not-json", "missing")],
    (["forms", "--n", "4", "--tol", "-1"], None, "--tol"),
    (["report", "--n", "2", "--radius", "-1"], None, "--radius"),
    (["report", "--n", "2", "--radius", "100000"], None, "--radius"),  # over MAX_BYTES
    (["holo", "kernel", "--n", "3"], None, "--n"),
    (["holo", "kernel", "--n", "4", "--radius", "-1"], None, "--radius"),
    (["holo", "kernel", "--n", "4", "--radius", "100000"], None, "--radius"),
    (["holo", "kernel", "--theta", "{not-skew}"], None, "--theta"),
    *[(["holo", "flat", "--conn", "{%s}" % name], None, "--conn")
      for name in ("conn-nan", "conn-no-A", "conn-no-theta", "conn-count", "conn-not-m-by-m",
                   "conn-mode", "conn-text", "conn-m0", "conn-odd", "not-json", "missing")],
    (["holo", "flat", "--conn", "{conn-count}", "--tol", "nan"], None, "--tol"),
    (["holo", "h0", "--conn", "{conn-u2}", "--radius", "5000"], None, "--radius"),  # MAX_BYTES
    (["holo", "h0", "--conn", "{conn-m0}"], None, "--conn"),
    (["holo", "h0", "--conn", "{theta2}"], None, "--conn"),
    (["holo", "h0", "--conn", "{conn-nan}", "--radius", "-1"], None, "--conn"),
    (["holo", "ps-compare", "--theta2", "{theta4}"], None, "--theta2"),
    (["holo", "ps-compare", "--theta2", "{odd}"], None, "--theta2"),
    (["holo", "ps-compare", "--theta2", "{theta2}", "--radius", "-1"], None, "--radius"),
    (["holo", "ps-compare", "--theta2", "{missing}"], None, "--theta2"),
]


class TestExitCodes:
    @pytest.mark.parametrize("argv, passed, total", [(["verify", "--n", "4"], 57, 297),
                                                     (["report", "--n", "2"], 26, 116),
                                                     (["forms", "--n", "4"], 5, 9)],
                             ids=["verify-n4", "report-n2", "forms-n4"])
    def test_tol_zero_passes_fixed_rows_only(self, argv, passed, total, capsys, monkeypatch):
        # --tol 0 fails every check held to the run's tolerance; the rows with
        # a fixed threshold (0.5 for integer counts, 1e-12) keep passing
        reports, to_json = [], VerificationReport.to_json
        monkeypatch.setattr(VerificationReport, "to_json",
                            lambda rp: reports.append(rp) or to_json(rp))
        code, obj = run_json(capsys, argv + ["--tol", "0"])
        assert code == 1 and obj["tol"] == 0
        assert (obj["summary"]["pass_count"], obj["summary"]["total"]) == (passed, total)
        checks = reports[-1].checks
        assert [c["pass"] for c in obj["checks"]] == [c.tol > 0 for c in checks]

    def test_solver_fault_is_not_config_error(self, conn2_file, monkeypatch):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        # both drivers fail: gesdd, and the gesvd it falls back on
        monkeypatch.setattr(holomorphic.np.linalg, "svd", failing_svd)
        monkeypatch.setattr(scipy.linalg, "svd", failing_svd)
        with pytest.raises(np.linalg.LinAlgError):
            main(["holo", "h0", "--conn", conn2_file, "--radius", "1"])

    def test_failed_sign_check_is_not_config_error(self, monkeypatch, fresh_gamma):
        flipped = {k: (-eps, *rest) for k, (eps, *rest) in clifford.SIGNS_PLUS.items()}
        monkeypatch.setattr(clifford, "SIGNS_PLUS", flipped)
        with pytest.raises(RuntimeError, match="charge conjugation failed"):
            main(["clifford", "--n", "4"])

    def test_failed_relations_check_is_not_config_error(self, monkeypatch, fresh_gamma):
        monkeypatch.setattr(clifford, "_relations_residual", lambda gammas, sigma: 1.0)
        with pytest.raises(RuntimeError, match="relations check"):
            main(["clifford", "--n", "4"])

    def test_dense_limit_exit_2(self, conn2_file, capsys):
        # 10001^2 box modes, two entries each: over MAX_BYTES
        assert main(["holo", "h0", "--conn", conn2_file, "--radius", "5000"]) == 2
        assert "MAX_BYTES limit" in capsys.readouterr().err

    def test_kernel_radius_over_the_limit_exit_2(self, capsys):
        # the pair grid of radius 100000 would take 1.6e12 bytes: refused
        # before anything is allocated
        tracemalloc.start()
        try:
            assert main(["holo", "kernel", "--n", "4", "--radius", "100000"]) == 2
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
        assert "the pair grid needs" in capsys.readouterr().err

    def test_radius_40_solves(self, conn2_file, capsys):
        # 6561 unknowns, split into 81 blocks of 81
        assert main(["holo", "h0", "--conn", conn2_file, "--radius", "40"]) == 0
        assert json.loads(capsys.readouterr().out)["radius"] == 40

    def test_bad_theta_exit_2(self, tmp_path, capsys):
        path = tmp_path / "theta.json"
        path.write_text(json.dumps({"n": 2, "theta": [[0.0, 0.3, 0.1]]}))
        assert main(["verify", "--theta", str(path)]) == 2

    @pytest.mark.parametrize("theta, named", [
        ([[5, 0.3], [0.7, 9]], "entry (0, 0) is 5.0"),
        ([[0, 0.3], [0.7, 0]], "entry (0, 1) is 0.3 and entry (1, 0) is 0.7"),
        ([[0, float("nan")], [0, 0]], "theta entry (0, 1) is not finite")],
        ids=["not-skew", "not-skew-off-diagonal", "nan"])
    def test_theta_checked_where_read_exit_2(self, theta, named, tmp_path, capsys):
        # the whole matrix is read: a lower triangle or diagonal off skew, or
        # a non-finite entry, is a configuration error that names the entry
        path = tmp_path / "theta.json"
        path.write_text(json.dumps({"n": 2, "theta": theta}))
        assert main(["verify", "--theta", str(path)]) == 2
        assert named in capsys.readouterr().err

    def test_non_finite_connection_exit_2(self, theta2_file, tmp_path, capsys):
        # a NaN coefficient at U_2 is refused, not pruned as if it were zero
        _, theta = theta2_file
        path = tmp_path / "conn.json"
        path.write_text(json.dumps({"theta": theta.to_json(), "m": 1, "A": [[[
            [{"m": [0, 1], "re": float("nan"), "im": 0.0}]]]]}))
        for argv in (["flat"], ["h0", "--radius", "2"]):
            assert main(["holo", *argv, "--conn", str(path)]) == 2
            assert "(0, 1) is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["3", "12"])
    def test_bad_dimension_exit_2(self, n, capsys):
        assert main(["clifford", "--n", n]) == 2

    @pytest.mark.parametrize("argv", [["verify", "--matching", "1-2,3-4"], ["forms"]],
                             ids=["verify", "forms"])
    def test_n_contradicting_theta_exit_2(self, argv, theta4_file, tmp_path, capsys):
        path, _ = theta4_file
        out = tmp_path / "report.json"
        assert main(argv + ["--theta", path, "--n", "6", "--out", str(out)]) == 2
        assert "contradicts" in capsys.readouterr().err and not out.exists()
        assert main(argv + ["--theta", path, "--n", "4"]) == 0


    @pytest.mark.parametrize("argv", [["verify", "--n", "2"], ["forms", "--n", "4"]],
                             ids=["verify", "forms"])
    def test_radius_refused_where_unread(self, argv, capsys):
        # only holo kernel and report read --radius; elsewhere argparse refuses it
        with pytest.raises(SystemExit) as err:
            main(argv + ["--radius", "3"])
        assert err.value.code == 2
        assert "unrecognized arguments: --radius 3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["holo", "kernel", "--n", "4"],
                                      ["holo", "h0", "--conn", "{conn-u2}"],
                                      ["holo", "ps-compare", "--theta2", "{theta2}"]],
                             ids=["holo-kernel", "holo-h0", "holo-ps-compare"])
    def test_tol_refused_where_unread(self, argv, tmp_path, capsys, monkeypatch):
        # the kernel test is exact, h0 and ps-compare hold fixed thresholds:
        # argparse refuses --tol, and a bad NCK_TOL is not read
        argv = [a.format(**bad_inputs(tmp_path)) for a in argv]
        with pytest.raises(SystemExit) as err:
            main(argv + ["--tol", "1e-3"])
        assert err.value.code == 2
        assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err
        monkeypatch.setenv("NCK_TOL", "nan")
        assert main(argv) == 0

    @pytest.mark.parametrize("argv, extra", [
        (["holo", "h0", "--conn", "{conn-u2}"], ["--tol", "1"]),
        (["holo", "kernel", "--n", "2"], ["--tol", "1"]),
        (["holo", "ps-compare", "--theta2", "{theta2}"], ["--tol", "1"]),
        (["holo", "flat", "--conn", "{conn-u2}"], ["--radius", "3"]),
        (["verify", "--n", "2"], ["--radius", "3"]),
        (["clifford", "--n", "2"], ["--tol", "1"])],
        ids=["holo-h0", "holo-kernel", "holo-ps-compare", "holo-flat", "verify", "clifford"])
    def test_unread_option_refused_with_the_subcommand_usage(self, argv, extra, tmp_path,
                                                              capsys):
        # the subcommand's own parser refuses it, not the top-level one
        argv = [a.format(**bad_inputs(tmp_path)) for a in argv]
        command = " ".join(a for a in argv[:2] if not a.startswith("-"))
        with pytest.raises(SystemExit) as err:
            main(argv + extra)
        assert err.value.code == 2
        usage, message = capsys.readouterr().err.split(f"\nnckahler {command}: error: ")
        assert usage.startswith(f"usage: nckahler {command} [-h]")
        assert message == f"unrecognized arguments: {' '.join(extra)}\n"

    @pytest.mark.parametrize("argv, env, name", EXIT_2,
                             ids=[" ".join(argv) + (f" NCK_TOL={env}" if env else "")
                                  for argv, env, _ in EXIT_2])
    def test_bad_input_exit_2_names_its_field(self, argv, env, name, tmp_path, capsys,
                                              monkeypatch):
        paths = bad_inputs(tmp_path)
        monkeypatch.delenv("NCK_TOL", raising=False)
        if env is not None:
            monkeypatch.setenv("NCK_TOL", env)
        out = tmp_path / "report.json"
        assert main([a.format(**paths) for a in argv] + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {name}")
        assert not out.exists()

    def test_fault_in_a_pass_propagates(self, monkeypatch):
        # a ValueError raised inside a computation is a fault, not bad input:
        # it reaches the caller with its traceback (Python exits 1)
        def broken(jobs):
            raise ValueError("injected")

        monkeypatch.setattr(ncdiff.NCDiffOp, "sums", staticmethod(broken))
        with pytest.raises(ValueError, match="injected"):
            main(["verify", "--n", "4"])


# The options of each subcommand: exactly those it reads
OPTIONS = {
    "clifford": {"--n", "--out"},
    "enumerate": {"--n", "--out"},
    "verify": {"--theta", "--n", "--tol", "--matching", "--eps-prime", "--dump-ops", "--out"},
    "forms": {"--theta", "--n", "--tol", "--out"},
    "holo kernel": {"--theta", "--n", "--radius", "--out"},
    "holo flat": {"--conn", "--tol", "--out"},
    "holo h0": {"--conn", "--radius", "--out"},
    "holo ps-compare": {"--theta2", "--radius", "--out"},
    "report": {"--theta", "--n", "--tol", "--radius", "--out"},
}


def subcommands(parser, prefix=""):
    """{"holo kernel": its option strings, ...} over the parser's leaf subcommands."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sp in action.choices.items():
                out |= subcommands(sp, f"{prefix}{name} ")
    if prefix and not out:
        out[prefix.strip()] = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
    return out


def test_option_table():
    # an option that a subcommand does not read would be accepted and ignored
    assert subcommands(cli.build_parser()) == OPTIONS


class TestInProcessCalls:
    @pytest.mark.parametrize("argv", [["verify"], ["report"], ["holo", "kernel"], ["forms"]],
                             ids=["verify", "report", "holo-kernel", "forms"])
    def test_n_zero_exit_2(self, argv, tmp_path, capsys):
        # --n 0 is a bad dimension, not "unset": no default n runs in its place
        out = tmp_path / "report.json"
        assert main(argv + ["--n", "0", "--out", str(out)]) == 2
        assert "--n must be a positive torus dimension" in capsys.readouterr().err
        assert not out.exists()

    def test_calls_in_sequence_keep_no_state(self, conn2_file, capsys):
        # the parser is built once per process; a flag of one call must not
        # become the default of the next
        code, obj = run_json(capsys, ["verify", "--n", "2", "--tol", "1e-3"])
        assert obj["tol"] == 1e-3
        code, obj = run_json(capsys, ["verify", "--n", "2"])
        assert code == 0 and obj["tol"] == 1e-10
        code, obj = run_json(capsys, ["holo", "h0", "--conn", conn2_file, "--radius", "5"])
        assert obj["radius"] == 5
        code, obj = run_json(capsys, ["holo", "h0", "--conn", conn2_file])
        assert obj["radius"] == 3


class TestScipyFree:
    def test_no_cli_path_imports_scipy(self, theta4_file, tmp_path):
        # scipy is only the SVD fallback of holo h0; a fresh interpreter runs the
        # commands and lists the scipy modules it loaded
        path, theta = theta4_file
        conn = tmp_path / "grassmannian.json"
        conn.write_text(json.dumps({"theta": theta.to_json(), **grassmannian(theta, 2).to_json()}))
        argvs = [["report", "--n", "4"], ["verify", "--n", "4"], ["forms", "--n", "4"],
                 ["holo", "h0", "--conn", str(conn), "--radius", "3"],
                 ["holo", "flat", "--conn", str(conn)], ["holo", "kernel", "--theta", path]]
        argvs = [argv + ["--out", str(tmp_path / f"{i}.json")] for i, argv in enumerate(argvs)]
        code = (f"import sys\nfrom nckahler.cli import main\n"
                f"codes = [main(argv) for argv in {argvs!r}]\n"
                "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = str(Path(nckahler.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120).stdout
        assert out.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] []"

