"""The CLI contract: each recorded command, run in-process through cli.main,
exits with its recorded code and prints its recorded stdout.

The rows live in data/contract.json: a row's argv (an argument that starts
with "data/" names a file in this directory), its exit code, the sha256 of
its stdout with the timestamp line dropped, and its LAPACK-derived numbers.
Those numbers can differ in the last bits from one CPU or LAPACK build to the
next: they are the basis coefficients of `holo h0` (SVD), the only LAPACK
output a command prints.  The digest covers them as a placeholder, and they
are compared within 1e-12; every other byte of every output is hashed.  A
constant diagonal connection (the Grassmannian rows) has only one-column
blocks, whose basis numbers come from column norms, not LAPACK: those rows are
hashed whole, so a -0.0 printed as 0.0 fails them.

Re-record a row (or add one) after an intended output change with

    PYTHONPATH=src python tests/test_contract.py forms --n 6
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from nckahler import cli, forms, holomorphic
from nckahler.torus import TorusElement

DATA = Path(__file__).with_name("data")
ROWS_PATH = DATA / "contract.json"
LAPACK_TOL = 1e-12
TIMESTAMP = re.compile(r'^\s*"timestamp": ".*",?$')
_dumps = json.dumps  # the digest's own serialiser, kept from the controls' patches


def run(argv):
    """(exit code, stdout) of one in-process `nckahler` call."""
    argv = [str(DATA / a[len("data/"):]) if a.startswith("data/") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# connection files whose `holo h0` basis comes from column norms alone
NORM_ONLY = {"data/conn_grassmannian.json"}


def _lapack_fields(argv, obj):
    """[(container, key)] of the LAPACK-derived numbers of one output."""
    if argv[:2] != ["holo", "h0"] or argv[3] in NORM_ONLY:
        return []
    return [(term, part) for xi in obj["basis"] for entry in xi for term in entry
            for part in ("re", "im")]


def digest(argv, stdout):
    """(sha256, LAPACK numbers) of one output.  The JSON is re-serialised in
    its printed key order after the LAPACK numbers are replaced, so the
    digest still sees the order; the unreplaced re-serialisation must give
    the printed text back."""
    obj = json.loads(stdout)
    assert _dumps(obj, indent=2) + "\n" == stdout, "stdout is not indent=2 JSON"
    lapack = []
    for container, key in _lapack_fields(argv, obj):
        lapack.append(container[key])
        container[key] = "<lapack>"
    lines = [line for line in _dumps(obj, indent=2).splitlines() if not TIMESTAMP.match(line)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), lapack


def mismatches(row):
    """How one run of row differs from its record ([] if it does not)."""
    code, stdout = run(row["argv"])
    sha, lapack = digest(row["argv"], stdout)
    out = []
    if code != row["exit"]:
        out.append(f"exit {code}, recorded {row['exit']}")
    if sha != row["sha256"]:
        out.append(f"sha256 {sha}, recorded {row['sha256']}")
    if len(lapack) != len(row["lapack"]) or not np.allclose(
            lapack, row["lapack"], rtol=0, atol=LAPACK_TOL):
        out.append(f"LAPACK numbers {lapack}, recorded {row['lapack']}")
    return out


ROWS = json.loads(ROWS_PATH.read_text())


def row_of(*argv):
    return next(row for row in ROWS if row["argv"] == list(argv))


@pytest.fixture(autouse=True)
def default_tol(monkeypatch):
    monkeypatch.delenv("NCK_TOL", raising=False)


@pytest.mark.parametrize("row", ROWS, ids=[" ".join(row["argv"]) for row in ROWS])
def test_row(row):
    assert mismatches(row) == []


# -- negative controls --------------------------------------------------------


def test_one_ulp_residual_fails(monkeypatch):
    flatness = holomorphic.flatness_check
    monkeypatch.setattr(holomorphic, "flatness_check",
                        lambda conn: float(np.nextafter(flatness(conn), np.inf)))
    (problem,) = mismatches(row_of("holo", "flat", "--conn", "data/conn_curved.json"))
    assert problem.startswith("sha256")


def test_reordered_key_fails(monkeypatch):
    # the keys in the order the command builds them, not sorted
    monkeypatch.setattr(json, "dumps", lambda obj, **kw: _dumps(obj, indent=2))
    (problem,) = mismatches(row_of("clifford", "--n", "4"))
    assert problem.startswith("sha256")


def test_one_ulp_containment_row_fails(monkeypatch):
    # the bidegree rows are exact, and hashed like every other number
    check = forms.bidegree_decomposition_check

    def nudged(*args, **kwargs):
        rp = check(*args, **kwargs)
        rp.checks[-1].residual = float(np.nextafter(rp.checks[-1].residual, np.inf))
        return rp

    monkeypatch.setattr(forms, "bidegree_decomposition_check", nudged)
    (problem,) = mismatches(row_of("forms", "--n", "4"))
    assert problem.startswith("sha256")


def test_unsigned_zero_in_norm_basis_fails(monkeypatch):
    # the Grassmannian basis prints "im": -0.0 (the conjugate of 1 + 0j);
    # its row is hashed whole, so the same numbers with +0.0 fail
    h0_solve = holomorphic.h0_solve

    def unsigned(conn, radius):
        return [[TorusElement(x.theta, {k: complex(c.real, abs(c.imag))
                                        for k, c in x.coeffs.items()}) for x in xi]
                for xi in h0_solve(conn, radius)]

    monkeypatch.setattr(holomorphic, "h0_solve", unsigned)
    (problem,) = mismatches(row_of("holo", "h0", "--conn", "data/conn_grassmannian.json",
                                   "--radius", "3"))
    assert problem.startswith("sha256")


def test_changed_exit_code_fails(monkeypatch):
    emit = cli.emit
    monkeypatch.setattr(cli, "emit", lambda *args: 1 - emit(*args))
    (problem,) = mismatches(row_of("holo", "flat", "--conn", "data/conn_m1.json"))
    assert problem.startswith("exit")


def record(argv):
    """Run argv and write its row to data/contract.json, in place of the row
    with the same argv or after the others."""
    os.environ.pop("NCK_TOL", None)
    code, stdout = run(argv)
    sha, lapack = digest(argv, stdout)
    new = {"argv": argv, "exit": code, "sha256": sha, "lapack": lapack}
    rows = [new if row["argv"] == argv else row for row in ROWS]
    if new not in rows:
        rows.append(new)
    ROWS_PATH.write_text(_dumps(rows, indent=1) + "\n")
    print(_dumps(new))


if __name__ == "__main__":
    record(sys.argv[1:])
