"""Benchmark workloads: seeded inputs, the items of one pass, and the
correctness gate that compares every item's result with the reference.

Each workload is a closed loop with one caller: the next item starts when the
previous one has returned and its result has been checked.  The program sees
only the generated deformation-matrix and connection files.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from nckahler import cli, clifford, holomorphic, kahler
from nckahler.torus import ThetaMatrix, TorusElement

# Torus dimensions whose Clifford representations each workload builds in setup.
DIMS = {"n22-sweep": (4, 6), "real-structure": (4, 6), "leaf-linalg": (6,)}

# A residual may differ from the reference by at most this much.
RESIDUAL_TOL = 1e-12

REFERENCE_PATH = Path(__file__).with_name("reference.json")


# -- inputs -----------------------------------------------------------------


def _write_json(path, obj):
    path.write_text(json.dumps(obj, sort_keys=True))
    return str(path)


def _connection_json(theta, m, A):
    obj = holomorphic.Connection(theta, m, A).to_json()
    obj["theta"] = theta.to_json()
    return obj


def make_inputs(workload, seed, workdir):
    """Write the seeded input files for one workload into `workdir`."""
    workdir = Path(workdir)
    thetas = {n: ThetaMatrix.random(n, np.random.default_rng(seed)) for n in (4, 6)}
    inputs = {"thetas": thetas, "theta_files": {
        n: _write_json(workdir / f"theta{n}.json", th.to_json())
        for n, th in thetas.items()}}
    if workload == "leaf-linalg":
        # Flat non-diagonal connections on the n=4 torus: A_1 = c U_2 P with a
        # constant pattern P and A_2 = 0, flat because delta_2(U_2) = 0.
        theta = thetas[4]
        rng = np.random.default_rng([seed, 1])
        c1, c2 = (complex(rng.normal(), rng.normal()) for _ in range(2))
        u2, zero = TorusElement.generator(theta, 2), TorusElement.zero(theta)
        conns = {
            "m1": _connection_json(theta, 1, [[[u2.scale(c1)]], [[zero]]]),
            "m2": _connection_json(theta, 2, [[[zero, u2.scale(c2)], [zero, zero]],
                                              [[zero, zero], [zero, zero]]]),
            "grassmannian": _connection_json(theta, 2, holomorphic.grassmannian(theta, 2).A),
        }
        inputs["conn_files"] = {name: _write_json(workdir / f"conn_{name}.json", obj)
                                for name, obj in conns.items()}
    return inputs


# -- items ------------------------------------------------------------------


def run_cli(argv, out_path):
    """One in-process `nckahler` call; returns (exit code, JSON it wrote)."""
    Path(out_path).unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv + ["--out", out_path])
    try:
        written = json.loads(Path(out_path).read_text())
    except FileNotFoundError:
        written = None
    return rc, written


def _checks(items):
    return [[c["name"], c["pass"], c["residual"]] for c in items]


def _verify_item(theta_file, matching, out):
    rc, obj = run_cli(["verify", "--theta", theta_file, "--matching", matching,
                       "--eps-prime", "both"], out)
    return {"rc": rc, "checks": _checks(obj["checks"])}


def _real_item(theta, rep, variant):
    rp = kahler.verify_real_structure(theta, rep=rep, variant=variant)
    return {"checks": [[c.name, c.passed, c.residual] for c in rp.checks]}


def _forms_item(theta_file, out):
    rc, obj = run_cli(["forms", "--theta", theta_file], out)
    return {"rc": rc, "table": obj["table"], "checks": _checks(obj["checks"]),
            "nilpotency_residual": obj["nilpotency_residual"]}


def _flat_item(conn_file, out):
    rc, obj = run_cli(["holo", "flat", "--conn", conn_file], out)
    return {"rc": rc, "flat": obj["flat"], "residual": obj["residual"]}


def _h0_item(conn_file, radius, out):
    rc, obj = run_cli(["holo", "h0", "--conn", conn_file, "--radius", str(radius)], out)
    return {"rc": rc, "dimension": obj["dimension"]}


def items(workload, inputs, reps, workdir):
    """The (key, call) pairs of one pass, in order; each call returns the
    item's result in the normalised form the reference stores."""
    out = str(Path(workdir) / "out.json")
    files = inputs["theta_files"]
    if workload == "n22-sweep":
        return [(f"verify n={n} {m}",
                 lambda f=files[n], m=str(m): _verify_item(f, m, out))
                for n in (4, 6) for m in kahler.enumerate_matchings(n)]
    if workload == "real-structure":
        return [(f"real n={n} {v}",
                 lambda th=inputs["thetas"][n], rep=reps[n], v=v: _real_item(th, rep, v))
                for n in (4, 6) for v in ("plus", "minus")]
    conns = inputs["conn_files"]
    return [
        ("forms n=6", lambda: _forms_item(files[6], out)),
        ("flat m=1", lambda: _flat_item(conns["m1"], out)),
        ("flat m=2", lambda: _flat_item(conns["m2"], out)),
        ("h0 m=1 r=2", lambda: _h0_item(conns["m1"], 2, out)),
        ("h0 m=2 r=2", lambda: _h0_item(conns["m2"], 2, out)),
        ("h0 grassmannian m=2 r=3", lambda: _h0_item(conns["grassmannian"], 3, out)),
    ]


def build_reps(workload):
    return {n: clifford.build_gamma(n) for n in DIMS[workload]}


# -- correctness gate -------------------------------------------------------


def binomial_table(n):
    half = n // 2
    return [{"level": r, "omega_d": math.comb(n, r), "omega_0q": math.comb(half, r),
             "omega_p0": math.comb(half, r)} for r in range(n + 2)]


def _diff(got, want, path, errors):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            errors.append(f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                          f" != {sorted(want)}")
            return
        for k in want:
            _diff(got[k], want[k], f"{path}.{k}", errors)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            errors.append(f"{path}: length differs from the reference")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _diff(g, w, f"{path}[{i}]", errors)
    elif isinstance(want, float) and not isinstance(got, bool):
        if not isinstance(got, (int, float)) or not abs(got - want) <= RESIDUAL_TOL:
            errors.append(f"{path}: {got!r} differs from reference {want!r}")
    elif type(got) is not type(want) or got != want:
        errors.append(f"{path}: {got!r} != reference {want!r}")


def check(key, result, reference):
    """Mismatches between one item's result and its reference (empty if none).

    An item fails on a nonzero exit code, on any failing check, on a residual
    more than RESIDUAL_TOL from the reference, on a rank table that is not the
    binomial table, or on an H^0 dimension other than the reference."""
    errors = []
    if key not in reference:
        return [f"{key}: no reference result"]
    if result.get("rc", 0) != 0:
        errors.append(f"{key}: exit code {result['rc']}")
    for name, passed, _ in result.get("checks", []):
        if passed is not True:
            errors.append(f"{key}: check {name!r} failed")
    if "table" in result:
        n = int(key.split("n=")[1].split()[0])
        if result["table"] != binomial_table(n):
            errors.append(f"{key}: rank table is not the binomial table")
    _diff(result, reference[key], key, errors)
    return errors


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())
