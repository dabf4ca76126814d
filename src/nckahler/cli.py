"""Batch front-end: load a deformation matrix, run the verification and
computation modules, and emit deterministic JSON reports.

Exit codes: 0 all checks pass; 1 some check failed (report still written);
2 invalid configuration.  Internal faults (a LinAlgError, a failed Clifford
self-check) are not configuration errors: they propagate with their traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from functools import lru_cache

import numpy as np

from . import __version__, clifford, forms, holomorphic, kahler
from .report import VerificationReport, resolve_tol
from .torus import ThetaMatrix


class ConfigError(Exception):
    pass


# verify --dump-ops holds del and delbar of each package, at most 2 n 4^n entries
# (first order at mode 0) of about DUMP_ENTRY_BYTES of peak RSS each (measured
# at n = 8); a dump over DUMP_MAX_BYTES is refused before anything is built.
DUMP_ENTRY_BYTES, DUMP_MAX_BYTES = 110, 1 << 30


def atomic_write(path, text):
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_theta(args, default_n=2):
    n = getattr(args, "n", None)
    if n is not None and n < 1:
        raise ConfigError(f"--n must be a positive torus dimension, got {n}")
    if getattr(args, "theta", None):
        with open(args.theta) as fh:
            theta = ThetaMatrix.from_json(json.load(fh))
        if n is not None and n != theta.n:
            raise ConfigError(f"--n {n} contradicts the n={theta.n} of {args.theta}")
        return theta
    n = default_n if n is None else n
    # deterministic generic irrational-entry default
    return ThetaMatrix.random(n, np.random.default_rng(0))


def parse_eps(text):
    if text in ("both", None):
        return [1, -1]
    if text in ("+1", "1", "+"):
        return [1]
    if text in ("-1", "-"):
        return [-1]
    raise ConfigError(f"--eps-prime must be +1, -1 or both, got {text!r}")


def emit(report_obj, out_path, all_pass):
    """Serialise once; print the text and write the same text to out_path."""
    text = json.dumps(report_obj, indent=2, sort_keys=True)
    if out_path:
        atomic_write(out_path, text + "\n")
    print(text)
    return 0 if all_pass else 1


def _meta(tol):
    return {"version": __version__, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "tol": tol}


# -- subcommands ------------------------------------------------------------


def cmd_clifford(args):
    rep = clifford.build_gamma(args.n)
    obj = {
        "n": rep.n,
        "N": rep.N,
        "relations_residual": clifford.relations_residual(rep),
        "grading_residual": clifford.grading_product_check(rep),
        "signs_plus": list(rep.signs_plus),
        "signs_minus": list(rep.signs_minus),
    }
    # build_gamma raises SelfCheckError on a non-zero relations residual, and
    # sigma is gamma_1 ... gamma_n / c by construction: both residuals are 0
    return emit(obj, args.out, True)


def cmd_enumerate(args):
    ms = kahler.enumerate_matchings(args.n)
    obj = {"n": args.n, "count": len(ms), "matchings": [str(m) for m in ms]}
    return emit(obj, args.out, True)


def cmd_verify(args):
    theta = load_theta(args)
    tol = resolve_tol(args.tol)
    if args.matching and args.matching != "all":
        matchings = [kahler.Matching.parse(args.matching)]
        for m in matchings:
            if m.two_k != theta.n:
                raise ConfigError(f"matching {m} is not a perfect matching of 1..{theta.n}")
    else:
        matchings = kahler.enumerate_matchings(theta.n)
    eps = parse_eps(args.eps_prime)
    size = len(matchings) * len(eps) * 2 * theta.n * 4 ** theta.n * DUMP_ENTRY_BYTES
    if args.dump_ops and size > DUMP_MAX_BYTES:
        raise ConfigError(f"--dump-ops needs about {size} bytes, over the limit of "
                          f"{DUMP_MAX_BYTES}; pass one --matching or --eps-prime")
    dumps = {}

    def dump(pkg):
        dumps[f"{pkg.matching}|eps'={pkg.eps_prime:+d}"] = {
            "del": pkg.del_hol.to_json(),
            "delbar": pkg.del_bar.to_json(),
        }

    rp = kahler.verify_grid(theta, matchings, eps, tol=tol,
                            on_package=dump if args.dump_ops else None)
    rp.meta = _meta(tol) | {
        "n": theta.n,
        "matching": args.matching or "all",
        "eps_prime": args.eps_prime or "both",
    }
    if dumps:
        rp.meta["operators"] = dumps
    return emit(rp.to_json(), args.out, rp.all_pass)


def cmd_forms(args):
    theta = load_theta(args, default_n=4)
    tol = resolve_tol(args.tol)
    fbm = forms.build_form_matrices(theta.n)
    table = forms.rank_table(fbm)
    rp = forms.bidegree_decomposition_check(fbm, tol=tol)
    nilpotency = forms.nilpotency_residual(fbm)
    rp.meta = _meta(tol) | {"n": theta.n, "nilpotency_residual": nilpotency,
                               "table": table}
    return emit(rp.to_json(), args.out, rp.all_pass and nilpotency < 1e-12)


def load_connection(path):
    with open(path) as fh:
        obj = json.load(fh)
    theta = ThetaMatrix.from_json(obj["theta"])
    return holomorphic.Connection.from_json(theta, obj)


def cmd_holo(args):
    tol = resolve_tol(args.tol)
    if args.holo_cmd == "kernel":
        theta = load_theta(args)
        basis = holomorphic.holomorphic_kernel(theta, args.radius)
        obj = {"n": theta.n, "radius": args.radius, "dimension": len(basis),
               "basis": [b.to_json() for b in basis]}
        return emit(obj, args.out, len(basis) == 1)
    if args.holo_cmd == "flat":
        conn = load_connection(args.conn)
        res = holomorphic.flatness_check(conn)
        obj = {"m": conn.m, "residual": res, "flat": res < tol}
        return emit(obj, args.out, True)
    if args.holo_cmd == "h0":
        conn = load_connection(args.conn)
        basis = holomorphic.h0_solve(conn, args.radius)
        obj = {"m": conn.m, "radius": args.radius, "dimension": len(basis),
               "basis": [[x.to_json() for x in xi] for xi in basis]}
        return emit(obj, args.out, True)
    if args.holo_cmd == "ps-compare":
        with open(args.theta2) as fh:
            theta = ThetaMatrix.from_json(json.load(fh))
        res = holomorphic.ps_compare(theta, radius=args.radius)
        obj = {"residual": res, "pass": res < 1e-12}
        return emit(obj, args.out, obj["pass"])
    raise ConfigError(f"unknown holo subcommand {args.holo_cmd!r}")


def cmd_report(args):
    """Everything at once for one torus dimension."""
    theta = load_theta(args)
    tol = resolve_tol(args.tol)
    rep = clifford.build_gamma(theta.n)
    rp = VerificationReport(tol=tol)
    rp.add("clifford relations", clifford.relations_residual(rep), 1e-12)
    rp.add("grading product", clifford.grading_product_check(rep), 1e-12)
    rp.extend(kahler.verify_grid(theta, kahler.enumerate_matchings(theta.n),
                                 rep=rep, tol=tol))
    for variant in ("plus", "minus"):
        sub = kahler.verify_real_structure(theta, rep=rep, variant=variant, tol=tol)
        for c in sub.checks:
            rp.add(f"[J {variant}] {c.name}", c.residual, c.tol)
    fbm = forms.build_form_matrices(rep)
    rp.add("form nilpotency", forms.nilpotency_residual(fbm), 1e-12)
    rp.extend(forms.bidegree_decomposition_check(fbm, tol=tol))
    kern = holomorphic.holomorphic_kernel(theta, args.radius)
    rp.add("holomorphic kernel is C.1", float(abs(len(kern) - 1)), 0.5)
    rp.meta = _meta(tol) | {"n": theta.n, "matching": "all", "eps_prime": "both"}
    for line in rp.lines():
        print(line, file=sys.stderr)
    return emit(rp.to_json(), args.out, rp.all_pass)


# -- argument parsing -------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="nckahler",
        description="verify the Kahler operator identities of noncommutative even tori",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, radius=False):
        sp.add_argument("--theta", help="path to a deformation-matrix JSON file")
        sp.add_argument("--n", type=int, help="torus dimension (even)")
        sp.add_argument("--tol", type=float, default=None,
                        help="residual tolerance (default 1e-10 or NCK_TOL)")
        if radius:
            sp.add_argument("--radius", type=int, default=3, help="truncation box radius")
        sp.add_argument("--out", help="write the JSON report to this path (atomic)")

    sp = sub.add_parser("clifford", help="gamma matrices, grading, sign tables")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_clifford)

    sp = sub.add_parser("enumerate", help="perfect matchings of 1..n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("verify", help="run the N=(2,2) checklist")
    common(sp)
    sp.add_argument("--matching", help='"1-2,3-4" or "all" (default all)')
    sp.add_argument("--eps-prime", dest="eps_prime", help="+1, -1 or both")
    sp.add_argument("--dump-ops", dest="dump_ops", action="store_true",
                    help="include operator normal forms in the report")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("forms", help="differential-form ranks")
    common(sp)
    sp.set_defaults(func=cmd_forms)

    sp = sub.add_parser("holo", help="holomorphic calculus")
    hsub = sp.add_subparsers(dest="holo_cmd", required=True)
    hp = hsub.add_parser("kernel")
    common(hp, radius=True)
    hp.set_defaults(func=cmd_holo)
    hp = hsub.add_parser("flat")
    hp.add_argument("--conn", required=True, help="connection JSON file")
    hp.add_argument("--tol", type=float, default=None)
    hp.add_argument("--out")
    hp.set_defaults(func=cmd_holo)
    hp = hsub.add_parser("h0")
    hp.add_argument("--conn", required=True)
    hp.add_argument("--radius", type=int, default=3)
    hp.add_argument("--tol", type=float, default=None)
    hp.add_argument("--out")
    hp.set_defaults(func=cmd_holo)
    hp = hsub.add_parser("ps-compare")
    hp.add_argument("--theta2", required=True, help="2x2 deformation matrix JSON")
    hp.add_argument("--radius", type=int, default=4)
    hp.add_argument("--tol", type=float, default=None)
    hp.add_argument("--out")
    hp.set_defaults(func=cmd_holo)

    sp = sub.add_parser("report", help="full verification report")
    common(sp, radius=True)
    sp.set_defaults(func=cmd_report)
    return p


@lru_cache(maxsize=None)
def _parser():
    """The parser, built once per process: parse_args keeps no state in it."""
    return build_parser()


def main(argv=None):
    # argparse itself exits with 2 on usage errors
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError:
        raise
    except (ConfigError, kahler.MatchingError, FileNotFoundError,
            json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
