"""Batch front-end: load a deformation matrix, run the verification and
computation modules, and emit deterministic JSON reports.

Exit codes: 0 all checks pass; 1 some check failed (report still written);
2 invalid configuration: a ConfigError from the loaders and argument checks
below, a missing file or a file that is not JSON.  Any other exception is an
internal fault (a LinAlgError, a failed Clifford self-check, an error inside a
computation): it propagates with its traceback, and Python exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from . import __version__, clifford, forms, holomorphic, kahler
from .report import VerificationReport, resolve_tol
from .torus import ThetaMatrix


class ConfigError(Exception):
    """Bad input: a flag, NCK_TOL, a Theta or connection file, or an input
    over a size bound.  Its message names the field."""


@contextmanager
def field(name, *errors):
    """Raise an error of `errors` (default ValueError) from the block, which
    reads the field `name`, as a ConfigError naming it."""
    try:
        yield
    except errors or ValueError as exc:
        what = f"no key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"{name}: {what}") from None


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


@contextmanager
def reading(flag, path):
    """The JSON content of the file that `flag` names; a file that cannot be
    read, or content that the block cannot load, is a ConfigError."""
    with field(f"{flag} {path}", OSError, KeyError, TypeError, ValueError), open(path) as fh:
        yield json.load(fh)


def read_theta(flag, path):
    with reading(flag, path) as obj:
        return ThetaMatrix.from_json(obj)


def load_theta(args, default_n=2):
    n = getattr(args, "n", None)
    if n is not None and n < 1:
        raise ConfigError(f"--n must be a positive torus dimension, got {n}")
    if getattr(args, "theta", None):
        theta = read_theta("--theta", args.theta)
        if n is not None and n != theta.n:
            raise ConfigError(f"--n {n} contradicts the n={theta.n} of {args.theta}")
        return theta
    n = default_n if n is None else n
    # deterministic generic irrational-entry default
    with field("--n"):
        return ThetaMatrix.random(n, np.random.default_rng(0))


def load_rep(n):
    """The Clifford rep of the torus dimension n, which --n or --theta gave;
    the rep's refusal of n is bad input."""
    with field("torus dimension n", clifford.CliffordError):
        return clifford.build_gamma(n)


def load_tol(args):
    with field("--tol" if args.tol is not None else "NCK_TOL"):
        return resolve_tol(args.tol)


def check_radius(args):
    if args.radius < 0:
        raise ConfigError(f"--radius must be >= 0, got {args.radius}")


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
    rep = load_rep(args.n)
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
    with field("--n", kahler.MatchingError):
        ms = kahler.enumerate_matchings(args.n)
    obj = {"n": args.n, "count": len(ms), "matchings": [str(m) for m in ms]}
    return emit(obj, args.out, True)


def cmd_verify(args):
    theta = load_theta(args)
    tol = load_tol(args)
    load_rep(theta.n)  # an n the rep does not support is refused before the grid
    if args.matching is not None and args.matching != "all":
        with field("--matching", kahler.MatchingError):
            matchings = [kahler.Matching.parse(args.matching)]
        for m in matchings:
            if m.two_k != theta.n:
                raise ConfigError(f"--matching {m} is not a perfect matching of 1..{theta.n}")
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
    tol = load_tol(args)
    load_rep(theta.n)  # an n the rep does not support is refused before the forms
    fbm = forms.build_form_matrices(theta.n)
    table = forms.rank_table(fbm)
    rp = forms.bidegree_decomposition_check(fbm, tol=tol)
    nilpotency = forms.nilpotency_residual(fbm)
    rp.meta = _meta(tol) | {"n": theta.n, "nilpotency_residual": nilpotency,
                               "table": table}
    return emit(rp.to_json(), args.out, rp.all_pass and nilpotency < 1e-12)


def load_connection(path):
    with reading("--conn", path) as obj:
        return holomorphic.Connection.from_json(ThetaMatrix.from_json(obj["theta"]), obj)


def cmd_holo(args):
    if args.holo_cmd == "kernel":
        theta = load_theta(args)
        check_radius(args)
        with field(f"--radius {args.radius}", holomorphic.BoundError):
            basis = holomorphic.holomorphic_kernel(theta, args.radius)
        obj = {"n": theta.n, "radius": args.radius, "dimension": len(basis),
               "basis": [b.to_json() for b in basis]}
        return emit(obj, args.out, len(basis) == 1)
    if args.holo_cmd == "flat":
        tol = load_tol(args)
        conn = load_connection(args.conn)
        res = holomorphic.flatness_check(conn)
        obj = {"m": conn.m, "residual": res, "flat": res < tol}
        return emit(obj, args.out, obj["flat"])
    if args.holo_cmd == "h0":
        conn = load_connection(args.conn)
        check_radius(args)
        with field(f"--radius {args.radius}", holomorphic.BoundError):
            basis = holomorphic.h0_solve(conn, args.radius)
        obj = {"m": conn.m, "radius": args.radius, "dimension": len(basis),
               "basis": [[x.to_json() for x in xi] for xi in basis]}
        return emit(obj, args.out, True)
    # ps-compare, the last of the four required subcommands
    theta = read_theta("--theta2", args.theta2)
    if theta.n != 2:
        raise ConfigError(f"--theta2 {args.theta2}: comparison requires torus dimension 2, "
                          f"got {theta.n}")
    check_radius(args)
    res = holomorphic.ps_compare(theta, radius=args.radius)
    obj = {"residual": res, "pass": res < 1e-12}
    return emit(obj, args.out, obj["pass"])


def cmd_report(args):
    """Everything at once for one torus dimension."""
    check_radius(args)
    theta = load_theta(args)
    tol = load_tol(args)
    rep = load_rep(theta.n)
    # the kernel's byte bound refuses --radius before the grid runs
    with field(f"--radius {args.radius}", holomorphic.BoundError):
        kern = holomorphic.holomorphic_kernel(theta, args.radius)
    rp = VerificationReport(tol=tol)
    rp.add("clifford relations", clifford.relations_residual(rep), 1e-12)
    rp.add("grading product", clifford.grading_product_check(rep), 1e-12)
    rp.extend(kahler.verify_grid(theta, kahler.enumerate_matchings(theta.n), tol=tol))
    for variant in ("plus", "minus"):
        sub = kahler.verify_real_structure(theta, rep=rep, variant=variant, tol=tol)
        for c in sub.checks:
            rp.add(f"[J {variant}] {c.name}", c.residual, c.tol)
    fbm = forms.build_form_matrices(theta.n)
    rp.add("form nilpotency", forms.nilpotency_residual(fbm), 1e-12)
    rp.extend(forms.bidegree_decomposition_check(fbm, tol=tol))
    rp.add("holomorphic kernel is C.1", float(abs(len(kern) - 1)), 0.5)
    rp.meta = _meta(tol) | {"n": theta.n, "matching": "all", "eps_prime": "both"}
    for line in rp.lines():
        print(line, file=sys.stderr)
    return emit(rp.to_json(), args.out, rp.all_pass)


# -- argument parsing -------------------------------------------------------


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser: it refuses an argument it does not read with its
    own usage (exit 2), where argparse would hand it up to the parent."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser():
    p = argparse.ArgumentParser(
        prog="nckahler",
        description="verify the Kahler operator identities of noncommutative even tori",
    )
    # one parent parser per shared option; each subcommand takes the parents
    # whose options it reads, and argparse refuses the others (exit 2)
    out, tol, radius, torus, dim, conn = (argparse.ArgumentParser(add_help=False)
                                          for _ in range(6))
    out.add_argument("--out", help="write the JSON report to this path (atomic)")
    tol.add_argument("--tol", type=float, help="residual tolerance (default 1e-10 or NCK_TOL)")
    radius.add_argument("--radius", type=int, default=3, help="truncation box radius")
    torus.add_argument("--theta", help="path to a deformation-matrix JSON file")
    torus.add_argument("--n", type=int, help="torus dimension (even)")
    dim.add_argument("--n", type=int, required=True, help="torus dimension (even)")
    conn.add_argument("--conn", required=True, help="connection JSON file")

    def command(subs, name, func, *parents, **kwargs):
        sp = subs.add_parser(name, parents=[*parents, out], **kwargs)
        sp.set_defaults(func=func)
        return sp

    sub = p.add_subparsers(dest="cmd", required=True, parser_class=_Subcommand)
    command(sub, "clifford", cmd_clifford, dim, help="gamma matrices, grading, sign tables")
    command(sub, "enumerate", cmd_enumerate, dim, help="perfect matchings of 1..n")
    sp = command(sub, "verify", cmd_verify, torus, tol, help="run the N=(2,2) checklist")
    sp.add_argument("--matching", help='"1-2,3-4" or "all" (default all)')
    sp.add_argument("--eps-prime", help="+1, -1 or both")
    sp.add_argument("--dump-ops", action="store_true",
                    help="include operator normal forms in the report")
    command(sub, "forms", cmd_forms, torus, tol, help="differential-form ranks")

    hsub = sub.add_parser("holo", help="holomorphic calculus").add_subparsers(
        dest="holo_cmd", required=True)
    command(hsub, "kernel", cmd_holo, torus, radius)
    command(hsub, "flat", cmd_holo, conn, tol)
    command(hsub, "h0", cmd_holo, conn, radius)
    sp = command(hsub, "ps-compare", cmd_holo)
    sp.add_argument("--theta2", required=True, help="2x2 deformation matrix JSON")
    sp.add_argument("--radius", type=int, default=4, help="truncation box radius")

    command(sub, "report", cmd_report, torus, tol, radius, help="full verification report")
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
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
