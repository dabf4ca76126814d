"""Per-layer tracing from outside the program.

`Tracer.install` wraps public functions and methods of the nckahler modules
in place.  A span records calls and self time (its duration minus the time
its traced children cover); a counter records calls only, for functions too
small to time without distorting their callers.  Install it once, in a worker
process that exists for one run.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter, defaultdict
from itertools import product as iproduct

from nckahler import cli, clifford, forms, holomorphic, kahler, ncdiff, report, torus

# (metric prefix, owner, attribute)
SPANS = [
    ("torus.compatible", torus.ThetaMatrix, "compatible"),
    ("torus.element_mul", torus.TorusElement, "mul"),
    ("ncdiff.matmul", ncdiff.TorusMatrix, "matmul"),
    ("ncdiff.compose", ncdiff.NCDiffOp, "compose"),
    ("ncdiff.adjoint", ncdiff.NCDiffOp, "adjoint"),
    ("ncdiff.apply", ncdiff.NCDiffOp, "apply"),
    ("kahler.build_package", kahler, "build_kahler_package"),
    ("kahler.verify_n22", kahler, "verify_n22"),
    ("kahler.verify_pm", kahler, "verify_pm_conjugation"),
    ("kahler.real_structure", kahler, "verify_real_structure"),
    ("clifford.build_gamma", clifford, "build_gamma"),
    ("forms.rank_table", forms, "rank_table"),
    ("forms.bidegree", forms, "bidegree_decomposition_check"),
    ("holo.h0_solve", holomorphic, "h0_solve"),
    ("holo.flatness", holomorphic, "flatness_check"),
    ("cli.emit", cli, "emit"),
]
COUNTERS = [
    ("torus.phase", torus.ThetaMatrix, "phase"),
    ("torus.element_add", torus.TorusElement, "__add__"),
    ("clifford.charge_conjugation", clifford, "charge_conjugation"),
    ("forms.form_rank", forms, "form_rank"),
    ("report.checks", report.VerificationReport, "add"),
]
# Work counts taken from the operands and results of a span.
DERIVED = ("ncdiff.block_products", "ncdiff.matmul.merge_ratio", "kahler.package.terms",
           "kahler.package.blocks", "holo.h0.unknowns", "holo.h0.dense_bytes")

def metric_names():
    names = []
    for prefix, _, _ in SPANS:
        names += [f"{prefix}.calls", f"{prefix}.s"]
    names += [f"{prefix}.calls" for prefix, _, _ in COUNTERS]
    return names + list(DERIVED)


def _package_size(pkg):
    ops = [getattr(pkg, f.name) for f in dataclasses.fields(pkg)]
    ops = [op for op in ops if isinstance(op, ncdiff.NCDiffOp)]
    return (sum(len(op.terms) for op in ops),
            sum(len(tm.blocks) for op in ops for tm in op.terms.values()))


def _h0_size(conn, radius):
    """(unknowns, dense system bytes) of h0_solve on `conn`; the bytes are
    rows x unknowns x 16 as the dense path would allocate them, computed from
    the input, and 0 for the diagonal path (every A_j a constant scalar)."""
    n, m, half = conn.theta.n, conn.m, conn.theta.n // 2
    box = list(iproduct(range(-radius, radius + 1), repeat=n))
    unknowns = len(box) * m
    zero = (0,) * n
    supports = {k for Aj in conn.A for row in Aj for a in row for k in a.coeffs}
    diagonal = supports <= {zero} and all(
        Aj[i][l].coeffs.get(zero, 0) == (Aj[0][0].coeffs.get(zero, 0) if i == l else 0)
        for Aj in conn.A for i in range(m) for l in range(m))
    if diagonal:
        return unknowns, 0
    out_modes = set(box)
    for k in supports:
        out_modes.update(tuple(x + y for x, y in zip(k, mode)) for mode in box)
    return unknowns, len(out_modes) * m * half * unknowns * 16


class Tracer:
    """Per-layer calls, self times and work counts; `clock` is the time
    source of the spans."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.work = Counter()
        self._stack = []

    def _span(self, name, fn, after=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = self._clock

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_matmul(self, args, out):
        self.work["ncdiff.block_products"] += len(args[0].blocks) * len(args[1].blocks)
        self.work["ncdiff.matmul.out_blocks"] += len(out.blocks)

    def _after_package(self, args, pkg):
        terms, blocks = _package_size(pkg)
        self.work["kahler.package.terms"] += terms
        self.work["kahler.package.blocks"] += blocks

    def _after_h0(self, args, out):
        unknowns, dense_bytes = _h0_size(args[0], args[1])
        self.work["holo.h0.unknowns"] += unknowns
        self.work["holo.h0.dense_bytes"] += dense_bytes

    def install(self):
        after = {"ncdiff.matmul": self._after_matmul,
                 "kahler.build_package": self._after_package,
                 "holo.h0_solve": self._after_h0}
        for name, owner, attr in SPANS:
            _replace(owner, attr, self._span(name, getattr(owner, attr), after.get(name)))
        for name, owner, attr in COUNTERS:
            _replace(owner, attr, self._counter(name, getattr(owner, attr)))

    def metrics(self):
        out = {}
        for prefix, _, _ in SPANS:
            out[f"{prefix}.calls"] = self.calls[prefix]
            out[f"{prefix}.s"] = self.self_s[prefix]
        for prefix, _, _ in COUNTERS:
            out[f"{prefix}.calls"] = self.calls[prefix]
        products = self.work["ncdiff.block_products"]
        for name in DERIVED:
            out[name] = self.work[name]
        out["ncdiff.matmul.merge_ratio"] = (
            self.work["ncdiff.matmul.out_blocks"] / products if products else 0.0)
        return out


def _replace(owner, attr, wrapper):
    """Rebind owner.attr; for a module function, also every nckahler module
    that imported it by name."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if name == "nckahler" or name.startswith("nckahler."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
