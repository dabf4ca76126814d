"""Verification reports: named residual checks with a shared tolerance."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

DEFAULT_TOL = 1e-10


def resolve_tol(tol=None):
    """The residual tolerance: tol if given, else the NCK_TOL variable, else
    DEFAULT_TOL.  A NaN, infinite or negative tolerance is a configuration
    error (ValueError); 0 is allowed and fails every check held to it, while
    the checks with a fixed threshold (0.5 or 1e-12) keep theirs."""
    source, value = ("tol", tol) if tol is not None else ("NCK_TOL", os.environ.get("NCK_TOL"))
    if value is None or value == "":
        return DEFAULT_TOL
    if not 0 <= float(value) < math.inf:
        raise ValueError(f"{source} must be a finite number >= 0, got {value!r}")
    return float(value)


@dataclass
class Check:
    name: str
    residual: float
    tol: float

    @property
    def passed(self):
        return self.residual < self.tol

    def to_json(self):
        return {"name": self.name, "residual": self.residual, "pass": self.passed}


@dataclass
class VerificationReport:
    tol: float
    checks: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, name, residual, tol=None):
        self.checks.append(Check(name, float(residual), self.tol if tol is None else tol))

    def extend(self, other):
        self.checks.extend(other.checks)

    @property
    def all_pass(self):
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self):
        return max((c.residual for c in self.checks), default=0.0)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_json(self):
        out = dict(self.meta)
        out["checks"] = [c.to_json() for c in self.checks]
        out["summary"] = {
            "pass_count": sum(c.passed for c in self.checks),
            "total": len(self.checks),
            "max_residual": self.max_residual,
            "all_pass": self.all_pass,
        }
        return out

    def lines(self):
        for c in self.checks:
            yield f"{'PASS' if c.passed else 'FAIL'}  {c.name:<40s} residual={c.residual:.3e}"
