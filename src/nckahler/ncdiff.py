"""Normal-ordered matrix-valued differential operators on the torus.

An operator is a finite sum  sum_alpha  M_alpha . del^alpha  where alpha is a
derivation multi-index and M_alpha is an m x m matrix of torus elements.  Since
the symbols del^alpha act on U^k with distinct eigenvalue tuples (2 pi i k)^alpha,
two operators agree on the dense smooth domain iff their normal forms agree
coefficient by coefficient — identity checks here are exact, not box-truncated.

Matrix coefficients are stored mode-blocked: a map from Fourier exponent k to a
constant m x m complex block (the fiber matrices are constant, so they commute
with the scalar phases and the blocked product is the entrywise torus product).
"""

from __future__ import annotations

import math
from itertools import product as iproduct

import numpy as np

from .torus import PRUNE_TOL, TWO_PI_I, DimensionMismatch, TorusElement


def _multi_binom(alpha, gamma):
    return math.prod(math.comb(a, g) for a, g in zip(alpha, gamma))


def _sub_indices(alpha):
    """All gamma with 0 <= gamma <= alpha componentwise."""
    return iproduct(*(range(a + 1) for a in alpha))


def _deriv_factor(k, delta):
    """Eigenvalue of del^delta on U^k."""
    return math.prod((TWO_PI_I * kj) ** dj for kj, dj in zip(k, delta) if dj)


class TorusMatrix:
    """m x m matrix with torus-element entries, blocked by Fourier mode."""

    __slots__ = ("theta", "m", "blocks")

    def __init__(self, theta, m, blocks=None, prune=True):
        self.theta = theta
        self.m = m
        self.blocks = {}
        if blocks:
            for k, mat in blocks.items():
                mat = np.asarray(mat, dtype=complex)
                if mat.shape != (m, m):
                    raise DimensionMismatch(f"block at {k} has shape {mat.shape}")
                if not prune or np.abs(mat).max() >= PRUNE_TOL:
                    self.blocks[k] = mat

    @classmethod
    def zero(cls, theta, m):
        return cls(theta, m)

    @classmethod
    def constant(cls, theta, mat):
        mat = np.asarray(mat, dtype=complex)
        return cls(theta, mat.shape[0], {(0,) * theta.n: mat})

    @classmethod
    def identity(cls, theta, m):
        return cls.constant(theta, np.eye(m))

    @classmethod
    def scalar_element(cls, a, m):
        """a . Id_m for a torus element a."""
        return cls(a.theta, m, {k: c * np.eye(m) for k, c in a.coeffs.items()})

    @classmethod
    def from_entries(cls, theta, entries):
        """Build from a 2d array of TorusElements."""
        m = len(entries)
        blocks = {}
        for i, row in enumerate(entries):
            if len(row) != m:
                raise DimensionMismatch("entries must be square")
            for j, a in enumerate(row):
                for k, c in a.coeffs.items():
                    blocks.setdefault(k, np.zeros((m, m), dtype=complex))[i, j] = c
        return cls(theta, m, blocks)

    def entry(self, i, j):
        coeffs = {k: b[i, j] for k, b in self.blocks.items()}
        return TorusElement(self.theta, coeffs)

    def _check(self, other):
        if self.m != other.m or not self.theta.compatible(other.theta):
            raise DimensionMismatch("torus matrices over incompatible contexts")

    def __add__(self, other):
        self._check(other)
        out = {k: b.copy() for k, b in self.blocks.items()}
        for k, b in other.blocks.items():
            out[k] = out[k] + b if k in out else b
        return TorusMatrix(self.theta, self.m, out)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, z):
        return TorusMatrix(self.theta, self.m, {k: z * b for k, b in self.blocks.items()})

    def matmul(self, other):
        """Entrywise torus product; phases factor out of the constant blocks."""
        self._check(other)
        theta = self.theta
        out = {}
        for k, A in self.blocks.items():
            for kp, B in other.blocks.items():
                kk = tuple(x + y for x, y in zip(k, kp))
                term = theta.phase(k, kp) * (A @ B)
                out[kk] = out[kk] + term if kk in out else term
        return TorusMatrix(theta, self.m, out)

    def star(self):
        """Entrywise star composed with matrix transpose."""
        theta = self.theta
        out = {}
        for k, b in self.blocks.items():
            mk = tuple(-x for x in k)
            out[mk] = theta.star_phase(k) * b.conj().T
        return TorusMatrix(theta, self.m, out, prune=False)

    def derive_multi(self, delta):
        """Apply del^delta entrywise: block k picks up (2 pi i k)^delta."""
        if all(d == 0 for d in delta):
            return self
        out = {}
        for k, b in self.blocks.items():
            f = _deriv_factor(k, delta)
            if f != 0:
                out[k] = f * b
        return TorusMatrix(self.theta, self.m, out)

    def norm(self):
        return max((np.abs(b).max() for b in self.blocks.values()), default=0.0)

    def is_zero(self, tol=PRUNE_TOL):
        return self.norm() < tol


class HVector:
    """Element of the dense domain A_Theta^m: a list of m torus elements."""

    __slots__ = ("theta", "entries")

    def __init__(self, entries):
        if not entries:
            raise ValueError("HVector must have positive length")
        self.entries = list(entries)
        self.theta = self.entries[0].theta
        for e in self.entries:
            if not self.theta.compatible(e.theta):
                raise DimensionMismatch("mixed torus contexts in HVector")

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    @classmethod
    def basis(cls, theta, m, i, exponent=None):
        ex = (0,) * theta.n if exponent is None else tuple(exponent)
        ent = [TorusElement.zero(theta) for _ in range(m)]
        ent[i] = TorusElement.monomial(theta, ex)
        return cls(ent)

    @classmethod
    def random(cls, theta, m, rng, radius=2, terms=3):
        return cls([TorusElement.random(theta, rng, radius, terms) for _ in range(m)])

    def __add__(self, other):
        return HVector([a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return HVector([a - b for a, b in zip(self.entries, other.entries)])

    def scale(self, z):
        return HVector([z * a for a in self.entries])

    def norm(self):
        return max(a.norm() for a in self.entries)

    def close_to(self, other, tol=1e-9):
        return (self - other).norm() < tol


def inner_product(x, y):
    """<x, y> = sum_i tau(x_i* y_i) = sum of conj(coeff) . coeff (Parseval)."""
    if len(x) != len(y):
        raise DimensionMismatch("HVector lengths differ")
    total = 0.0 + 0.0j
    for a, b in zip(x.entries, y.entries):
        for k, c in a.coeffs.items():
            if k in b.coeffs:
                total += c.conjugate() * b.coeffs[k]
    return total


class NCDiffOp:
    """Normal-ordered differential operator  sum_alpha M_alpha . del^alpha."""

    __slots__ = ("theta", "m", "terms")

    def __init__(self, theta, m, terms=None, prune=True):
        self.theta = theta
        self.m = m
        self.terms = {}
        if terms:
            for alpha, mat in terms.items():
                alpha = tuple(int(x) for x in alpha)
                if len(alpha) != theta.n or any(a < 0 for a in alpha):
                    raise ValueError(f"bad multi-index {alpha}")
                if not prune or not mat.is_zero():
                    self.terms[alpha] = mat

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, theta, m):
        return cls(theta, m)

    @classmethod
    def identity(cls, theta, m):
        return cls(theta, m, {(0,) * theta.n: TorusMatrix.identity(theta, m)})

    @classmethod
    def constant(cls, theta, mat):
        """Degree-0 operator with a constant fiber matrix."""
        tm = TorusMatrix.constant(theta, mat)
        return cls(theta, tm.m, {(0,) * theta.n: tm})

    @classmethod
    def derivation(cls, theta, m, j, mat=None):
        """del_j tensor mat (default identity fiber)."""
        alpha = [0] * theta.n
        alpha[j - 1] = 1
        tm = TorusMatrix.identity(theta, m) if mat is None else TorusMatrix.constant(theta, mat)
        return cls(theta, tm.m, {tuple(alpha): tm})

    @classmethod
    def mult(cls, a, m):
        """Left multiplication by the torus element a on A^m."""
        return cls(a.theta, m, {(0,) * a.theta.n: TorusMatrix.scalar_element(a, m)})

    @classmethod
    def random(cls, theta, m, rng, max_degree=1, radius=1, terms=2):
        out = {}
        for _ in range(terms):
            alpha = tuple(int(x) for x in rng.integers(0, max_degree + 1, size=theta.n))
            ents = [[TorusElement.random(theta, rng, radius, 2) for _ in range(m)]
                    for _ in range(m)]
            tm = TorusMatrix.from_entries(theta, ents)
            out[alpha] = out[alpha] + tm if alpha in out else tm
        return cls(theta, m, out)

    # -- ring structure -----------------------------------------------------

    def _check(self, other):
        if self.m != other.m or not self.theta.compatible(other.theta):
            raise DimensionMismatch("operators over incompatible contexts")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for alpha, mat in other.terms.items():
            out[alpha] = out[alpha] + mat if alpha in out else mat
        return NCDiffOp(self.theta, self.m, out)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, z):
        return NCDiffOp(self.theta, self.m, {a: t.scale(z) for a, t in self.terms.items()})

    def compose(self, other):
        """Normal-ordered product: push each del^alpha through the matrix
        coefficients of `other` by the iterated Leibniz rule."""
        self._check(other)
        out = {}
        for alpha, A in self.terms.items():
            for beta, B in other.terms.items():
                for gamma in _sub_indices(alpha):
                    delta = tuple(a - g for a, g in zip(alpha, gamma))
                    dB = B.derive_multi(delta)
                    if dB.is_zero():
                        continue
                    coef = _multi_binom(alpha, gamma)
                    idx = tuple(g + b for g, b in zip(gamma, beta))
                    term = A.matmul(dB).scale(coef)
                    out[idx] = out[idx] + term if idx in out else term
        return NCDiffOp(self.theta, self.m, out)

    def commutator(self, other):
        return self.compose(other) - other.compose(self)

    def anticommutator(self, other):
        return self.compose(other) + other.compose(self)

    def adjoint(self):
        """Formal adjoint w.r.t. <x,y> = sum_i tau(x_i* y_i), using
        del_j* = -del_j and (mult_a)* = mult_{a*}; normal-reorder the result."""
        out = {}
        for alpha, M in self.terms.items():
            sign = (-1) ** sum(alpha)
            Mstar = M.star()
            for gamma in _sub_indices(alpha):
                delta = tuple(a - g for a, g in zip(alpha, gamma))
                dM = Mstar.derive_multi(delta)
                if dM.is_zero():
                    continue
                term = dM.scale(sign * _multi_binom(alpha, gamma))
                out[gamma] = out[gamma] + term if gamma in out else term
        return NCDiffOp(self.theta, self.m, out)

    # -- action and comparison ---------------------------------------------

    def apply(self, v):
        """(Pv)_i = sum_alpha sum_j mul(M_alpha[i][j], del^alpha v_j)."""
        if len(v) != self.m:
            raise DimensionMismatch(f"vector length {len(v)} != fiber {self.m}")
        theta = self.theta
        out = [dict() for _ in range(self.m)]
        for alpha, M in self.terms.items():
            for mode, col in self._vector_modes(v):
                f = _deriv_factor(mode, alpha) if any(alpha) else 1.0
                if f == 0:
                    continue
                for k, block in M.blocks.items():
                    kk = tuple(x + y for x, y in zip(k, mode))
                    w = theta.phase(k, mode) * f * (block @ col)
                    for i in range(self.m):
                        if w[i] != 0:
                            out[i][kk] = out[i].get(kk, 0.0) + w[i]
        return HVector([TorusElement(theta, c) for c in out])

    def _vector_modes(self, v):
        modes = {}
        for j, e in enumerate(v.entries):
            for mode, c in e.coeffs.items():
                modes.setdefault(mode, np.zeros(self.m, dtype=complex))[j] = c
        return modes.items()

    def residual_norm(self):
        """Max coefficient magnitude over all terms, blocks, and entries;
        zero iff this is the zero operator (normal-form soundness)."""
        return max((t.norm() for t in self.terms.values()), default=0.0)

    def is_zero(self, tol=1e-9):
        return self.residual_norm() < tol

    def close_to(self, other, tol=1e-9):
        return (self - other).residual_norm() < tol

    def max_degree(self):
        return max((sum(a) for a in self.terms), default=0)

    # -- serialization ------------------------------------------------------

    def to_json(self):
        out = []
        for alpha in sorted(self.terms):
            M = self.terms[alpha]
            matrix = [[M.entry(i, j).to_json() for j in range(self.m)]
                      for i in range(self.m)]
            out.append({"alpha": list(alpha), "matrix": matrix})
        return out

    @classmethod
    def from_json(cls, theta, items):
        terms = {}
        for it in items:
            alpha = tuple(int(x) for x in it["alpha"])
            ents = [[TorusElement.from_json(theta, cell) for cell in row]
                    for row in it["matrix"]]
            terms[alpha] = TorusMatrix.from_entries(theta, ents)
        return cls(theta, len(items[0]["matrix"]) if items else 1, terms)

    def __repr__(self):
        return f"NCDiffOp(n={self.theta.n}, m={self.m}, terms={len(self.terms)})"
