"""Normal-ordered matrix-valued differential operators on the torus.

An operator is a finite sum  sum_alpha  M_alpha . del^alpha  where alpha is a
derivation multi-index and M_alpha is an m x m matrix of torus elements.  Since
the symbols del^alpha act on U^k with distinct eigenvalue tuples (2 pi i k)^alpha,
two operators agree on the dense smooth domain iff their normal forms agree
coefficient by coefficient — identity checks here are exact, not box-truncated.

Every matrix of torus elements, square or rectangular, is a TorusMatrix stored
mode-blocked: a map from Fourier exponent k to a constant rows x cols complex
block (the fiber matrices are constant, so they commute with the scalar phases
and the blocked product is the entrywise torus product).  Vectors of the dense
domain A_Theta^m are (m, 1) columns, and the connection and morphism matrices
of the holomorphic calculus are lifted to TorusMatrix the same way.

compose and adjoint normal-order in one accumulation pass over the raw
coefficient blocks: every block product is formed once, scaled by one scalar
(phase, binomial and derivative eigenvalue) and added in place under its
(multi-index, mode); blocks below PRUNE_TOL are dropped once, at the end.
"""

from __future__ import annotations

import math
from itertools import product as iproduct

import numpy as np

from .torus import PRUNE_TOL, TWO_PI_I, DimensionMismatch, TorusElement


def _pushes(alpha):
    """(gamma, C(alpha, gamma), alpha - gamma) for all 0 <= gamma <= alpha."""
    return [(gamma, math.prod(math.comb(a, g) for a, g in zip(alpha, gamma)),
             tuple(a - g for a, g in zip(alpha, gamma)))
            for gamma in iproduct(*(range(a + 1) for a in alpha))]


def _deriv_factor(k, delta):
    """Eigenvalue of del^delta on U^k."""
    return math.prod((TWO_PI_I * kj) ** dj for kj, dj in zip(k, delta) if dj)


def _accumulate(acc, idx, k, w, block):
    """acc[idx][k] += w * block; the first insert is a fresh array."""
    blocks = acc.setdefault(idx, {})
    if k in blocks:
        blocks[k] += w * block
    else:
        blocks[k] = w * block


class TorusMatrix:
    """rows x cols matrix with torus-element entries, blocked by Fourier mode."""

    __slots__ = ("theta", "shape", "blocks")

    def __init__(self, theta, shape, blocks=None, prune=True):
        self.theta = theta
        self.shape = tuple(shape)
        self.blocks = {}
        if blocks:
            for k, mat in blocks.items():
                mat = np.asarray(mat, dtype=complex)
                if mat.shape != self.shape:
                    raise DimensionMismatch(f"block at {k} is {mat.shape}, not {self.shape}")
                if not prune or np.abs(mat).max() >= PRUNE_TOL:
                    self.blocks[k] = mat

    @classmethod
    def zero(cls, theta, shape):
        return cls(theta, shape)

    @classmethod
    def constant(cls, theta, mat):
        mat = np.asarray(mat, dtype=complex)
        return cls(theta, mat.shape, {(0,) * theta.n: mat})

    @classmethod
    def identity(cls, theta, m):
        return cls.constant(theta, np.eye(m))

    @classmethod
    def scalar_element(cls, a, m):
        """a . Id_m for a torus element a."""
        return cls(a.theta, (m, m), {k: c * np.eye(m) for k, c in a.coeffs.items()})

    @classmethod
    def unit_column(cls, theta, m, i, mode=None):
        """The column e_i . U^mode of A^m (mode 0 by default)."""
        col = np.zeros((m, 1), dtype=complex)
        col[i] = 1.0
        mode = (0,) * theta.n if mode is None else tuple(int(x) for x in mode)
        return cls(theta, (m, 1), {mode: col})

    @classmethod
    def random(cls, theta, shape, rng, radius=2, terms=3):
        """Entries TorusElement.random(theta, rng, radius, terms), drawn row-major."""
        rows, cols = shape
        return cls.from_entries(theta, [[TorusElement.random(theta, rng, radius, terms)
                                         for _ in range(cols)] for _ in range(rows)])

    @classmethod
    def from_entries(cls, theta, entries):
        """Build from a nested list of TorusElements, rows of equal length."""
        shape = (len(entries), len(entries[0]) if entries else 0)
        blocks = {}
        for i, row in enumerate(entries):
            if len(row) != shape[1]:
                raise DimensionMismatch("rows of entries differ in length")
            for j, a in enumerate(row):
                if not theta.compatible(a.theta):
                    raise DimensionMismatch(f"entry ({i}, {j}) is over another torus context")
                for k, c in a.coeffs.items():
                    blocks.setdefault(k, np.zeros(shape, dtype=complex))[i, j] = c
        return cls(theta, shape, blocks)

    def entry(self, i, j):
        coeffs = {k: b[i, j] for k, b in self.blocks.items()}
        return TorusElement(self.theta, coeffs)

    def _check(self, other, shapes_fit):
        if not shapes_fit:
            raise DimensionMismatch(f"torus matrices of shapes {self.shape} and {other.shape}")
        if not self.theta.compatible(other.theta):
            raise DimensionMismatch("torus matrices over incompatible contexts")

    def __add__(self, other):
        self._check(other, self.shape == other.shape)
        out = {k: b.copy() for k, b in self.blocks.items()}
        for k, b in other.blocks.items():
            out[k] = out[k] + b if k in out else b
        return TorusMatrix(self.theta, self.shape, out)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, z):
        return TorusMatrix(self.theta, self.shape, {k: z * b for k, b in self.blocks.items()})

    def matmul(self, other):
        """Entrywise torus product; phases factor out of the constant blocks."""
        self._check(other, self.shape[1] == other.shape[0])
        theta = self.theta
        out = {}
        for k, A in self.blocks.items():
            for kp, B in other.blocks.items():
                kk = tuple(x + y for x, y in zip(k, kp))
                term = theta.phase(k, kp) * (A @ B)
                out[kk] = out[kk] + term if kk in out else term
        return TorusMatrix(theta, (self.shape[0], other.shape[1]), out)

    def star(self):
        """Entrywise star composed with matrix transpose."""
        theta = self.theta
        out = {}
        for k, b in self.blocks.items():
            mk = tuple(-x for x in k)
            out[mk] = theta.star_phase(k) * b.conj().T
        return TorusMatrix(theta, self.shape[::-1], out, prune=False)

    def derive_multi(self, delta):
        """Apply del^delta entrywise: block k picks up (2 pi i k)^delta."""
        if all(d == 0 for d in delta):
            return self
        out = {}
        for k, b in self.blocks.items():
            f = _deriv_factor(k, delta)
            if f != 0:
                out[k] = f * b
        return TorusMatrix(self.theta, self.shape, out)

    def norm(self):
        return float(max((np.abs(b).max() for b in self.blocks.values()), default=0.0))

    def is_zero(self, tol=PRUNE_TOL):
        return self.norm() < tol


def inner_product(x, y):
    """<x, y> = sum_i tau(x_i* y_i): a vdot of the blocks of each common mode (Parseval)."""
    if x.shape != y.shape:
        raise DimensionMismatch(f"shapes {x.shape} and {y.shape} differ")
    return sum((np.vdot(b, y.blocks[k]) for k, b in x.blocks.items() if k in y.blocks), 0j)


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
                if mat.shape != (m, m):
                    raise DimensionMismatch(f"coefficient of shape {mat.shape} on fiber {m}")
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
        return cls(theta, tm.shape[0], {(0,) * theta.n: tm})

    @classmethod
    def derivation(cls, theta, m, j, mat=None):
        """del_j tensor mat (default identity fiber)."""
        alpha = [0] * theta.n
        alpha[j - 1] = 1
        tm = TorusMatrix.identity(theta, m) if mat is None else TorusMatrix.constant(theta, mat)
        return cls(theta, tm.shape[0], {tuple(alpha): tm})

    @classmethod
    def mult(cls, a, m):
        """Left multiplication by the torus element a on A^m."""
        return cls(a.theta, m, {(0,) * a.theta.n: TorusMatrix.scalar_element(a, m)})

    @classmethod
    def random(cls, theta, m, rng, max_degree=1, radius=1, terms=2):
        out = {}
        for _ in range(terms):
            alpha = tuple(int(x) for x in rng.integers(0, max_degree + 1, size=theta.n))
            tm = TorusMatrix.random(theta, (m, m), rng, radius, 2)
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
        """Normal-ordered product by the iterated Leibniz rule

            A del^alpha . B del^beta = sum_{gamma <= alpha} C(alpha, gamma)
                                       A (del^{alpha - gamma} B) del^{gamma + beta},

        in one accumulation pass: each block product a @ b is formed once and
        added, with the phase, the binomial and the derivative eigenvalue folded
        into one scalar, to every (gamma + beta, k + k') it reaches; the result
        is pruned once."""
        self._check(other)
        theta = self.theta
        acc = {}
        for alpha, A in self.terms.items():
            pushes = _pushes(alpha)
            for beta, B in other.terms.items():
                targets = [(tuple(g + b for g, b in zip(gamma, beta)), coef, delta)
                           for gamma, coef, delta in pushes]
                weights = {kp: [(idx, coef * f) for idx, coef, delta in targets
                                if (f := _deriv_factor(kp, delta)) != 0]
                           for kp in B.blocks}
                for k, a in A.blocks.items():
                    for kp, b in B.blocks.items():
                        ab = a @ b
                        lam = theta.phase(k, kp)
                        kk = tuple(x + y for x, y in zip(k, kp))
                        for idx, w in weights[kp]:
                            _accumulate(acc, idx, kk, lam * w, ab)
        return self._from_blocks(acc)

    def commutator(self, other):
        return self.compose(other) - other.compose(self)

    def anticommutator(self, other):
        return self.compose(other) + other.compose(self)

    def adjoint(self):
        """Formal adjoint w.r.t. <x,y> = sum_i tau(x_i* y_i), using
        del_j* = -del_j and (mult_a)* = mult_{a*}: (M del^alpha)* =
        (-1)^|alpha| sum_{gamma <= alpha} C(alpha, gamma) (del^{alpha - gamma} M*) del^gamma,
        accumulated over the blocks of M* in one pass and pruned once."""
        acc = {}
        for alpha, M in self.terms.items():
            sign = (-1) ** sum(alpha)
            pushes = _pushes(alpha)
            for k, b in M.star().blocks.items():
                for gamma, coef, delta in pushes:
                    f = _deriv_factor(k, delta)
                    if f != 0:
                        _accumulate(acc, gamma, k, sign * coef * f, b)
        return self._from_blocks(acc)

    def _from_blocks(self, acc):
        """The operator of accumulated {alpha: {mode: block}}, dropping every
        block below PRUNE_TOL."""
        shape = (self.m, self.m)
        terms = {}
        for alpha, blocks in acc.items():
            kept = {k: b for k, b in blocks.items() if np.abs(b).max() >= PRUNE_TOL}
            if kept:
                terms[alpha] = TorusMatrix(self.theta, shape, kept, prune=False)
        return NCDiffOp(self.theta, self.m, terms, prune=False)

    # -- action and comparison ---------------------------------------------

    def apply(self, v):
        """P v = sum_alpha M_alpha . del^alpha v for an (m, c) TorusMatrix v.
        Nothing is normal-ordered, so this is an action oracle independent of
        compose and adjoint."""
        if v.shape[0] != self.m:
            raise DimensionMismatch(f"vector length {v.shape[0]} != fiber {self.m}")
        out = TorusMatrix.zero(self.theta, v.shape)
        for alpha, M in self.terms.items():
            out = out + M.matmul(v.derive_multi(alpha))
        return out

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
