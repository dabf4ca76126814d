"""The smooth noncommutative n-torus with finitely supported Fourier coefficients.

Elements are finite sums  sum_m alpha_m U^m  over m in Z^n, where U^m denotes
the normal-ordered monomial U_1^{m_1} ... U_n^{m_n} and the generators satisfy
U_j U_l = exp(2 pi i Theta_{lj}) U_l U_j.

Every matrix of torus elements, of any shape, is a TorusMatrix: a map from
Fourier exponent k to a constant rows x cols complex block (constant fiber
matrices commute with the scalar phases, so the blocked product is the
entrywise torus product).  A TorusElement is the 1 x 1 case, vectors of
A_Theta^m are (m, 1) columns, and the connection and morphism matrices of the
holomorphic calculus are TorusMatrix too.
"""

from __future__ import annotations

import cmath
import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from types import MappingProxyType

import numpy as np

from .pauli import DimensionMismatch, magnitude, max_entry

# kept's cutoff: a block whose entries are all below it is dropped.
PRUNE_TOL = 1e-14

TWO_PI_I = 2j * np.pi


def kept(c):
    """True where the magnitude of c is not below PRUNE_TOL; NaN is kept."""
    return ~(magnitude(c) < PRUNE_TOL)


class ThetaMatrix:
    """Real skew-symmetric n x n deformation matrix for an even torus."""

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("theta must be a square matrix")
        n = entries.shape[0]
        if n % 2 != 0:
            raise ValueError(f"torus dimension must be even, got {n}")
        if n < 1:
            raise ValueError("torus dimension must be positive")
        finite = np.isfinite(entries)
        if not finite.all():
            raise ValueError(f"theta entry {tuple(np.argwhere(~finite)[0].tolist())} is not finite")
        off = np.argwhere(np.abs(entries + entries.T) > 1e-12)  # row-major
        if len(off):
            i, j = off[0]
            raise ValueError(f"theta must be skew-symmetric: entry ({i}, {j}) is "
                             f"{entries[i, j]} and entry ({j}, {i}) is {entries[j, i]}")
        self.n = n
        self.entries = 0.5 * (entries - entries.T)  # exact skew-symmetrization
        np.fill_diagonal(self.entries, 0.0)
        self._upper = np.triu(self.entries, k=1)
        self._pairs = np.triu_indices(n, k=1)
        # phases reads _upper and to_json entries: neither may drift from the other
        self.entries.setflags(write=False)
        self._upper.setflags(write=False)
        # every entry within 1e-12 of a fraction of denominator at most 10^4
        if all(abs(v - float(Fraction(v).limit_denominator(10**4))) <= 1e-12
               for v in self._upper[self._pairs]):
            warnings.warn("theta has rational entries; the C*-algebra is not a generic "
                          "irrational rotation algebra", stacklevel=2)

    @classmethod
    @lru_cache(maxsize=None)
    def zero(cls, n):
        """The commutative n-torus; Theta is read-only, so one instance per n
        is shared."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return cls(np.zeros((n, n)))

    @classmethod
    def random(cls, n, rng):
        """Generic irrational-entry theta, entries in (-0.5, 0.5)."""
        a = rng.uniform(-0.5, 0.5, size=(n, n))
        return cls(np.triu(a, k=1) - np.triu(a, k=1).T)

    @classmethod
    def from_json(cls, obj):
        """Read { "n": int, "theta": [[real]] }: the whole matrix, which
        __init__ checks and skew-symmetrizes."""
        n = int(obj["n"])
        raw = np.asarray(obj["theta"], dtype=float)
        if raw.shape != (n, n):
            raise ValueError(f"theta matrix must be {n}x{n}")
        return cls(raw)

    def to_json(self):
        return {"n": self.n, "theta": self.entries.tolist()}

    def phase(self, m, k):
        """Reordering phase lambda(m, k) with U^m U^k = lambda(m,k) U^{m+k}:
        phases' value for one pair, exactly 1 when either mode is 0."""
        if not any(m) or not any(k):
            return 1 + 0j
        return complex(self.phases(m, k))

    def star_phase(self, m):
        """Phase mu(m) with (U^m)^* = mu(m) U^{-m}."""
        return self.phase(m, tuple(-x for x in m)).conjugate()

    def phases(self, M, K):
        """lambda(m, k) = exp(2 pi i sum_{a<b} Theta_{ab} m_b k_a) over the rows
        m of M and k of K, integer arrays of modes on their last axis that
        broadcast; 1 + 0j where either mode is 0.  The one formula of the
        phase: phase and star_phase take their values from it.  Each term is
        Theta_{ab} (m_b k_a), added in row-major (a, b) order, so a phase has
        the same bits in every table it is taken in.  A zero mode makes every
        term +-0.0, and + 0.0 makes a zero sum +0.0, whose exp is 1 + 0j."""
        M, K = np.asarray(M), np.asarray(K)
        a, b = self._pairs
        x = np.add.accumulate(self._upper[a, b] * (M[..., b] * K[..., a]), axis=-1)[..., -1]
        return np.exp(TWO_PI_I * (x + 0.0))

    def star_phases(self, M):
        """mu(m) over the rows m of M, the conjugate of phases(M, -M)."""
        return self.phases(M, -np.asarray(M)).conj()

    def compatible(self, other):
        return self is other or (self.n == other.n
                                 and np.array_equal(self.entries, other.entries))


class TorusMatrix:
    """rows x cols matrix with torus-element entries, blocked by Fourier mode.
    Sums, scalings, products and stars keep the class of self where the shape
    is self's, so the results of elements are elements."""

    __slots__ = ("theta", "shape", "blocks")

    def __init__(self, theta, shape, blocks=None):
        self.theta = theta
        self.shape = tuple(shape)
        self.blocks = {}
        if blocks:
            for k, mat in blocks.items():
                mat = np.asarray(mat, dtype=complex)
                if mat.shape != self.shape:
                    raise DimensionMismatch(f"block at {k} is {mat.shape}, not {self.shape}")
                if kept(mat).any():
                    self.blocks[k] = mat

    def _new(self, shape, blocks):
        """A result over self's torus: of self's class if it has self's shape."""
        out = object.__new__(type(self) if shape == self.shape else TorusMatrix)
        TorusMatrix.__init__(out, self.theta, shape, blocks)
        return out

    @classmethod
    def zero(cls, theta, shape):
        return cls(theta, shape)

    @classmethod
    def constant(cls, theta, mat):
        mat = np.asarray(mat, dtype=complex)
        return TorusMatrix(theta, mat.shape, {(0,) * theta.n: mat})

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
                for k, b in a.blocks.items():
                    blocks.setdefault(k, np.zeros(shape, dtype=complex))[i, j] = b[0, 0]
        return TorusMatrix(theta, shape, blocks)

    def entry(self, i, j):
        return TorusElement(self.theta, {k: b[i, j] for k, b in self.blocks.items()})

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
        return self._new(self.shape, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, z):
        return self._new(self.shape, {k: z * b for k, b in self.blocks.items()})

    def multiplier(self, f):
        """The Fourier multiplier U^k -> f(k) U^k, applied to every entry."""
        return self._new(self.shape, {k: f(k) * b for k, b in self.blocks.items()})

    def matmul(self, other):
        """Entrywise torus product; phases factor out of the constant blocks.
        For elements this is the twisted product, the bilinear extension of
        U^m U^k = lambda(m, k) U^{m+k}."""
        self._check(other, self.shape[1] == other.shape[0])
        n, out = self.theta.n, {}
        lam = self.theta.phases(np.array([*self.blocks], dtype=int).reshape(-1, 1, n),
                                np.array([*other.blocks], dtype=int).reshape(-1, n))
        for (k, A), row in zip(self.blocks.items(), lam):
            for (kp, B), ph in zip(other.blocks.items(), row):
                kk = tuple(x + y for x, y in zip(k, kp))
                term = ph * (A @ B)
                out[kk] = out[kk] + term if kk in out else term
        return self._new((self.shape[0], other.shape[1]), out)

    mul = matmul

    def __mul__(self, other):
        if isinstance(other, TorusMatrix):
            return self.matmul(other)
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, z):
        if isinstance(z, (int, float, complex)):
            return self.scale(z)
        return NotImplemented

    def star(self):
        """Entrywise star composed with matrix transpose; star(U^m) = mu(m) U^{-m}."""
        mu = self.theta.star_phase
        return self._new(self.shape[::-1], {tuple(-x for x in k): mu(k) * b.conj().T
                                            for k, b in self.blocks.items()})

    def norm(self):
        """Max entry magnitude over all modes (max_entry); NaN if an entry is."""
        return float(max_entry(np.array([*self.blocks.values()])))

    def is_zero(self, tol):
        """norm() < tol; pass PRUNE_TOL for 'nothing left after pruning'."""
        return self.norm() < tol

    def close_to(self, other, tol):
        return (self - other).is_zero(tol)


class TorusElement(TorusMatrix):
    """Finitely supported map Z^n -> C of normal-ordered Fourier coefficients:
    the 1 x 1 TorusMatrix, with coeffs the read-only {m: complex} view of its
    blocks."""

    __slots__ = ()

    def __init__(self, theta, coeffs=None):
        """The blocks TorusMatrix would build from {m: [[c]]}: 1 x 1 views of
        one array, keeping c where kept(c)."""
        coeffs = coeffs or {}
        values = np.array([complex(c) for c in coeffs.values()], dtype=complex)
        self.theta, self.shape = theta, (1, 1)
        self.blocks = dict(compress(zip(coeffs, values.reshape(-1, 1, 1)), kept(values)))

    @property
    def coeffs(self):
        return MappingProxyType({m: b[0, 0].item() for m, b in self.blocks.items()})

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, theta):
        return cls(theta)

    @classmethod
    def one(cls, theta):
        return cls(theta, {(0,) * theta.n: 1.0})

    @classmethod
    def monomial(cls, theta, m, coeff=1.0):
        m = tuple(int(x) for x in m)
        if len(m) != theta.n:
            raise DimensionMismatch(f"exponent length {len(m)} != n {theta.n}")
        return cls(theta, {m: complex(coeff)})

    @classmethod
    def generator(cls, theta, j):
        """U_j for 1 <= j <= n."""
        if not 1 <= j <= theta.n:
            raise IndexError(f"generator index {j} out of range 1..{theta.n}")
        m = [0] * theta.n
        m[j - 1] = 1
        return cls.monomial(theta, m)

    @classmethod
    def random(cls, theta, rng, radius=2, terms=5):
        coeffs = {}
        for _ in range(terms):
            m = tuple(int(x) for x in rng.integers(-radius, radius + 1, size=theta.n))
            coeffs[m] = complex(rng.normal(), rng.normal())
        return cls(theta, coeffs)

    # -- trace and derivations ----------------------------------------------

    def trace(self):
        """Canonical trace: the coefficient at exponent 0."""
        return self.coeffs.get((0,) * self.theta.n, 0.0)

    def derive(self, j):
        """Derivation d/dt of the j-th torus action: U^m -> 2 pi i m_j U^m."""
        if not 1 <= j <= self.theta.n:
            raise IndexError(f"derivation index {j} out of range 1..{self.theta.n}")
        return self.multiplier(lambda m: TWO_PI_I * m[j - 1])

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return [
            {"m": list(m), "re": c.real, "im": c.imag}
            for m, c in sorted(self.coeffs.items())
        ]

    @classmethod
    def from_json(cls, theta, items):
        coeffs = {}
        for it in items:
            m = tuple(int(x) for x in it["m"])
            if len(m) != theta.n:
                raise DimensionMismatch("exponent length does not match theta")
            c = complex(it["re"], it["im"])
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient at mode {m} is not finite: {c}")
            coeffs[m] = coeffs.get(m, 0.0) + c
        return cls(theta, coeffs)

    def __repr__(self):
        if not self.blocks:
            return "TorusElement(0)"
        parts = [f"({c:.4g})U^{m}" for m, c in sorted(self.coeffs.items())]
        return "TorusElement(" + " + ".join(parts[:6]) + ("..." if len(parts) > 6 else "") + ")"
