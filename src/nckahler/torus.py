"""The smooth noncommutative n-torus with finitely supported Fourier coefficients.

Elements are finite sums  sum_m alpha_m U^m  over m in Z^n, where U^m denotes
the normal-ordered monomial U_1^{m_1} ... U_n^{m_n} and the generators satisfy
U_j U_l = exp(2 pi i Theta_{lj}) U_l U_j.
"""

from __future__ import annotations

import cmath
import warnings
from fractions import Fraction

import numpy as np

# Default tolerances; every operation that compares or prunes accepts overrides.
PRUNE_TOL = 1e-14
EQ_TOL = 1e-9

TWO_PI_I = 2j * np.pi


class DimensionMismatch(ValueError):
    """Operands live over incompatible torus contexts."""


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
        if not np.allclose(entries, -entries.T, rtol=0, atol=1e-12):
            raise ValueError("theta must be skew-symmetric")
        self.n = n
        self.entries = 0.5 * (entries - entries.T)  # exact skew-symmetrization
        np.fill_diagonal(self.entries, 0.0)
        self._upper = np.triu(self.entries, k=1)
        # phase reads _upper and to_json entries: neither may drift from the other
        self.entries.setflags(write=False)
        self._upper.setflags(write=False)
        if self._all_rational():
            warnings.warn(
                "theta has rational entries; the C*-algebra is not a generic "
                "irrational rotation algebra",
                stacklevel=2,
            )

    def _all_rational(self, max_den=10**4, tol=1e-12):
        for v in self._upper[np.triu_indices(self.n, k=1)]:
            f = Fraction(v).limit_denominator(max_den)
            if abs(v - float(f)) > tol:
                return False
        return True

    @classmethod
    def zero(cls, n):
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
        """Read { "n": int, "theta": [[real]] }; only the strict upper
        triangle is used, the rest follows by skew-symmetry."""
        n = int(obj["n"])
        raw = np.asarray(obj["theta"], dtype=float)
        if raw.shape != (n, n):
            raise ValueError(f"theta matrix must be {n}x{n}")
        up = np.triu(raw, k=1)
        return cls(up - up.T)

    def to_json(self):
        return {"n": self.n, "theta": self.entries.tolist()}

    def phase(self, m, k):
        """Reordering phase lambda(m, k) with U^m U^k = lambda(m,k) U^{m+k}.

        lambda(m,k) = exp(2 pi i sum_{a<b} Theta_{ab} m_b k_a), exactly 1 when
        either mode is 0.
        """
        if not any(m) or not any(k):
            return 1 + 0j
        m = np.asarray(m, dtype=float)
        k = np.asarray(k, dtype=float)
        return cmath.exp(TWO_PI_I * float(k @ (self._upper @ m)))

    def star_phase(self, m):
        """Phase mu(m) with (U^m)^* = mu(m) U^{-m}."""
        return self.phase(m, tuple(-x for x in m)).conjugate()

    def compatible(self, other):
        return self is other or (self.n == other.n
                                 and np.array_equal(self.entries, other.entries))


class TorusElement:
    """Finitely supported map Z^n -> C of normal-ordered Fourier coefficients."""

    __slots__ = ("theta", "coeffs")

    def __init__(self, theta, coeffs=None, prune=True):
        self.theta = theta
        self.coeffs = dict(coeffs) if coeffs else {}
        if prune:
            self._prune()

    def _prune(self, tol=PRUNE_TOL):
        dead = [m for m, c in self.coeffs.items() if abs(c) < tol]
        for m in dead:
            del self.coeffs[m]

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

    # -- linear structure ---------------------------------------------------

    def _check(self, other):
        if not isinstance(other, TorusElement):
            raise TypeError("expected a TorusElement")
        if not self.theta.compatible(other.theta):
            raise DimensionMismatch("elements over different torus contexts")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0.0) + c
        return TorusElement(self.theta, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TorusElement(self.theta, {m: -c for m, c in self.coeffs.items()}, prune=False)

    def scale(self, z):
        return TorusElement(self.theta, {m: z * c for m, c in self.coeffs.items()})

    def __rmul__(self, z):
        if isinstance(z, (int, float, complex)):
            return self.scale(z)
        return NotImplemented

    # -- algebra ------------------------------------------------------------

    def mul(self, other):
        """Twisted product, bilinear extension of U^m U^k = lambda(m,k) U^{m+k}."""
        self._check(other)
        theta = self.theta
        out = {}
        for m, a in self.coeffs.items():
            for k, b in other.coeffs.items():
                mk = tuple(x + y for x, y in zip(m, k))
                out[mk] = out.get(mk, 0.0) + a * b * theta.phase(m, k)
        return TorusElement(theta, out)

    def __mul__(self, other):
        if isinstance(other, TorusElement):
            return self.mul(other)
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    def star(self):
        """Antilinear involution; star(U^m) = mu(m) U^{-m}."""
        theta = self.theta
        out = {}
        for m, c in self.coeffs.items():
            out[tuple(-x for x in m)] = c.conjugate() * theta.star_phase(m)
        return TorusElement(theta, out, prune=False)

    def trace(self):
        """Canonical trace: the coefficient at exponent 0."""
        return self.coeffs.get((0,) * self.theta.n, 0.0)

    def derive(self, j):
        """Derivation d/dt of the j-th torus action: U^m -> 2 pi i m_j U^m."""
        if not 1 <= j <= self.theta.n:
            raise IndexError(f"derivation index {j} out of range 1..{self.theta.n}")
        return TorusElement(
            self.theta,
            {m: TWO_PI_I * m[j - 1] * c for m, c in self.coeffs.items()},
        )

    # -- comparisons and norms ---------------------------------------------

    def norm(self):
        """Max coefficient magnitude (sup over Fourier modes)."""
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def is_zero(self, tol=EQ_TOL):
        return self.norm() < tol

    def close_to(self, other, tol=EQ_TOL):
        return (self - other).norm() < tol

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
            coeffs[m] = coeffs.get(m, 0.0) + complex(it["re"], it["im"])
        return cls(theta, coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "TorusElement(0)"
        parts = [f"({c:.4g})U^{m}" for m, c in sorted(self.coeffs.items())]
        return "TorusElement(" + " + ".join(parts[:6]) + ("..." if len(parts) > 6 else "") + ")"
