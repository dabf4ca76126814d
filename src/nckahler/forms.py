"""Differential-form ranks and the degree-(0,2) product map.

The one-form coefficient matrices come from commutators with the algebra:

    [d, a]      = sum_k  del_k(a) tensor mu_k
    [delbar, a] = sum_j  delta_j(a) tensor eta_bar_j
    [del, a]    = sum_j  deltabar_j(a) tensor eta_hol_j

with delta_j = del_{2j} + i del_{2j-1} (canonical matching pairing the
coordinates (2j-1, 2j)).  Higher-form ranks are the C-span dimensions of the
ordered products of these constant matrices; the bimodule isomorphisms reduce
to exactly this because coefficients are free over the matrix span.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .clifford import build_gamma
from .ncdiff import TorusMatrix
from .report import VerificationReport, default_tol
from .torus import DimensionMismatch, TorusElement

RANK_TOL = 1e-10


@dataclass
class FormBasisMatrices:
    n: int            # torus dimension (even)
    eps_prime: int
    mu: list          # n matrices, N^2 x N^2
    eta_bar: list     # n/2 matrices
    eta_hol: list     # n/2 matrices

    def family(self, name):
        try:
            return {"mu": self.mu, "eta_bar": self.eta_bar,
                    "eta_hol": self.eta_hol}[name]
        except KeyError:
            raise ValueError(f"unknown family {name!r}") from None


def build_form_matrices(n_or_rep, eps_prime=1):
    rep = build_gamma(n_or_rep) if isinstance(n_or_rep, int) else n_or_rep
    n, N = rep.n, rep.N
    eye = np.eye(N)
    mu = [0.5 * np.kron(eye, g) + (0.5j * eps_prime) * np.kron(g, rep.sigma)
          for g in rep.gammas]
    eta_bar, eta_hol = [], []
    for j in range(1, n // 2 + 1):
        eta_bar.append(0.5 * (mu[2 * j - 1] - 1j * mu[2 * j - 2]))
        eta_hol.append(0.5 * (mu[2 * j - 1] + 1j * mu[2 * j - 2]))
    return FormBasisMatrices(n=n, eps_prime=eps_prime, mu=mu,
                             eta_bar=eta_bar, eta_hol=eta_hol)


def _span_basis(mats, tol=RANK_TOL):
    """Orthonormal basis (rows) of the span of flattened matrices."""
    if not mats:
        return np.zeros((0, 0))
    stack = np.stack([m.reshape(-1) for m in mats])
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    keep = s > tol * max(1.0, s[0] if len(s) else 1.0)
    return vh[keep]


def _level_products(family, level, tol=RANK_TOL):
    """Orthonormal basis of the span of all level-fold ordered products,
    grown level by level (span closure, no n^level enumeration)."""
    dim = family[0].shape[0]
    basis = _span_basis([np.eye(dim, dtype=complex)])
    for _ in range(level):
        prods = [(b.reshape(dim, dim) @ f) for b in basis for f in family]
        basis = _span_basis(prods, tol)
        if basis.shape[0] == 0:
            break
    return basis


def form_rank(fbm, family_name, level, tol=RANK_TOL):
    """C-span dimension of all level-fold ordered products of the family."""
    if level < 0:
        raise ValueError("level must be >= 0")
    if level == 0:
        return 1
    return _level_products(fbm.family(family_name), level, tol).shape[0]


def rank_table(fbm):
    """Ranks per level for all three families, through the first vanishing."""
    n = fbm.n
    rows = []
    for level in range(0, n + 2):
        rows.append({
            "level": level,
            "omega_d": form_rank(fbm, "mu", level),
            "omega_0q": form_rank(fbm, "eta_bar", level),
            "omega_p0": form_rank(fbm, "eta_hol", level),
        })
    return rows


def nilpotency_residual(fbm):
    """Max residual of mu_j^2 = 0, {mu_j, mu_r} = 0 and the eta analogues."""
    res = 0.0
    for family in (fbm.mu, fbm.eta_bar, fbm.eta_hol):
        for j, a in enumerate(family):
            for b in family[j:]:
                res = max(res, np.abs(a @ b + b @ a).max())
    return res


def _containment_residual(basis_a, basis_b):
    """How far span(a) sticks out of span(b), both given as orthonormal rows."""
    if basis_a.shape[0] == 0:
        return 0.0
    proj = basis_a - (basis_a @ basis_b.conj().T) @ basis_b
    return float(np.abs(proj).max())


def bidegree_decomposition_check(n_or_fbm, max_r=2, tol=None):
    """Report on Omega^r = direct sum of Omega^{p,q}: the binomial count
    identity C(n,r) = sum_p C(n/2,p) C(n/2,r-p), and span equality between
    mu-products and mixed eta products at each r <= max_r."""
    tol = default_tol() if tol is None else tol
    fbm = build_form_matrices(n_or_fbm) if isinstance(n_or_fbm, int) else n_or_fbm
    n, half = fbm.n, fbm.n // 2
    rp = VerificationReport(tol=tol)
    rp.meta = {"n": n}
    for r in range(0, n + 1):
        lhs = form_rank(fbm, "mu", r)
        rhs = sum(comb(half, p) * comb(half, r - p)
                  for p in range(0, r + 1))
        rp.add(f"rank count C({n},{r}) = Vandermonde sum", abs(lhs - rhs), tol=0.5)
    dim = fbm.mu[0].shape[0]
    for r in range(1, max_r + 1):
        mu_basis = _level_products(fbm.mu, r)
        mixed = []
        for p in range(0, r + 1):
            left = _level_products(fbm.eta_hol, p)
            right = _level_products(fbm.eta_bar, r - p)
            for bl in left:
                for br in right:
                    mixed.append(bl.reshape(dim, dim) @ br.reshape(dim, dim))
        eta_basis = _span_basis(mixed)
        rp.add(f"span(mu^{r}) inside span(eta mixed^{r})",
               _containment_residual(mu_basis, eta_basis))
        rp.add(f"span(eta mixed^{r}) inside span(mu^{r})",
               _containment_residual(eta_basis, mu_basis))
    return rp


def product_map(x, y):
    """(0,1) x (0,1) -> (0,2) product in coordinates: for tuples x, y of
    torus elements, the output coordinate at p < q is x_p y_q - x_q y_p."""
    if len(x) != len(y):
        raise DimensionMismatch("tuples of different lengths")
    out = []
    for p in range(len(x)):
        for q in range(p + 1, len(x)):
            out.append(x[p] * y[q] - x[q] * y[p])
    return tuple(out)


def product_map_via_operators(fbm, theta, x, y):
    """Oracle for product_map: lift the tuples to one-form operators
    X = sum_j x_j . eta_bar_j, multiply, and re-coordinate the result in the
    two-form basis G_pq = eta_bar_p eta_bar_q by least squares."""
    half = fbm.n // 2
    if len(x) != half or len(y) != half:
        raise DimensionMismatch(f"expected tuples of length {half}")
    dim = fbm.eta_bar[0].shape[0]

    def lift(t):
        acc = TorusMatrix.zero(theta, dim)
        for tj, ej in zip(t, fbm.eta_bar):
            acc = acc + TorusMatrix.scalar_element(tj, dim).matmul(
                TorusMatrix.constant(theta, ej))
        return acc

    prod = lift(x).matmul(lift(y))
    basis = [fbm.eta_bar[p] @ fbm.eta_bar[q]
             for p in range(half) for q in range(p + 1, half)]
    G = np.stack([b.reshape(-1) for b in basis]).T
    Gpinv = np.linalg.pinv(G)
    coords = [dict() for _ in basis]
    residual = 0.0
    for k, block in prod.blocks.items():
        vec = block.reshape(-1)
        c = Gpinv @ vec
        residual = max(residual, float(np.abs(G @ c - vec).max()))
        for i, ci in enumerate(c):
            if abs(ci) > 1e-14:
                coords[i][k] = ci
    elements = tuple(TorusElement(theta, c) for c in coords)
    return elements, residual
