"""Differential-form ranks and the degree-(0,2) product map.

The one-form coefficients come from commutators with the algebra:

    [d, a]      = sum_k  del_k(a) tensor mu_k
    [delbar, a] = sum_j  delta_j(a) tensor eta_bar_j
    [del, a]    = sum_j  deltabar_j(a) tensor eta_hol_j

with delta_j = del_{2j} + i del_{2j-1} (canonical matching pairing the
coordinates (2j-1, 2j)).  Higher-form ranks are the C-span dimensions of the
ordered products of these constant fiber matrices; the bimodule isomorphisms
reduce to exactly this because coefficients are free over the matrix span.

Each form is an NCDiffOp: a constant operator of degree 0 at mode 0 over
the zero deformation (no phase is ever taken, so Theta does not enter).
mu_k, the coefficient of del_k in the package's d, is 2 Pauli words, and a
product of r of them has at most C(n, r) 2^r words.  Level 1 is the family
itself; each later level's products (previous basis x family), and the
bidegree check's mixed hol x bar spans, are one NCDiffOp.products pass.
Their coefficients are multiples of 2^-2r, r <= n + 1, so the pass's
PRUNE_TOL drops exactly the words that cancel.  One SVD of the products'
coefficients over the words that occur, scaled by sqrt(m) (a Frobenius
isometry: words are orthogonal, of norm sqrt(m)), decides each span with
the singular values of the flattened m x m matrices.  A level's basis is
picked among its products, exact word sums.  Each family's chain of bases
is grown once per FormBasisMatrices, level by level on demand; the rank
table, form_rank and the bidegree check index it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .clifford import build_gamma
from .kahler import check_eps, lifted_words
from .ncdiff import NCDiffOp
from .pauli import word_sum
from .report import VerificationReport, resolve_tol
from .torus import DimensionMismatch, ThetaMatrix

RANK_TOL = 1e-10


@dataclass
class FormBasisMatrices:
    n: int            # torus dimension (even)
    eps_prime: int
    mu: list          # n forms on the C^{N^2} fiber (NCDiffOp)
    eta_bar: list     # n/2 forms
    eta_hol: list     # n/2 forms
    chains: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def m(self):  # the fiber size N^2 = 2^n
        return 2 ** self.n

    def chain(self, name, top):
        """Bases of the spans of all level-fold ordered products of a family
        for levels 0..top (level 0: the identity), each grown from the one
        before (span closure, no n^level enumeration) and kept for later calls."""
        if name not in ("mu", "eta_bar", "eta_hol"):
            raise ValueError(f"unknown family {name!r}")
        family = getattr(self, name)
        if name not in self.chains:
            self.chains[name] = [[NCDiffOp.identity(self.mu[0].theta, self.m)]]
        chain = self.chains[name]
        while len(chain) <= top:
            basis = chain[-1]
            # level 1 is the family itself: 1 f = f
            products = family if len(chain) == 1 else NCDiffOp.products(
                [(b, f, 0) for b in basis for f in family])
            chain.append(_span(products, self.m) if basis else [])
        return chain


def build_form_matrices(n_or_rep, eps_prime=1):
    check_eps(eps_prime)
    rep = build_gamma(n_or_rep) if isinstance(n_or_rep, int) else n_or_rep
    n, half = rep.n, rep.n // 2
    mu = [word_sum((0.5, a), (0.5j * eps_prime, b)) for a, b in lifted_words(rep)]
    pairs = [(mu[2 * j - 1], mu[2 * j - 2]) for j in range(1, half + 1)]
    words = (mu + [word_sum((0.5, a), (-0.5j, b)) for a, b in pairs]
             + [word_sum((0.5, a), (0.5j, b)) for a, b in pairs])
    zero = (0,) * n
    ops = NCDiffOp.from_terms(ThetaMatrix.zero(n), 2 ** n, [{zero: {zero: w}} for w in words])
    return FormBasisMatrices(n=n, eps_prime=eps_prime, mu=ops[:n],
                             eta_bar=ops[n:n + half], eta_hol=ops[n + half:])


def _matrix(forms):
    """The coefficients of forms, one row each, over the words that occur in
    (x, z) order."""
    x, z, c = (np.concatenate([getattr(f, a) for f in forms]) for a in "xzc")
    row = np.arange(len(forms)).repeat([len(f.c) for f in forms])
    col = np.unique(x * (z.max() + 1) + z, return_inverse=True)[1]
    mat = np.zeros((len(forms), col.max() + 1), dtype=complex)
    mat[row, col] = c
    return mat


def _span(forms, m):
    """A basis of the span of forms, picked among those with a word: the SVD
    rule (RANK_TOL) decides the rank, and pivoted Gram-Schmidt on the
    coordinates u s of the forms picks that many."""
    forms = [f for f in forms if len(f.c)]
    if not forms:
        return []
    u, s, _ = np.linalg.svd(np.sqrt(m) * _matrix(forms), full_matrices=False)
    rank = int(np.count_nonzero(s > RANK_TOL * max(1.0, s[0])))
    coords, picked = u[:, :rank] * s[:rank], []
    for _ in range(rank):
        i = int(np.argmax(np.linalg.norm(coords, axis=1)))
        v = coords[i] / np.linalg.norm(coords[i])
        coords = coords - np.outer(coords @ v.conj(), v)
        picked.append(i)
    return [forms[i] for i in sorted(picked)]


def form_rank(fbm, family_name, level):
    """C-span dimension of all level-fold ordered products of the family."""
    if level < 0:
        raise ValueError("level must be >= 0")
    return len(fbm.chain(family_name, level)[level])


def rank_table(fbm):
    """Ranks per level for all three families, through the first vanishing."""
    top = fbm.n + 1
    chains = {name: fbm.chain(name, top) for name in ("mu", "eta_bar", "eta_hol")}
    return [{"level": level,
             "omega_d": len(chains["mu"][level]),
             "omega_0q": len(chains["eta_bar"][level]),
             "omega_p0": len(chains["eta_hol"][level])}
            for level in range(0, top + 1)]


def nilpotency_residual(fbm):
    """Max dense entry of mu_j^2 = 0, {mu_j, mu_r} = 0 and the eta analogues,
    every anticommutator {a, b}, a before or at b, from one products pass."""
    anti = NCDiffOp.products([(a, b, 1) for f in (fbm.mu, fbm.eta_bar, fbm.eta_hol)
                              for j, a in enumerate(f) for b in f[j:]])
    return max((op.residual_norm() for op in anti), default=0.0)


def _containment_residuals(a, b):
    """How far span(a) sticks out of span(b), and span(b) out of span(a), for
    two bases of forms: the largest coordinate, over the words of both, of
    an orthonormal basis of the one minus its projection on the other."""
    if not a + b:
        return 0.0, 0.0
    mat = _matrix(a + b).T
    qa, qb = np.linalg.qr(mat[:, :len(a)])[0], np.linalg.qr(mat[:, len(a):])[0]
    return tuple(float(np.abs(p - q @ (q.conj().T @ p)).max(initial=0.0))
                 for p, q in ((qa, qb), (qb, qa)))


def bidegree_decomposition_check(n_or_fbm, tol=None):
    """Report on Omega^r = direct sum of Omega^{p,q}: the binomial count
    identity C(n,r) = sum_p C(n/2,p) C(n/2,r-p), and span equality between
    mu-products and mixed eta products at r = 1 and 2."""
    tol = resolve_tol(tol)
    fbm = build_form_matrices(n_or_fbm) if isinstance(n_or_fbm, int) else n_or_fbm
    n, half = fbm.n, fbm.n // 2
    rp = VerificationReport(tol=tol)
    rp.meta = {"n": n}
    mu_chain = fbm.chain("mu", n)
    hol_chain = fbm.chain("eta_hol", 2)
    bar_chain = fbm.chain("eta_bar", 2)
    for r in range(0, n + 1):
        lhs = len(mu_chain[r])
        rhs = sum(comb(half, p) * comb(half, r - p)
                  for p in range(0, r + 1))
        rp.add(f"rank count C({n},{r}) = Vandermonde sum", abs(lhs - rhs), tol=0.5)
    # the mixed products of every r from one pass, split by job index
    jobs = [[(h, b, 0) for p in range(r + 1) for h in hol_chain[p] for b in bar_chain[r - p]]
            for r in (1, 2)]
    products = NCDiffOp.products([job for level in jobs for job in level])
    cut = np.cumsum([0] + [len(level) for level in jobs]).tolist()
    for r in (1, 2):
        mixed = _span(products[cut[r - 1]:cut[r]], fbm.m)
        inside, outside = _containment_residuals(mu_chain[r], mixed)
        rp.add(f"span(mu^{r}) inside span(eta mixed^{r})", inside)
        rp.add(f"span(eta mixed^{r}) inside span(mu^{r})", outside)
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

