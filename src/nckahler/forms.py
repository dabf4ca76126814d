"""Differential-form ranks and the degree-(0,2) product map.

The one-form coefficients come from commutators with the algebra:

    [d, a]      = sum_k  del_k(a) tensor mu_k
    [delbar, a] = sum_j  delta_j(a) tensor eta_bar_j
    [del, a]    = sum_j  deltabar_j(a) tensor eta_hol_j

with delta_j = del_{2j} + i del_{2j-1} (canonical matching pairing the
coordinates (2j-1, 2j)).  Higher-form ranks are the C-span dimensions of the
ordered products of these constant fiber matrices; the bimodule isomorphisms
reduce to exactly this because coefficients are free over the matrix span.

The families are Pauli-word sums (ncdiff.word_product): mu_k, the coefficient
of del_k in the package's d, is 2 words, and a product of r of them has at
most C(n, r) 2^r words.  A level's products (previous basis x family, and the
bidegree check's mixed hol x bar spans) come from one ncdiff._word_pairs pass,
with word_product's arithmetic and order of summation, and one np.bincount.
One SVD of the products' coefficients over the words that occur, scaled by
sqrt(m) (a Frobenius isometry: words are orthogonal, of norm sqrt(m)), decides
each span with the singular values of the flattened m x m matrices.  A level's
basis is picked among its products, exact word sums.  Each family's chain of
bases is grown once per FormBasisMatrices, level by level on demand; the rank
table, form_rank and the bidegree check index it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .clifford import build_gamma
from .kahler import check_eps, fiber_words, lifted_words
from .ncdiff import _first_ids, _word_pairs, dense_words, word_product, word_sum
from .report import VerificationReport, resolve_tol
from .torus import DimensionMismatch

RANK_TOL = 1e-10


@dataclass
class FormBasisMatrices:
    n: int            # torus dimension (even)
    eps_prime: int
    mu: list          # n word sums on the C^{N^2} fiber
    eta_bar: list     # n/2 word sums
    eta_hol: list     # n/2 word sums
    chains: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def m(self):  # the fiber size N^2 = 2^n
        return 2 ** self.n

    def chain(self, name, top, tol=RANK_TOL):
        """Bases of the spans of all level-fold ordered products of a family
        for levels 0..top (level 0: the identity), each grown from the one
        before (span closure, no n^level enumeration) and kept for later calls."""
        if name not in ("mu", "eta_bar", "eta_hol"):
            raise ValueError(f"unknown family {name!r}")
        family = getattr(self, name)
        chain = self.chains.setdefault((name, tol), [[{(0, 0): 1 + 0j}]])
        while len(chain) <= top:
            basis = chain[-1]
            chain.append(_span(_products([(basis, family)], self.n), self.m, tol)
                         if basis else [])
        return chain


def build_form_matrices(n_or_rep, eps_prime=1):
    check_eps(eps_prime)
    rep = build_gamma(n_or_rep) if isinstance(n_or_rep, int) else n_or_rep
    mu = [word_sum((0.5, a), (0.5j * eps_prime, b)) for a, b in lifted_words(fiber_words(rep))]
    pairs = [(mu[2 * j - 1], mu[2 * j - 2]) for j in range(1, rep.n // 2 + 1)]
    return FormBasisMatrices(
        n=rep.n, eps_prime=eps_prime, mu=mu,
        eta_bar=[word_sum((0.5, a), (-0.5j, b)) for a, b in pairs],
        eta_hol=[word_sum((0.5, a), (0.5j, b)) for a, b in pairs])


def _flat(sums):
    """Word sums as flat arrays (sum, x, z, c) of their words in dict order."""
    words = np.array([w for p in sums for w in p], dtype=np.int64).reshape(-1, 2)
    c = np.array([c for p in sums for c in p.values()], dtype=complex)
    return np.arange(len(sums)).repeat([len(p) for p in sums]), *words.T, c


def _products(groups, q):
    """The products l r, l in left and r in right, of each (left, right) of
    groups, left-major and group after group, as flat word sums from one
    ncdiff._word_pairs pass over q-qubit words: word_product's words, order
    and sums, less exact zeros."""
    sums, a, b = [], [], []
    for left, right in groups:
        a.append(len(sums) + np.arange(len(left)).repeat(len(right)))
        b.append(len(sums) + len(left) + np.tile(np.arange(len(right)), len(left)))
        sums += left + right
    seg, x, z, c = _flat(sums)
    length = np.bincount(seg, minlength=len(sums))
    off, a, b = length.cumsum() - length, np.concatenate(a), np.concatenate(b)
    # the sign of a word pair is -1 iff |z1 & x2| is odd, as in word_product
    seg, x, z, re, im = _word_pairs(q, x, z, c, off[a], length[a], off[b], length[b],
                                    np.zeros(len(a), dtype=np.intp),
                                    np.array([1, 1, -1, -1], dtype=complex))
    ids, first = _first_ids(seg, x, z)
    c = np.empty(len(first), dtype=complex)
    c.real, c.imag = (np.bincount(ids, w, len(first)) for w in (re, im))
    first, c = first[c != 0], c[c != 0]
    return seg[first], x[first], z[first], c


def _matrix(seg, x, z, c):
    """The coefficients of flat word sums, one row per sum with a word, over
    the words that occur in (x, z) order; and each word's row."""
    row = np.unique(seg, return_inverse=True)[1]
    col = np.unique(x * (z.max() + 1) + z, return_inverse=True)[1]
    mat = np.zeros((row.max() + 1, col.max() + 1), dtype=complex)
    mat[row, col] = c
    return mat, row


def _span(products, m, tol=RANK_TOL):
    """A basis of the span of flat word sums, picked among them as word-sum
    dicts: the SVD rule decides the rank, and pivoted Gram-Schmidt on the
    coordinates u s of the sums picks that many."""
    if not len(products[0]):
        return []
    mat, row = _matrix(*products)
    u, s, _ = np.linalg.svd(np.sqrt(m) * mat, full_matrices=False)
    rank = int(np.count_nonzero(s > tol * max(1.0, s[0])))
    coords, picked = u[:, :rank] * s[:rank], []
    for _ in range(rank):
        i = int(np.argmax(np.linalg.norm(coords, axis=1)))
        v = coords[i] / np.linalg.norm(coords[i])
        coords = coords - np.outer(coords @ v.conj(), v)
        picked.append(i)
    items = list(zip(zip(products[1].tolist(), products[2].tolist()), products[3].tolist()))
    cut = np.searchsorted(row, np.arange(len(mat) + 1)).tolist()
    return [dict(items[cut[i]:cut[i + 1]]) for i in sorted(picked)]


def form_rank(fbm, family_name, level, tol=RANK_TOL):
    """C-span dimension of all level-fold ordered products of the family."""
    if level < 0:
        raise ValueError("level must be >= 0")
    return len(fbm.chain(family_name, level, tol)[level])


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
    """Max dense entry of mu_j^2 = 0, {mu_j, mu_r} = 0 and the eta analogues.
    The word products cancel exactly, so nothing is densified."""
    anti = [word_sum((1, word_product(a, b)), (1, word_product(b, a)))
            for f in (fbm.mu, fbm.eta_bar, fbm.eta_hol) for j, a in enumerate(f) for b in f[j:]]
    return max((float(np.abs(dense_words(w, fbm.m)).max()) for w in anti if w), default=0.0)


def _containment_residuals(a, b):
    """How far span(a) sticks out of span(b), and span(b) out of span(a), for
    two bases of word sums: the largest coordinate, over the words of both, of
    an orthonormal basis of the one minus its projection on the other."""
    if not a + b:
        return 0.0, 0.0
    mat = _matrix(*_flat(a + b))[0].T
    qa, qb = np.linalg.qr(mat[:, :len(a)])[0], np.linalg.qr(mat[:, len(a):])[0]
    return tuple(float(np.abs(p - q @ (q.conj().T @ p)).max(initial=0.0))
                 for p, q in ((qa, qb), (qb, qa)))


def bidegree_decomposition_check(n_or_fbm, max_r=2, tol=None):
    """Report on Omega^r = direct sum of Omega^{p,q}: the binomial count
    identity C(n,r) = sum_p C(n/2,p) C(n/2,r-p), and span equality between
    mu-products and mixed eta products at each r <= max_r."""
    tol = resolve_tol(tol)
    fbm = build_form_matrices(n_or_fbm) if isinstance(n_or_fbm, int) else n_or_fbm
    n, half = fbm.n, fbm.n // 2
    rp = VerificationReport(tol=tol)
    rp.meta = {"n": n}
    mu_chain = fbm.chain("mu", max(n, max_r))
    hol_chain = fbm.chain("eta_hol", max_r)
    bar_chain = fbm.chain("eta_bar", max_r)
    for r in range(0, n + 1):
        lhs = len(mu_chain[r])
        rhs = sum(comb(half, p) * comb(half, r - p)
                  for p in range(0, r + 1))
        rp.add(f"rank count C({n},{r}) = Vandermonde sum", abs(lhs - rhs), tol=0.5)
    # the mixed products of every r from one pass, split by product index
    groups = [(hol_chain[p], bar_chain[r - p]) for r in range(1, max_r + 1) for p in range(r + 1)]
    products = _products(groups, n) if groups else ()
    cut = np.cumsum([0] + [sum(len(hol_chain[p]) * len(bar_chain[r - p]) for p in range(r + 1))
                           for r in range(1, max_r + 1)])
    for r in range(1, max_r + 1):
        mine = (products[0] >= cut[r - 1]) & (products[0] < cut[r])
        mixed = _span([x[mine] for x in products], fbm.m)
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

