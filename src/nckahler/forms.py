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
itself; each later level's products (previous basis x family) are one
NCDiffOp.products pass over every family still short of its top level, and
the bidegree check's mixed hol x bar spans one more.  Their coefficients are
multiples of 2^-2r, r <= n + 1, so the pass's PRUNE_TOL drops exactly the
words that cancel, and each pass's coefficients scale to Gaussian integers
(pauli.gaussian_integers, with an exact round trip).  A span is decided by
an exact row echelon over those integers, fraction-free as in Bareiss (Math.
Comp. 22, 1968): each product, in job order, is reduced on its least word
against the rows kept so far by row <- p[w] row - row[w] p, in Python ints,
and is picked when it keeps a new least word.  So the picks are a basis of
the span, and their count is the rank over Q(i), which is the complex rank;
no rounding and no cutoff enter it.  Each family's chain of bases is grown once
per FormBasisMatrices; the rank table, form_rank and the bidegree check
index it.  The bidegree check decides its span containments on the same
echelon: span(a) sticks out of span(b) by rank(a with b) - rank(b), an exact
integer, the dimension of what fails.  A float distance would read a 2^-40
defect as 6e-13 and pass it under the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, gcd

import numpy as np

from .clifford import build_gamma
from .kahler import check_eps, lifted_words
from .ncdiff import NCDiffOp
from .pauli import gaussian_integers, max_entry, word_sum
from .report import VerificationReport, resolve_tol
from .torus import DimensionMismatch, ThetaMatrix

FAMILIES = ("mu", "eta_bar", "eta_hol")


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
        for levels 0..top (level 0: the identity); see grow."""
        return self.grow({name: top})[name]

    def grow(self, tops):
        """The chains of the families {name: top}, each grown from the level
        before (span closure, no n^level enumeration) and kept for later
        calls.  The families grow together: a round adds the next level to
        every family still short of its top, the products of all of them
        from one NCDiffOp.products pass (level 1 is the family itself: 1 f =
        f) and their spans from one scaling (_spans)."""
        for name in tops:
            if name not in FAMILIES:
                raise ValueError(f"unknown family {name!r}")
            self.chains.setdefault(name, [[NCDiffOp.identity(self.mu[0].theta, self.m)]])
        while short := [name for name, top in tops.items() if len(self.chains[name]) <= top]:
            jobs = {name: [(b, f, 0) for b in self.chains[name][-1] for f in getattr(self, name)]
                    for name in short if len(self.chains[name]) > 1}
            flat = [job for level in jobs.values() for job in level]
            products = iter(NCDiffOp.products(flat) if flat else [])
            levels = [[next(products) for _ in jobs[name]] if name in jobs else getattr(self, name)
                      for name in short]
            cuts = np.cumsum([0] + [len(level) for level in levels]).tolist()
            for name, basis in zip(short, _spans([f for level in levels for f in level], cuts)):
                self.chains[name].append(basis)
        return {name: self.chains[name] for name in tops}


def build_form_matrices(n, eps_prime=1):
    """The one-forms of eps' on the C^{N^2} fiber of build_gamma(n)."""
    check_eps(eps_prime)
    rep, half = build_gamma(n), n // 2
    mu = [word_sum((0.5, a), (0.5j * eps_prime, b)) for a, b in lifted_words(rep)]
    pairs = [(mu[2 * j - 1], mu[2 * j - 2]) for j in range(1, half + 1)]
    words = (mu + [word_sum((0.5, a), (-0.5j, b)) for a, b in pairs]
             + [word_sum((0.5, a), (0.5j, b)) for a, b in pairs])
    zero = (0,) * n
    ops = NCDiffOp.from_terms(ThetaMatrix.zero(n), 2 ** n, [{zero: {zero: w}} for w in words])
    return FormBasisMatrices(n=n, eps_prime=eps_prime, mu=ops[:n],
                             eta_bar=ops[n:n + half], eta_hol=ops[n + half:])


def _words(forms):
    """The words x, z and coefficients c of forms, end to end."""
    return (np.concatenate([f.x for f in forms]), np.concatenate([f.z for f in forms]),
            np.concatenate([f.c for f in forms]))


def _spans(forms, cuts):
    """Bases of the spans of forms[a:b] for consecutive cuts a, b ([] for an
    empty slice, with no _span), from one scaling of all the coefficients to
    Gaussian integers: each form a row {x << q | z: (re, im)}.  A form equal
    word for word to an earlier one of its slice times a unit (1, i, -1 or
    -i, exact on floats) lies in that one's span and is left out first."""
    if not forms:
        return [[] for _ in cuts[1:]]
    lens = [len(f.c) for f in forms]
    q = forms[0].m.bit_length() - 1
    x, z, c = _words(forms)
    # each form's words in key order, turned by the unit that takes the first
    # one's coefficient to re > 0, im >= 0 (+ 0 clears the signs of zeros)
    key, row = x << q | z, np.arange(len(forms)).repeat(lens)
    order = (row << 2 * q | key).argsort()
    key, c = key[order], c[order]
    ends = np.cumsum(lens)
    lead = np.append(c, 0)[ends - lens]
    turn = np.where(lead.imag > 0, 3 * (lead.real <= 0), np.where(lead.real < 0, 2, lead.imag < 0))
    unit = c * np.array([1, 1j, -1, -1j])[turn][row] + 0
    sigs = np.column_stack((key, unit.real.view(np.int64), unit.imag.view(np.int64))).tobytes()
    _, re, im = gaussian_integers(c)
    key, ends, width = key.tolist(), ends.tolist(), 3 * 8
    spans = []
    for a, b in zip(cuts, cuts[1:]):
        seen, kept, rows = set(), [], []
        for f, s, e in zip(forms[a:b], ([0] + ends)[a:b], ends[a:b]):
            sig = sigs[width * s:width * e]
            if sig not in seen:
                seen.add(sig)
                kept.append(f)
                rows.append(dict(zip(key[s:e], zip(re[s:e], im[s:e]))))
        spans.append(_span(kept, rows) if a < b else [])
    return spans


def _span(forms, rows):
    """A basis of the span of forms, picked among them by the exact echelon
    of their Gaussian-integer rows: a form is picked when its row keeps a
    new least word (_reduce)."""
    pivots = {}
    return [f for f, row in zip(forms, rows) if _reduce(row, pivots)]


def _reduce(row, pivots):
    """Reduce row on its least word w against pivots ({least word: row}) by
    the fraction-free update row <- p[w] row - row[w] p, exact in Python ints,
    until w is new (the row joins pivots: True) or the row is 0 (False).
    Dividing by the integer content keeps the ints small; it scales the row
    only."""
    while row:
        w = min(row)
        p = pivots.get(w)
        if p is None:
            pivots[w] = row
            return True
        (ar, ai), (br, bi) = p[w], row[w]
        row = {k: (ar * r - ai * i, ar * i + ai * r) for k, (r, i) in row.items()}
        for k, (r, i) in p.items():
            nr, ni = row.get(k, (0, 0))
            nr, ni = nr - br * r + bi * i, ni - br * i - bi * r
            if nr or ni:
                row[k] = nr, ni
            else:
                del row[k]
        g = gcd(*(v for pair in row.values() for v in pair))
        if g > 1:
            row = {k: (r // g, i // g) for k, (r, i) in row.items()}
    return False


def form_rank(fbm, family_name, level):
    """C-span dimension of all level-fold ordered products of the family."""
    if level < 0:
        raise ValueError("level must be >= 0")
    return len(fbm.chain(family_name, level)[level])


def rank_table(fbm):
    """Ranks per level for all three families, through the first vanishing."""
    top = fbm.n + 1
    chains = fbm.grow(dict.fromkeys(FAMILIES, top))
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
    return float(max_entry(np.array([op.residual_norm() for op in anti])))


def bidegree_decomposition_check(fbm, tol=None):
    """Report on Omega^r = direct sum of Omega^{p,q}: the binomial count
    identity C(n,r) = sum_p C(n/2,p) C(n/2,r-p), and span equality between
    mu-products and mixed eta products at r = 1 and 2: each containment row
    reads the dimension by which the one span sticks out of the other."""
    tol = resolve_tol(tol)
    n, half = fbm.n, fbm.n // 2
    rp = VerificationReport(tol=tol)
    rp.meta = {"n": n}
    chains = fbm.grow({"mu": n, "eta_hol": 2, "eta_bar": 2})
    mu_chain, hol_chain, bar_chain = chains["mu"], chains["eta_hol"], chains["eta_bar"]
    for r in range(0, n + 1):
        lhs = len(mu_chain[r])
        rhs = sum(comb(half, p) * comb(half, r - p)
                  for p in range(0, r + 1))
        rp.add(f"rank count C({n},{r}) = Vandermonde sum", abs(lhs - rhs), tol=0.5)
    # the mixed products of every r from one pass, split by job index
    jobs = [[(h, b, 0) for p in range(r + 1) for h in hol_chain[p] for b in bar_chain[r - p]]
            for r in (1, 2)]
    products = iter(NCDiffOp.products([job for level in jobs for job in level]))
    # each r's slice: its mixed products, then the basis mu^r; the picks are a
    # basis of span(mixed), then the mu^r forms that stick out of it
    slices = [[next(products) for _ in level] + mu_chain[r] for r, level in zip((1, 2), jobs)]
    cuts = np.cumsum([0] + [len(s) for s in slices]).tolist()
    for r, picks in zip((1, 2), _spans([f for s in slices for f in s], cuts)):
        mu = set(map(id, mu_chain[r]))
        rp.add(f"span(mu^{r}) inside span(eta mixed^{r})", sum(id(f) in mu for f in picks))
        rp.add(f"span(eta mixed^{r}) inside span(mu^{r})", len(picks) - len(mu_chain[r]))
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

