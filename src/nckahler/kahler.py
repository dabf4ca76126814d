"""Dirac operators, complex structures indexed by perfect matchings, and the
full N=(2,2) verification checklist on the noncommutative even torus.

All operators act on A_Theta tensor C^{N^2} (fiber ordering: first tensor leg
then second, as np.kron orders them), except the base Dirac operator which
lives on C^N.  The builders write every fiber matrix as Pauli words: the
words of the N x N gammas and sigma come from one Pauli transform each per
package (fiber_words, passed to every builder as `words`), and a kron of two
legs concatenates their masks (word_kron): no N^2 x N^2 matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from .clifford import GammaRep, build_gamma
from .ncdiff import NCDiffOp, TorusMatrix, pauli_words, word_kron, word_product, word_sum
from .report import VerificationReport, resolve_tol
from .torus import PRUNE_TOL, DimensionMismatch, TorusElement


_ONE = {(0, 0): 1 + 0j}


class MatchingError(ValueError):
    pass


@dataclass(frozen=True)
class Matching:
    """Perfect matching of {1..2k} into k strictly increasing disjoint pairs."""

    pairs: tuple

    def __post_init__(self):
        seen = set()
        for p in self.pairs:
            if len(p) != 2 or p[0] >= p[1]:
                raise MatchingError(f"pair {p} is not strictly increasing")
            seen.update(p)
        k = len(self.pairs)
        if seen != set(range(1, 2 * k + 1)):
            raise MatchingError(
                f"{self.pairs} is not a perfect matching of 1..{2 * k}")

    @property
    def two_k(self):
        return 2 * len(self.pairs)

    @classmethod
    def parse(cls, text):
        """Parse "1-2,3-4" into a Matching."""
        pairs = []
        for chunk in text.split(","):
            a, _, b = chunk.strip().partition("-")
            try:
                pairs.append((int(a), int(b)))
            except ValueError:
                raise MatchingError(f"cannot parse pair {chunk!r}") from None
        return cls(tuple(sorted(pairs)))

    def __str__(self):
        return ",".join(f"{a}-{b}" for a, b in self.pairs)


def enumerate_matchings(two_k):
    """All perfect matchings of {1..2k}: smallest unmatched element first,
    partner ascending.  Count is (2k-1)!! = (2k-1)(2k-3)...1."""
    if two_k % 2 != 0 or two_k < 2:
        raise MatchingError(f"need an even set size >= 2, got {two_k}")
    out = []

    def rec(remaining, acc):
        if not remaining:
            out.append(Matching(tuple(acc)))
            return
        first = remaining[0]
        for partner in remaining[1:]:
            rest = [x for x in remaining[1:] if x != partner]
            rec(rest, acc + [(first, partner)])

    rec(list(range(1, two_k + 1)), [])
    return out


# -- operator constructors --------------------------------------------------


def fiber_words(rep):
    """The Pauli words of each gamma_j and of sigma, and the qubit count q of
    the C^N fiber (N = 2^q); build_kahler_package shares one call's words."""
    return ([pauli_words(g) for g in rep.gammas], pauli_words(rep.sigma),
            rep.N.bit_length() - 1)


def lifted_words(words):
    """Per coordinate j, the C^{N^2} fiber words of DD and of DDbar / (-eps'):
    kron(1, gamma_j) and kron(gamma_j, sigma)."""
    gammas, sigma, q = words
    return [(word_kron(_ONE, g, q), word_kron(g, sigma, q)) for g in gammas]


def _unit(n, j):
    """The multi-index of del_j, 1 <= j <= n."""
    return tuple(int(i == j - 1) for i in range(n))


def _constant(theta, m, words):
    return NCDiffOp.from_words(theta, m, {(0,) * theta.n: words})


def build_dirac(rep, theta, words=None):
    """D = sum_j del_j tensor gamma_j on the C^N fiber."""
    if rep.n != theta.n:
        raise DimensionMismatch(f"rep n={rep.n} vs theta n={theta.n}")
    gammas = words[0] if words else [pauli_words(g) for g in rep.gammas]
    return NCDiffOp.from_words(theta, rep.N, {_unit(rep.n, j): g
                                              for j, g in enumerate(gammas, 1)})


def build_lifted(rep, theta, eps_prime=1, words=None):
    """The lifted pair on the C^{N^2} fiber and the differential it defines:

        DD    = sum_j del_j tensor kron(1, gamma_j)
        DDbar = -eps' sum_j del_j tensor kron(gamma_j, sigma)
        d     = (DD - i DDbar) / 2,   d* = (DD + i DDbar) / 2.
    """
    if rep.n != theta.n:
        raise DimensionMismatch(f"rep n={rep.n} vs theta n={theta.n}")
    legs = lifted_words(words or fiber_words(rep))
    m = rep.N ** 2
    DD = NCDiffOp.from_words(theta, m, {_unit(rep.n, j): a
                                        for j, (a, _) in enumerate(legs, 1)})
    DDbar = NCDiffOp.from_words(theta, m, {_unit(rep.n, j): word_sum((-eps_prime, b))
                                           for j, (_, b) in enumerate(legs, 1)})
    # 0.5 DD -+ 0.5i DDbar: exact factors, so these equal (DD -+ DDbar.scale(1j)).scale(0.5)
    d, d_star = NCDiffOp.sums([[(0.5, DD), (-0.5j, DDbar)], [(0.5, DD), (0.5j, DDbar)]])
    return DD, DDbar, d, d_star


def build_T_script(rep, theta, eps_prime=1, words=None):
    """T-script = sum_j (i eps'/2) kron(gamma_j, gamma_j sigma): bounded,
    self-adjoint, commutes with the algebra, and satisfies [T, d] = d."""
    gammas, sigma, q = words or fiber_words(rep)
    z = 1j * eps_prime / 2.0
    return _constant(theta, rep.N ** 2,
                     word_sum(*((z, word_kron(g, word_product(g, sigma), q)) for g in gammas)))


def build_I(matching, rep, theta, words=None):
    """Complex-structure generator for one matching:

        I = (1/2) sum_{(l,j) in pairs} [kron(1, gamma_l gamma_j)
                                        + kron(gamma_l gamma_j, 1)].
    """
    if matching.two_k != rep.n:
        raise MatchingError(f"matching covers 1..{matching.two_k}, rep has n={rep.n}")
    gammas, _, q = words or fiber_words(rep)
    terms = []
    for (l, j) in matching.pairs:
        gg = word_product(gammas[l - 1], gammas[j - 1])
        terms += [(0.5, word_kron(_ONE, gg, q)), (0.5, word_kron(gg, _ONE, q))]
    return _constant(theta, rep.N ** 2, word_sum(*terms))


def build_gamma_tilde(rep, theta, words=None):
    """kron(sigma, sigma)."""
    _, sigma, q = words or fiber_words(rep)
    return _constant(theta, rep.N ** 2, word_kron(sigma, sigma, q))


def build_hodge_star(rep, theta, words=None):
    """kron(1, sigma)."""
    _, sigma, q = words or fiber_words(rep)
    return _constant(theta, rep.N ** 2, word_kron(_ONE, sigma, q))


def build_pm_intertwiner(rep, theta):
    """kron(sigma, 1): conjugates the eps'=+1 differentials into eps'=-1."""
    sigma = pauli_words(rep.sigma)
    return _constant(theta, rep.N ** 2, word_kron(sigma, _ONE, rep.N.bit_length() - 1))


@dataclass
class KahlerPackage:
    rep: GammaRep
    theta: object
    eps_prime: int
    matching: Matching
    D: NCDiffOp
    DD: NCDiffOp
    DDbar: NCDiffOp
    d: NCDiffOp
    d_star: NCDiffOp
    T_script: NCDiffOp
    I_op: NCDiffOp
    d2: NCDiffOp
    del_hol: NCDiffOp
    del_bar: NCDiffOp
    T: NCDiffOp
    T_bar: NCDiffOp
    gamma_tilde: NCDiffOp
    hodge_star: NCDiffOp


def build_kahler_package(theta, matching=None, eps_prime=1, rep=None):
    """Assemble every operator of the construction for one (Theta, matching,
    eps') choice: d2 = [I, d], del = (d - i d2)/2, delbar = (d + i d2)/2,
    T = (T_script - i I)/2, Tbar = (T_script + i I)/2."""
    if eps_prime not in (1, -1):
        raise ValueError(f"eps' must be +1 or -1, got {eps_prime!r}")
    rep = build_gamma(theta.n) if rep is None else rep
    if matching is None:
        matching = enumerate_matchings(theta.n)[0]
    words = fiber_words(rep)
    D = build_dirac(rep, theta, words)
    DD, DDbar, d, d_star = build_lifted(rep, theta, eps_prime, words)
    Ts = build_T_script(rep, theta, eps_prime, words)
    I_op = build_I(matching, rep, theta, words)
    d2 = I_op.commutator(d)
    del_hol, del_bar, T, T_bar = NCDiffOp.sums([[(0.5, d), (-0.5j, d2)], [(0.5, d), (0.5j, d2)],
                                                [(0.5, Ts), (-0.5j, I_op)],
                                                [(0.5, Ts), (0.5j, I_op)]])
    return KahlerPackage(
        rep=rep, theta=theta, eps_prime=eps_prime, matching=matching,
        D=D, DD=DD, DDbar=DDbar, d=d, d_star=d_star, T_script=Ts, I_op=I_op,
        d2=d2, del_hol=del_hol, del_bar=del_bar, T=T, T_bar=T_bar,
        gamma_tilde=build_gamma_tilde(rep, theta, words),
        hodge_star=build_hodge_star(rep, theta, words),
    )


# -- verification -----------------------------------------------------------


def _batch(run, named):
    """run (NCDiffOp.products or sums) once over the jobs of every dict of
    `named`, [{name: job}]; the results as [{name: result}]."""
    flat = [job for jobs in named for job in jobs.values()]
    out = iter(run(flat))
    return [{name: next(out) for name in jobs} for jobs in named]


def _core_chain_jobs(pkg, d2s):
    """The products verify_core_chain checks, by name; d2s is d2*."""
    DD, DDbar, d, d2, I_op = pkg.DD, pkg.DDbar, pkg.d, pkg.d2, pkg.I_op
    return {"DD^2": (DD, DD, 0), "DDbar^2": (DDbar, DDbar, 0), "{DD,DDbar}": (DD, DDbar, 1),
            "d^2": (d, d, 0), "[Ts,d]": (pkg.T_script, d, -1),
            "[I,Ts]": (I_op, pkg.T_script, -1), "[I,gt]": (I_op, pkg.gamma_tilde, -1),
            "[I,star]": (I_op, pkg.hodge_star, -1), "[I,d2]": (I_op, d2, -1),
            "{d,d2*}": (d, d2s, 1), "{d*,d2}": (pkg.d_star, d2, 1)}


def _laplacian(theta, m):
    """sum_j del_j^2, so that DD^2 = -sum del_r^2 reads DD^2 + lap = 0."""
    return NCDiffOp.from_words(theta, m, {tuple(2 * a for a in _unit(theta.n, j)): _ONE
                                          for j in range(1, theta.n + 1)})


def _core_chain_sums(pkg, r, del2):
    """The differences verify_core_chain checks, by name, from the products r
    of _core_chain_jobs and del2 = _laplacian(pkg.theta, pkg.DD.m)."""
    return {"DD^2": [(1, r["DD^2"]), (1, del2)], "DDbar^2": [(1, r["DDbar^2"]), (1, del2)],
            "[Ts,d]": [(1, r["[Ts,d]"]), (-1, pkg.d)], "[I,d2]": [(1, r["[I,d2]"]), (1, pkg.d)]}


def _add_core_chain(rp, r, s):
    """The checks of verify_core_chain on the products r of _core_chain_jobs
    and the sums s of _core_chain_sums."""
    rp.add("DD^2 = -sum del_r^2", s["DD^2"].residual_norm())
    rp.add("DDbar^2 = -sum del_r^2", s["DDbar^2"].residual_norm())
    rp.add("{DD, DDbar} = 0", r["{DD,DDbar}"].residual_norm())
    rp.add("d^2 = 0", r["d^2"].residual_norm())
    rp.add("[T_script, d] = d", s["[Ts,d]"].residual_norm())
    rp.add("[I, T_script] = 0", r["[I,Ts]"].residual_norm())
    rp.add("[I, gamma_tilde] = 0", r["[I,gt]"].residual_norm())
    rp.add("[I, star] = 0", r["[I,star]"].residual_norm())
    # build_kahler_package defines d2 = [I, d]
    rp.add("[I, [I, d]] = -d", s["[I,d2]"].residual_norm())
    rp.add("{d, d2*} = 0", r["{d,d2*}"].residual_norm())
    rp.add("{d*, d2} = 0", r["{d*,d2}"].residual_norm())


def verify_core_chain(pkg, tol=None):
    """The operator identities the construction rests on, before the full
    axiom checklist: squares of the lifted pair, nilpotency, [T,d]=d,
    [I, .] commutations, [I,[I,d]]=-d, and the d/d2 cross relations; one
    kernel pass."""
    rp = VerificationReport(tol=resolve_tol(tol))
    [r] = _batch(NCDiffOp.products, [_core_chain_jobs(pkg, pkg.d2.adjoint())])
    [s] = _batch(NCDiffOp.sums, [_core_chain_sums(pkg, r, _laplacian(pkg.theta, pkg.DD.m))])
    _add_core_chain(rp, r, s)
    return rp


def _checklist_jobs(pkg, adj, mas):
    """The products of verify_n22 for one package, by name; adj holds the
    adjoints of del, delbar, d and d2, and mas the samples' mult(a)."""
    p, pb, d, T, Tb = pkg.del_hol, pkg.del_bar, pkg.d, pkg.T, pkg.T_bar
    ps, pbs, _, d2s = adj
    gt, st = pkg.gamma_tilde, pkg.hodge_star
    jobs = {"del^2": (p, p, 0), "delbar^2": (pb, pb, 0), "{del,delbar}": (p, pb, 1),
            "[T,Tbar]": (T, Tb, -1), "[T,del]": (T, p, -1), "[T,delbar]": (T, pb, -1),
            "[Tbar,del]": (Tb, p, -1), "[Tbar,delbar]": (Tb, pb, -1),
            "{gt,del}": (gt, p, 1), "{gt,delbar}": (gt, pb, 1),
            "[gt,T]": (gt, T, -1), "[gt,Tbar]": (gt, Tb, -1),
            "star del": (st, p, 0), "delbar* star": (pbs, st, 0),
            "star delbar": (st, pb, 0), "del* star": (ps, st, 0),
            "{del,delbar*}": (p, pbs, 1), "{delbar,del*}": (pb, ps, 1),
            "{del,del*}": (p, ps, 1), "{delbar,delbar*}": (pb, pbs, 1),
            "{d,d*}": (d, pkg.d_star, 1), "{d2,d2*}": (pkg.d2, d2s, 1),
            **_core_chain_jobs(pkg, d2s)}
    for s, ma in enumerate(mas):
        jobs |= {("[T,a]", s): (T, ma, -1), ("[Tbar,a]", s): (Tb, ma, -1),
                 ("[del,a]", s): (p, ma, -1), ("[delbar,a]", s): (pb, ma, -1)}
    return jobs


def _checklist_sums(pkg, adj, r, del2):
    """The checklist's two-term differences (the core chain's too), by name."""
    p, pb, d, T, Tb = pkg.del_hol, pkg.del_bar, pkg.d, pkg.T, pkg.T_bar
    lap, lap_db = r["{d,d*}"], r["{delbar,delbar*}"]
    return {"[T,del]": [(1, r["[T,del]"]), (-1, p)],
            "[Tbar,delbar]": [(1, r["[Tbar,delbar]"]), (-1, pb)],
            "star del": [(1, r["star del"]), (1, r["delbar* star"])],
            "star delbar": [(1, r["star delbar"]), (1, r["del* star"])],
            "{del,del*}": [(1, r["{del,del*}"]), (-1, lap_db)],
            "del+delbar": [(1, p), (1, pb)], "d+d*": [(1, d), (1, pkg.d_star)],
            "T+Tbar": [(1, T), (1, Tb)], "d*": [(1, adj[2]), (-1, pkg.d_star)],
            "lap d2": [(1, lap), (-1, r["{d2,d2*}"])],
            # 2 lap_db is exact, so this is lap - lap_db.scale(2.0)
            "lap delbar": [(1, lap), (-2.0, lap_db)], **_core_chain_sums(pkg, r, del2)}


def verify_n22(pkg, tol=None, rng=None, samples=3):
    """Full N=(2,2) axiom checklist for one package, as a report; for a list
    of packages, the list of their reports from one batch.  After one
    adjoints pass, every product whose operands exist (the core chain's too)
    is one kernel pass, {del, [delbar, a]} over the samples a a second, and
    the differences two reductions.  Each package draws its samples from
    rng, or from a fresh default_rng(7) when rng is None, so a report does
    not depend on the batch it ran in; each draw's mult(a) is one from_terms."""
    pkgs = [pkg] if isinstance(pkg, KahlerPackage) else list(pkg)
    tol = resolve_tol(tol)
    adj = NCDiffOp.adjoints([op for q in pkgs for op in (q.del_hol, q.del_bar, q.d, q.d2)])
    adj = [adj[i:i + 4] for i in range(0, len(adj), 4)]
    ctxs = {(id(q.theta), q.DD.m): q for q in pkgs}
    laps = {ctx: _laplacian(q.theta, q.DD.m) for ctx, q in ctxs.items()}
    mas, drawn = [], {}
    for q in pkgs:
        # fresh default_rng(7) draws repeat over one torus and fiber: build them once
        key = (id(q.theta), q.DD.m) if rng is None else len(mas)
        if key not in drawn:
            qrng = np.random.default_rng(7) if rng is None else rng
            elems = [TorusElement.random(q.theta, qrng, radius=1, terms=3) for _ in range(samples)]
            drawn[key] = NCDiffOp.mult(elems, q.DD.m) if elems else []
        mas.append(drawn[key])
    rs = _batch(NCDiffOp.products, [_checklist_jobs(*a) for a in zip(pkgs, adj, mas)])
    nested = _batch(NCDiffOp.products, [{s: (q.del_hol, r["[delbar,a]", s], 1)
                                         for s in range(samples)} for q, r in zip(pkgs, rs)])
    # the differences in two reductions: sums of two terms, then the three-term
    # ones from their first two (the order + and - take)
    difs = _batch(NCDiffOp.sums, [_checklist_sums(q, a, r, laps[id(q.theta), q.DD.m])
                                  for q, a, r in zip(pkgs, adj, rs)])
    difs = [dif | more for dif, more in zip(difs, _batch(NCDiffOp.sums, [
        {"d": [(1, dif["del+delbar"]), (-1, q.d)], "DD": [(1, dif["d+d*"]), (-1, q.DD)],
         "T_script": [(1, dif["T+Tbar"]), (-1, q.T_script)]} for q, dif in zip(pkgs, difs)]))]
    reports = [_checklist_report(*a, tol, samples) for a in zip(pkgs, rs, nested, difs)]
    return reports[0] if isinstance(pkg, KahlerPackage) else reports


def _checklist_report(pkg, r, nested, dif, tol, samples):
    """verify_n22's report of one package from its products r and nested and
    its differences dif."""
    rp = VerificationReport(tol=tol)
    rp.meta = {
        "n": pkg.theta.n,
        "matching": str(pkg.matching),
        "eps_prime": pkg.eps_prime,
    }
    rp.add("del^2 = 0", r["del^2"].residual_norm())
    rp.add("delbar^2 = 0", r["delbar^2"].residual_norm())
    rp.add("{del, delbar} = 0", r["{del,delbar}"].residual_norm())
    rp.add("[T, Tbar] = 0", r["[T,Tbar]"].residual_norm())
    rp.add("[T, del] = del", dif["[T,del]"].residual_norm())
    rp.add("[T, delbar] = 0", r["[T,delbar]"].residual_norm())
    rp.add("[Tbar, del] = 0", r["[Tbar,del]"].residual_norm())
    rp.add("[Tbar, delbar] = delbar", dif["[Tbar,delbar]"].residual_norm())

    for s in range(samples):
        rp.add(f"[T, a] = 0 (sample {s})", r["[T,a]", s].residual_norm())
        rp.add(f"[Tbar, a] = 0 (sample {s})", r["[Tbar,a]", s].residual_norm())
        # "bounded" commutators = derivation degree 0 in normal form; a degree
        # is an integer, so these pass below 0.5 whatever the run's tol
        rp.add(f"[del, a] degree-0 (sample {s})",
               float(r["[del,a]", s].max_degree()), tol=0.5)
        rp.add(f"[delbar, a] degree-0 (sample {s})",
               float(r["[delbar,a]", s].max_degree()), tol=0.5)
        rp.add(f"{{del, [delbar, a]}} degree-0 (sample {s})",
               float(nested[s].max_degree()), tol=0.5)

    rp.add("{gamma_tilde, del} = 0", r["{gt,del}"].residual_norm())
    rp.add("{gamma_tilde, delbar} = 0", r["{gt,delbar}"].residual_norm())
    rp.add("[gamma_tilde, T] = 0", r["[gt,T]"].residual_norm())
    rp.add("[gamma_tilde, Tbar] = 0", r["[gt,Tbar]"].residual_norm())

    # Hodge relations with zeta = -1: star del = -delbar* star, star delbar = -del* star
    rp.add("star del = -delbar* star", dif["star del"].residual_norm())
    rp.add("star delbar = -del* star", dif["star delbar"].residual_norm())

    rp.add("{del, delbar*} = 0", r["{del,delbar*}"].residual_norm())
    rp.add("{delbar, del*} = 0", r["{delbar,del*}"].residual_norm())
    rp.add("{del, del*} = {delbar, delbar*}", dif["{del,del*}"].residual_norm())

    # structural consistency of the package
    rp.add("d = del + delbar", dif["d"].residual_norm())
    rp.add("d + d* = DD", dif["DD"].residual_norm())
    rp.add("T_script = T + Tbar", dif["T_script"].residual_norm())
    rp.add("d* = (DD + i DDbar)/2", dif["d*"].residual_norm())

    # Laplacian equalities
    rp.add("{d, d*} = {d2, d2*}", dif["lap d2"].residual_norm())
    rp.add("{d, d*} = 2{delbar, delbar*}", dif["lap delbar"].residual_norm())

    _add_core_chain(rp, r, dif)
    return rp


def verify_real_structure(theta, rep=None, variant="plus", tol=None, rng=None,
                          radius=3, samples=20):
    """The real-structure conditions for J = (a -> a*) tensor J_N on the C^N
    fiber: J D = eps' D J on the monomial basis vectors e_i U^k of 12 modes k
    of the box [-radius, radius]^n, plus the zero- and first-order conditions
    [JaJ*, b] = [JaJ*, [D, b]] = 0 on `samples` (>= 1) monomial pairs.

    Each operator acts once on the columns of an (N, N) block: for J D the
    identity at every sampled mode at once, in a TorusMatrix, which holds
    only while D's coefficients sit at mode 0 (two NCDiffOp.apply calls).  In
    the pair conditions every intermediate is one block at one mode, so the
    samples run as (samples, N, N) stacks: one NCDiffOp.products pass forms
    every [D, b], and one NCDiffOp.applies pass acts with each on the
    identity and on J a J*."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    tol = resolve_tol(tol)
    rng = np.random.default_rng(11) if rng is None else rng
    rep = build_gamma(theta.n) if rep is None else rep
    rp = VerificationReport(tol=tol)
    rp.meta = {"n": theta.n, "variant": variant}
    C = rep.conj_matrix(variant)
    eps, eps_p, _ = rep.signs(variant)
    D = build_dirac(rep, theta)
    N = rep.N
    eye = np.eye(N, dtype=complex)

    def J(v):
        # (J v)_i = sum_j C_ij v_j*: block k goes to mode -k as star_phase(k) C conj(b)
        out = {tuple(-x for x in k): theta.star_phase(k) * (C @ b.conj())
               for k, b in v.blocks.items()}
        return TorusMatrix(theta, v.shape, out)

    # D's coefficients sit at mode 0, so D.apply keeps the block of mode k at
    # k and J moves it to -k: no two sampled modes merge, and the norm is the
    # max over every (mode, basis vector)
    basis = TorusMatrix(theta, (N, N),
                        {k: eye for k in _box_sample(theta.n, radius, rng, 12)})
    rp.add("J D = eps' D J",
           (J(D.apply(basis)) - D.apply(J(basis)).scale(eps_p)).norm())

    # per sample, ma is drawn before mb
    ma, mb = zip(*[[tuple(int(x) for x in rng.integers(-2, 3, size=theta.n)) for _ in range(2)]
                   for _ in range(samples)])
    mbs = NCDiffOp.mult([TorusElement.monomial(theta, k) for k in mb], N)
    Dbs = NCDiffOp.products([(D, b, -1) for b in mbs])
    for Db, b, k in zip(Dbs, mbs, mb):
        # [D, b] = sum_j del_j(b) gamma_j: one degree-0 block at mb, none at mb = 0
        if Db.table[:2].tolist() != ([[0], b.mode.tolist()] if any(k) else [[], []]):
            raise RuntimeError(f"[D, b] for b = U^{k} is not one degree-0 block at {k}")
    nma = [tuple(-x for x in k) for k in ma]
    sa, sb, pab, sab, pba = [np.array(p)[:, None, None] for p in zip(*(
        (theta.star_phase(a), theta.star_phase(b), theta.phase(a, tuple(-x for x in b)),
         theta.star_phase(tuple(x - y for x, y in zip(a, b))), theta.phase(b, na))
        for a, b, na in zip(ma, mb, nma)))]

    def JaJstar(Cb, s):
        # J a J* (b U^mb) per sample s, from Cb = C conj(b): J b U^k = star_phase(k)
        # C conj(b) U^-k, U^ma b U^k = phase(ma, k) b U^(ma + k), and J^-1 = eps J
        return eps * (sab[s] * (C @ (pab[s] * (sb[s] * Cb)).conj()))

    def residual(d):
        # TorusMatrix's prune-then-norm per sample of the difference d; its
        # operands, phases times unitary or [D, b] blocks, are never below PRUNE_TOL
        kept = np.abs(d).max(axis=(1, 2)) >= PRUNE_TOL
        return float(np.hypot(d.real, d.imag).max(axis=(1, 2))[kept].max(initial=0.0))

    # J a J*(identity) at -ma: J(1) = C, and a C is the block C at ma
    ja = eps * (sa * (C @ C.conj()))
    rp.add("[J a J*, b] = 0", residual(JaJstar(C @ eye.conj(), slice(None)) - pba * ja))
    live = [s for s, k in enumerate(mb) if any(k)]
    acted = NCDiffOp.applies([(Dbs[s], {(0,) * theta.n: eye}) for s in live]
                             + [(Dbs[s], {nma[s]: ja[s]}) for s in live])
    acted = np.array([blk for out in acted for blk in out.values()]).reshape(2, -1, N, N)
    rp.add("[J a J*, [D, b]] = 0", residual(JaJstar(C @ acted[0].conj(), live) - acted[1]))
    return rp


def _box_sample(n, radius, rng, count):
    """A deterministic handful of exponents in box(radius), corners included;
    the whole box when it holds fewer than `count` modes."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    side = range(-radius, radius + 1)
    if len(side) ** n < count:
        return list(iproduct(side, repeat=n))
    out = {(0,) * n, (radius,) + (0,) * (n - 1), (-radius,) * n}
    while len(out) < count:
        out.add(tuple(int(x) for x in rng.integers(-radius, radius + 1, size=n)))
    return sorted(out)


def verify_pm_conjugation(plus, minus):
    """Residual of W del_+ = del_- W and the delbar analogue for
    W = kron(sigma, 1), conjugating the eps' = +1 package into eps' = -1."""
    W = build_pm_intertwiner(plus.rep, plus.theta)
    Wp, mW, Wpb, mbW = NCDiffOp.products([(W, plus.del_hol, 0), (minus.del_hol, W, 0),
                                          (W, plus.del_bar, 0), (minus.del_bar, W, 0)])
    return max(op.residual_norm() for op in NCDiffOp.sums([[(1, Wp), (-1, mW)],
                                                          [(1, Wpb), (-1, mbW)]]))


def verify_grid(theta, matchings, eps_list=(1, -1), rep=None, tol=None,
                on_package=None):
    """The N=(2,2) checklist over every (matching, eps') of the grid, as one
    report: "[matching|eps'=+-1] <check>" for each eps' in `eps_list`, then
    "[matching] pm conjugation".  Each matching builds its eps' = +1 and -1
    packages once and shares them between the conjugation check and one
    verify_n22 batch over the packages of `eps_list`; `on_package(pkg)` is
    called on every package that gets verified."""
    for eps in eps_list:
        if eps not in (1, -1):
            raise ValueError(f"eps' must be +1 or -1, got {eps!r}")
    tol = resolve_tol(tol)
    rep = build_gamma(theta.n) if rep is None else rep
    grid = VerificationReport(tol=tol)
    for matching in matchings:
        pkgs = {eps: build_kahler_package(theta, matching, eps, rep=rep)
                for eps in (1, -1)}
        pm = verify_pm_conjugation(pkgs[1], pkgs[-1])
        if on_package is not None:
            for eps in eps_list:
                on_package(pkgs[eps])
        label = str(matching)
        for eps, rp in zip(eps_list, verify_n22([pkgs[eps] for eps in eps_list], tol=tol)):
            for c in rp.checks:
                grid.add(f"[{label}|eps'={eps:+d}] {c.name}", c.residual, c.tol)
        grid.add(f"[{label}] pm conjugation", pm, 1e-12)
    return grid


def verify_distinctness(theta, two_k, threshold=0.1, rep=None):
    """True iff the d2 operators of all matchings are pairwise well-separated."""
    rep = build_gamma(two_k) if rep is None else rep
    ops = [build_kahler_package(theta, mt, eps_prime=1, rep=rep).d2
           for mt in enumerate_matchings(two_k)]
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if (ops[i] - ops[j]).residual_norm() <= threshold:
                return False
    return True
