"""Dirac operators, complex structures indexed by perfect matchings, and the
full N=(2,2) verification checklist on the noncommutative even torus.

All operators act on A_Theta tensor C^{N^2} (fiber ordering: first tensor leg
then second, as np.kron orders them), except the base Dirac operator which
lives on C^N.  The builders write every fiber matrix as Pauli words: the
words of the N x N gammas and sigma come from one Pauli transform each per
base (fiber_words, kept in KahlerBase.words), and a kron of two legs
concatenates their masks (word_kron): no N^2 x N^2 matrix is formed.
"""

from __future__ import annotations

from collections import namedtuple
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


def check_eps(eps_prime):
    """eps', once checked to be +1 or -1: every entry that takes eps' calls this."""
    if eps_prime not in (1, -1):
        raise ValueError(f"eps' must be +1 or -1, got {eps_prime!r}")
    return eps_prime


def fiber_words(rep):
    """The Pauli words of each gamma_j and of sigma, and the qubit count q of
    the C^N fiber (N = 2^q); a KahlerBase shares one call's words."""
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


def _lap_words(n):
    """sum_j del_j^2, so that DD^2 = -sum del_r^2 reads DD^2 + lap = 0."""
    return {tuple(2 * a for a in _unit(n, j)): _ONE for j in range(1, n + 1)}


def build_dirac(rep, theta, words=None):
    """D = sum_j del_j tensor gamma_j on the C^N fiber."""
    if rep.n != theta.n:
        raise DimensionMismatch(f"rep n={rep.n} vs theta n={theta.n}")
    gammas = words[0] if words else [pauli_words(g) for g in rep.gammas]
    return NCDiffOp.from_words(theta, rep.N, {_unit(rep.n, j): g
                                              for j, g in enumerate(gammas, 1)})


# What build_base builds; lifted[eps'] = (DDbar, d, d*, T_script) per eps'.
KahlerBase = namedtuple("KahlerBase",
                        "rep theta words D DD gamma_tilde hodge_star W lap mas lifted")


def build_base(theta, rep=None, eps_list=(1, -1), samples=0):
    """The operators of the packages over (theta, rep) that no matching
    enters: D, and on the C^{N^2} fiber, per eps' of eps_list,

        DD       = sum_j del_j tensor kron(1, gamma_j)
        DDbar    = -eps' sum_j del_j tensor kron(gamma_j, sigma)
        d, d*    = (DD -+ i DDbar) / 2
        T_script = sum_j (i eps'/2) kron(gamma_j, gamma_j sigma),

    which is bounded, self-adjoint, commutes with the algebra and has
    [T_script, d] = d; gamma_tilde = kron(sigma, sigma), hodge_star =
    kron(1, sigma), the pm intertwiner W = kron(sigma, 1), lap = sum_j
    del_j^2, and the mult(a) of `samples` draws from a fresh default_rng(7),
    as verify_n22 draws them.  D is one from_terms, all but d and d* a
    second, and d, d* one sums."""
    eps_list = [check_eps(eps) for eps in eps_list]
    rep = build_gamma(theta.n) if rep is None else rep
    words = fiber_words(rep)
    D = build_dirac(rep, theta, words)
    (gammas, sigma, q), zero = words, (0,) * theta.n
    units, legs = [_unit(theta.n, j) for j in range(1, theta.n + 1)], lifted_words(words)
    ts = [word_kron(g, word_product(g, sigma), q) for g in gammas]
    ops = [dict(zip(units, (a for a, _ in legs))), {zero: word_kron(sigma, sigma, q)},
           {zero: word_kron(_ONE, sigma, q)}, {zero: word_kron(sigma, _ONE, q)},
           _lap_words(theta.n)]
    for eps in eps_list:
        ops += [{u: word_sum((-eps, b)) for u, (_, b) in zip(units, legs)},
                {zero: word_sum(*((1j * eps / 2.0, w) for w in ts))}]
    rng = np.random.default_rng(7)
    mas = [{zero: {k: {(0, 0): c} for k, c in a.coeffs.items()}}
           for a in (TorusElement.random(theta, rng, radius=1, terms=3) for _ in range(samples))]
    DD, gt, star, W, lap, *ops = NCDiffOp.from_terms(
        theta, rep.N ** 2, [{a: {zero: w} for a, w in op.items()} for op in ops] + mas)
    ops, mas = ops[:2 * len(eps_list)], ops[2 * len(eps_list):]
    # 0.5 DD -+ 0.5i DDbar: exact factors, so these equal (DD -+ DDbar.scale(1j)).scale(0.5)
    ds = iter(NCDiffOp.sums([[(0.5, DD), (z, Dbar)] for Dbar in ops[::2] for z in (-0.5j, 0.5j)]))
    lifted = {eps: (DDbar, next(ds), next(ds), Ts)
              for eps, DDbar, Ts in zip(eps_list, ops[::2], ops[1::2])}
    return KahlerBase(rep, theta, words, D, DD, gt, star, W, lap, mas, lifted)


def build_lifted(rep, theta, eps_prime=1):
    """The lifted pair and the differential it defines: (DD, DDbar, d, d*)
    of build_base."""
    base = build_base(theta, rep, [eps_prime])
    return (base.DD, *base.lifted[eps_prime][:3])


def build_T_script(rep, theta, eps_prime=1):
    """T_script of build_base."""
    return build_base(theta, rep, [eps_prime]).lifted[eps_prime][3]


def _I_words(matching, rep, words):
    if matching.two_k != rep.n:
        raise MatchingError(f"matching covers 1..{matching.two_k}, rep has n={rep.n}")
    gammas, _, q = words
    terms = []
    for (l, j) in matching.pairs:
        gg = word_product(gammas[l - 1], gammas[j - 1])
        terms += [(0.5, word_kron(_ONE, gg, q)), (0.5, word_kron(gg, _ONE, q))]
    return word_sum(*terms)


def build_I(matching, rep, theta):
    """Complex-structure generator for one matching:

        I = (1/2) sum_{(l,j) in pairs} [kron(1, gamma_l gamma_j)
                                        + kron(gamma_l gamma_j, 1)].
    """
    return _constant(theta, rep.N ** 2, _I_words(matching, rep, fiber_words(rep)))


def build_gamma_tilde(rep, theta):
    """kron(sigma, sigma)."""
    sigma = pauli_words(rep.sigma)
    return _constant(theta, rep.N ** 2, word_kron(sigma, sigma, rep.N.bit_length() - 1))


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


def _structures(base, matchings, eps_list):
    """(matching, I, eps', d2 = [I, d]) per (matching, eps') over base,
    matching-major: every I from one from_terms, every d2 from one products."""
    zero = (0,) * base.theta.n
    Is = NCDiffOp.from_terms(base.theta, base.rep.N ** 2, [
        {zero: {zero: _I_words(mt, base.rep, base.words)}} for mt in matchings])
    rows = [(mt, I, eps) for mt, I in zip(matchings, Is) for eps in eps_list]
    return [(*row, d2) for row, d2 in zip(rows, NCDiffOp.products(
        [(I, base.lifted[eps][1], -1) for _, I, eps in rows]))]


def _packages(base, matchings, eps_list):
    """The KahlerPackage of each row of _structures, its del = (d - i d2)/2,
    delbar = (d + i d2)/2, T = (T_script - i I)/2 and Tbar = (T_script + i I)/2
    from one sums."""
    rows = _structures(base, matchings, eps_list)
    out = iter(NCDiffOp.sums([[(0.5, P), (z, Q)] for _, I, eps, d2 in rows for P, Q in (
        (base.lifted[eps][1], d2), (base.lifted[eps][3], I)) for z in (-0.5j, 0.5j)]))
    return [KahlerPackage(base.rep, base.theta, eps, mt, base.D, base.DD, *base.lifted[eps], I, d2,
                          *(next(out) for _ in range(4)), base.gamma_tilde, base.hodge_star)
            for mt, I, eps, d2 in rows]


def build_kahler_package(theta, matching=None, eps_prime=1, rep=None):
    """Assemble every operator of the construction for one (Theta, matching,
    eps') choice: _packages over a build_base of that eps'."""
    base = build_base(theta, rep, [eps_prime])
    return _packages(base, [enumerate_matchings(theta.n)[0] if matching is None else matching],
                     [eps_prime])[0]


# -- verification -----------------------------------------------------------


def _batch(run, named, known=None):
    """run (NCDiffOp.products or sums) once over the jobs of every dict of
    `named`, [{name: job}]; the results as [{name: result}].  `known` maps
    (id(P), id(Q), s) of product jobs whose P and Q outlive it to their
    result, None until a call that meets the job has run it."""
    known = {} if known is None else known
    flat = [job for jobs in named for job in jobs.values()]
    keys = [(id(job[0]), id(job[1]), job[2]) if isinstance(job, tuple) else None for job in flat]
    out = iter(run([job for job, key in zip(flat, keys) if known.get(key) is None]))
    got = [next(out) if known.get(key) is None else known[key] for key in keys]
    known.update((key, op) for key, op in zip(keys, got) if key in known)
    got = iter(got)
    return [{name: next(got) for name in jobs} for jobs in named]


def _lifted_jobs(DD, DDbar, d, d_star, Ts):
    """The checklist's products that no matching enters, by name:
    verify_grid runs them once per base."""
    return {"DD^2": (DD, DD, 0), "DDbar^2": (DDbar, DDbar, 0), "{DD,DDbar}": (DD, DDbar, 1),
            "d^2": (d, d, 0), "[Ts,d]": (Ts, d, -1), "{d,d*}": (d, d_star, 1)}


def _core_chain_jobs(pkg, d2s):
    """The products verify_core_chain checks, by name; d2s is d2*."""
    I_op, d2 = pkg.I_op, pkg.d2
    return {**_lifted_jobs(pkg.DD, pkg.DDbar, pkg.d, pkg.d_star, pkg.T_script),
            "[I,Ts]": (I_op, pkg.T_script, -1), "[I,gt]": (I_op, pkg.gamma_tilde, -1),
            "[I,star]": (I_op, pkg.hodge_star, -1), "[I,d2]": (I_op, d2, -1),
            "{d,d2*}": (pkg.d, d2s, 1), "{d*,d2}": (pkg.d_star, d2, 1)}


def _core_chain_sums(pkg, r, del2):
    """The differences verify_core_chain checks, by name, from the products r
    of _core_chain_jobs and del2, the Laplacian of _lap_words."""
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
    lap = NCDiffOp.from_words(pkg.theta, pkg.DD.m, _lap_words(pkg.theta.n))
    [s] = _batch(NCDiffOp.sums, [_core_chain_sums(pkg, r, lap)])
    _add_core_chain(rp, r, s)
    return rp


def _checklist_jobs(pkg, adj, mas):
    """The products of verify_n22 for one package, by name; adj holds the
    adjoints of del, delbar, d and d2, and mas the samples' mult(a)."""
    p, pb, T, Tb = pkg.del_hol, pkg.del_bar, pkg.T, pkg.T_bar
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
            "{d2,d2*}": (pkg.d2, d2s, 1), **_core_chain_jobs(pkg, d2s)}
    for s, ma in enumerate(mas):
        jobs |= {("[T,a]", s): (T, ma, -1), ("[Tbar,a]", s): (Tb, ma, -1),
                 ("[del,a]", s): (p, ma, -1), ("[delbar,a]", s): (pb, ma, -1)}
    return jobs


def _checklist_sums(pkg, adj, r, del2):
    """The checklist's differences (the core chain's too), by name; a
    three-term one sums its terms in the order + and - take."""
    p, pb, d, T, Tb = pkg.del_hol, pkg.del_bar, pkg.d, pkg.T, pkg.T_bar
    lap, lap_db = r["{d,d*}"], r["{delbar,delbar*}"]
    return {"[T,del]": [(1, r["[T,del]"]), (-1, p)],
            "[Tbar,delbar]": [(1, r["[Tbar,delbar]"]), (-1, pb)],
            "star del": [(1, r["star del"]), (1, r["delbar* star"])],
            "star delbar": [(1, r["star delbar"]), (1, r["del* star"])],
            "{del,del*}": [(1, r["{del,del*}"]), (-1, lap_db)],
            "d": [(1, p), (1, pb), (-1, d)], "DD": [(1, d), (1, pkg.d_star), (-1, pkg.DD)],
            "T_script": [(1, T), (1, Tb), (-1, pkg.T_script)],
            "d*": [(1, adj[2]), (-1, pkg.d_star)], "lap d2": [(1, lap), (-1, r["{d2,d2*}"])],
            # 2 lap_db is exact, so this is lap - lap_db.scale(2.0)
            "lap delbar": [(1, lap), (-2.0, lap_db)], **_core_chain_sums(pkg, r, del2)}


def _pm_jobs(W, plus, minus):
    """The products of verify_pm_conjugation, by name."""
    return {"W del": (W, plus.del_hol, 0), "del W": (minus.del_hol, W, 0),
            "W delbar": (W, plus.del_bar, 0), "delbar W": (minus.del_bar, W, 0)}


def _pm_sums(r):
    return {"del": [(1, r["W del"]), (-1, r["del W"])],
            "delbar": [(1, r["W delbar"]), (-1, r["delbar W"])]}


def _verify(pkgs, mas, laps, tol, known=None, pms=()):
    """verify_n22's reports of pkgs, with per package the samples' mult(a)
    mas and the Laplacian laps, and verify_pm_conjugation's residual of each
    (W, plus, minus) of pms, in four kernel passes: adjoints, every product
    whose operands exist (less those `known` holds, see _batch), {del,
    [delbar, a]} over the samples a, and every difference."""
    adj = NCDiffOp.adjoints([op for q in pkgs for op in (q.del_hol, q.del_bar, q.d, q.d2)])
    adj = [adj[i:i + 4] for i in range(0, len(adj), 4)]
    rs = _batch(NCDiffOp.products, [_checklist_jobs(*a) for a in zip(pkgs, adj, mas)]
                + [_pm_jobs(*pm) for pm in pms], known)
    rs, rpm = rs[:len(pkgs)], rs[len(pkgs):]
    nested = _batch(NCDiffOp.products, [
        {s: (q.del_hol, r["[delbar,a]", s], 1) for s in range(len(ma))}
        for q, r, ma in zip(pkgs, rs, mas)])
    difs = _batch(NCDiffOp.sums, [_checklist_sums(*a) for a in zip(pkgs, adj, rs, laps)]
                  + [_pm_sums(r) for r in rpm])
    return ([_checklist_report(*a, tol) for a in zip(pkgs, rs, nested, difs)],
            [max(op.residual_norm() for op in dif.values()) for dif in difs[len(pkgs):]])


def verify_n22(pkg, tol=None, rng=None, samples=3):
    """Full N=(2,2) axiom checklist for one package, as a report; for a list
    of packages, the list of their reports from one batch: after one
    adjoints pass, every product whose operands exist (the core chain's too)
    is one kernel pass, {del, [delbar, a]} over the samples a a second, and
    every difference one reduction.  Each package draws its samples from
    rng, or from a fresh default_rng(7) when rng is None, so a report does
    not depend on the batch it ran in; each draw's mult(a) is one from_terms,
    and each torus and fiber's Laplacian one more."""
    pkgs = [pkg] if isinstance(pkg, KahlerPackage) else list(pkg)
    laps = {(id(q.theta), q.DD.m): q for q in pkgs}
    laps = {ctx: NCDiffOp.from_words(q.theta, q.DD.m, _lap_words(q.theta.n))
            for ctx, q in laps.items()}
    mas, drawn = [], {}
    for q in pkgs:
        # fresh default_rng(7) draws repeat over one torus and fiber: build them once
        key = (id(q.theta), q.DD.m) if rng is None else len(mas)
        if key not in drawn:
            qrng = np.random.default_rng(7) if rng is None else rng
            elems = [TorusElement.random(q.theta, qrng, radius=1, terms=3) for _ in range(samples)]
            drawn[key] = NCDiffOp.mult(elems, q.DD.m) if elems else []
        mas.append(drawn[key])
    reports, _ = _verify(pkgs, mas, [laps[id(q.theta), q.DD.m] for q in pkgs],
                         resolve_tol(tol))
    return reports[0] if isinstance(pkg, KahlerPackage) else reports


def _checklist_report(pkg, r, nested, dif, tol):
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

    for s in nested:
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
    [r] = _batch(NCDiffOp.products, [_pm_jobs(W, plus, minus)])
    return max(op.residual_norm() for op in _batch(NCDiffOp.sums, [_pm_sums(r)])[0].values())


def verify_grid(theta, matchings, eps_list=(1, -1), rep=None, tol=None,
                on_package=None):
    """The N=(2,2) checklist over every (matching, eps') of the grid, as one
    report: "[matching|eps'=+-1] <check>" for each eps' in `eps_list`, then
    "[matching] pm conjugation".  One build_base serves the grid: its
    operators, its samples, and the checklist products no matching enters,
    run once, with the first matching's.  Per matching, seven kernel passes
    build its eps' = +1 and -1 packages (_packages) and check those of
    `eps_list` and the conjugation of one into the other (_verify);
    `on_package(pkg)` is called on every package that gets verified."""
    eps_list = [check_eps(eps) for eps in eps_list]
    tol = resolve_tol(tol)
    base = build_base(theta, rep, samples=3)
    known = {(id(P), id(Q), s): None for eps in (1, -1)
             for P, Q, s in _lifted_jobs(base.DD, *base.lifted[eps]).values()}
    grid = VerificationReport(tol=tol)
    for matching in matchings:
        pkgs = dict(zip((1, -1), _packages(base, [matching], (1, -1))))
        if on_package is not None:
            for eps in eps_list:
                on_package(pkgs[eps])
        label = str(matching)
        reports, [pm] = _verify([pkgs[eps] for eps in eps_list], [base.mas] * len(eps_list),
                                [base.lap] * len(eps_list), tol, known,
                                [(base.W, pkgs[1], pkgs[-1])])
        for eps, rp in zip(eps_list, reports):
            for c in rp.checks:
                grid.add(f"[{label}|eps'={eps:+d}] {c.name}", c.residual, c.tol)
        grid.add(f"[{label}] pm conjugation", pm, 1e-12)
    return grid


def verify_distinctness(theta, two_k, threshold=0.1, rep=None):
    """True iff the d2 operators (eps' = +1) of all matchings are pairwise
    well-separated; every d2 from one base (_structures)."""
    base = build_base(theta, build_gamma(two_k) if rep is None else rep, [1])
    ops = [d2 for *_, d2 in _structures(base, enumerate_matchings(two_k), [1])]
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if (ops[i] - ops[j]).residual_norm() <= threshold:
                return False
    return True
