"""Dirac operators, complex structures indexed by perfect matchings, and the
full N=(2,2) verification checklist on the noncommutative even torus.

All operators act on A_Theta tensor C^{N^2} (fiber ordering: first tensor leg
then second, as np.kron orders them), except build_dirac's D on C^N, which no
package holds.  The builders write every fiber matrix as Pauli words: they
read the words of the gammas and sigma off the GammaRep, and a kron of two
legs concatenates their masks (word_kron): no N^2 x N^2 matrix is formed.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, groupby

import numpy as np

from .clifford import build_gamma
from .ncdiff import NCDiffOp
from .pauli import dense_stack, max_entry, parity, word_kron, word_product, word_sum
from .report import Check, VerificationReport, resolve_tol
from .torus import TWO_PI_I, DimensionMismatch, TorusElement, kept


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


MAX_MATCHINGS = 10**6  # n = 14 has 135 135 perfect matchings, n = 16 has 2 027 025


def enumerate_matchings(two_k):
    """All perfect matchings of {1..2k}: smallest unmatched element first,
    partner ascending.  Count is (2k-1)!! = (2k-1)(2k-3)...1; a count over
    MAX_MATCHINGS raises MatchingError before any matching is built."""
    if two_k % 2 != 0 or two_k < 2:
        raise MatchingError(f"need an even set size >= 2, got {two_k}")
    count = 1
    for f in range(3, two_k, 2):
        if (count := count * f) > MAX_MATCHINGS:
            raise MatchingError(f"1..{two_k} has {two_k - 1}!! >= {count} perfect matchings, "
                                f"over the limit MAX_MATCHINGS = {MAX_MATCHINGS}")
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


def lifted_words(rep):
    """Per coordinate j, the C^{N^2} fiber words of DD and of DDbar / (-eps'):
    kron(1, gamma_j) and kron(gamma_j, sigma), each leg on q = n/2 qubits."""
    q = rep.n // 2
    return [(word_kron(_ONE, g, q), word_kron(g, rep.sigma_words, q)) for g in rep.gamma_words]


def _unit(n, j):
    """The multi-index of del_j, 1 <= j <= n."""
    return tuple(int(i == j - 1) for i in range(n))


def _lap_words(n):
    """sum_j del_j^2, so that DD^2 = -sum del_r^2 reads DD^2 + lap = 0."""
    return {tuple(2 * a for a in _unit(n, j)): _ONE for j in range(1, n + 1)}


def build_dirac(rep, theta):
    """D = sum_j del_j tensor gamma_j on the C^N fiber."""
    if rep.n != theta.n:
        raise DimensionMismatch(f"rep n={rep.n} vs theta n={theta.n}")
    return NCDiffOp.from_words(theta, rep.N, {_unit(rep.n, j): g
                                              for j, g in enumerate(rep.gamma_words, 1)})


# What build_base builds; lifted[eps'] = (DDbar, d, d*, T_script) per eps'.
KahlerBase = namedtuple("KahlerBase",
                        "rep theta DD gamma_tilde hodge_star W lap mas lifted")

# The mult(a) samples of the checklist: sum_j U_j, then draws of
# TorusElement.random(radius=1, terms=3).
SAMPLES = 3


def build_base(theta, eps_list=(1, -1)):
    """The operators of the packages over theta that no matching enters, all
    on the C^{N^2} fiber of rep = build_gamma(theta.n): per eps' of eps_list,

        DD       = sum_j del_j tensor kron(1, gamma_j)
        DDbar    = -eps' sum_j del_j tensor kron(gamma_j, sigma)
        d, d*    = (DD -+ i DDbar) / 2
        T_script = sum_j (i eps'/2) kron(gamma_j, gamma_j sigma),

    which is bounded, self-adjoint, commutes with the algebra and has
    [T_script, d] = d; gamma_tilde = kron(sigma, sigma), hodge_star =
    kron(1, sigma), the pm intertwiner W = kron(sigma, 1), lap = sum_j
    del_j^2, and mas, the checklist's mult(a) of SAMPLES samples: sample 0
    is sum_j U_j, which checks every generator at once (see _run), and the
    others are draws from a fresh default_rng(7), whose first draw is
    discarded so that samples 1 and 2 stay as they were.  Every check reads
    these operators from here.  All but d and d* are one from_terms, and d,
    d* one sums."""
    eps_list = [check_eps(eps) for eps in eps_list]
    rep = build_gamma(theta.n)
    sigma, q, zero = rep.sigma_words, rep.n // 2, (0,) * theta.n
    units, legs = [_unit(theta.n, j) for j in range(1, theta.n + 1)], lifted_words(rep)
    ts = [word_kron(g, word_product(g, sigma), q) for g in rep.gamma_words]
    ops = [dict(zip(units, (a for a, _ in legs))), {zero: word_kron(sigma, sigma, q)},
           {zero: word_kron(_ONE, sigma, q)}, {zero: word_kron(sigma, _ONE, q)},
           _lap_words(theta.n)]
    for eps in eps_list:
        ops += [{u: word_sum((-eps, b)) for u, (_, b) in zip(units, legs)},
                {zero: word_sum(*((1j * eps / 2.0, w) for w in ts))}]
    rng = np.random.default_rng(7)
    draws = [TorusElement.random(theta, rng, radius=1, terms=3).coeffs for _ in range(SAMPLES)]
    draws[0] = dict.fromkeys(units, 1 + 0j)
    mas = [{zero: {k: {(0, 0): c} for k, c in a.items()}} for a in draws]
    DD, gt, star, W, lap, *ops = NCDiffOp.from_terms(
        theta, rep.N ** 2, [{a: {zero: w} for a, w in op.items()} for op in ops] + mas)
    ops, mas = ops[:2 * len(eps_list)], ops[2 * len(eps_list):]
    # 0.5 DD -+ 0.5i DDbar: exact factors, so these equal (DD -+ DDbar.scale(1j)).scale(0.5)
    ds = iter(NCDiffOp.sums([[(0.5, DD), (z, Dbar)] for Dbar in ops[::2] for z in (-0.5j, 0.5j)]))
    lifted = {eps: (DDbar, next(ds), next(ds), Ts)
              for eps, DDbar, Ts in zip(eps_list, ops[::2], ops[1::2])}
    return KahlerBase(rep, theta, DD, gt, star, W, lap, mas, lifted)


def _I_words(matching, rep):
    """The words of the complex-structure generator of one matching,

        I = (1/2) sum_{(l,j) in pairs} [kron(1, gamma_l gamma_j)
                                        + kron(gamma_l gamma_j, 1)]."""
    if matching.two_k != rep.n:
        raise MatchingError(f"matching covers 1..{matching.two_k}, rep has n={rep.n}")
    gammas, q, terms = rep.gamma_words, rep.n // 2, []
    for (l, j) in matching.pairs:
        gg = word_product(gammas[l - 1], gammas[j - 1])
        terms += [(0.5, word_kron(_ONE, gg, q)), (0.5, word_kron(gg, _ONE, q))]
    return word_sum(*terms)


@dataclass
class KahlerPackage:
    eps_prime: int
    matching: Matching
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
    base: KahlerBase


def _structures(base, matchings, eps_list):
    """(matching, I, eps', d2 = [I, d]) per (matching, eps') over base,
    matching-major: every I from one from_terms, every d2 from one products."""
    zero = (0,) * base.theta.n
    Is = NCDiffOp.from_terms(base.theta, base.rep.N ** 2, [
        {zero: {zero: _I_words(mt, base.rep)}} for mt in matchings])
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
    return [KahlerPackage(eps, mt, base.DD, *base.lifted[eps], I, d2,
                          *(next(out) for _ in range(4)), base.gamma_tilde, base.hodge_star, base)
            for mt, I, eps, d2 in rows]


def build_kahler_package(theta, matching=None, eps_prime=1):
    """Assemble every operator of the construction for one (Theta, matching,
    eps') choice: _packages over a build_base of that eps'."""
    base = build_base(theta, [eps_prime])
    return _packages(base, [enumerate_matchings(theta.n)[0] if matching is None else matching],
                     [eps_prime])[0]


# -- verification -----------------------------------------------------------


# A check: its name, its terms ((c, t), ...) for sum_i c_i t_i, and whether
# it reads the derivation degree (tol 0.5), not residual_norm.  A term t is an
# operand name or a product (P, Q, s) = PQ + s QP of two terms; an operand is
# a package field, "lap" (sum_j del_j^2), "a" (a sample's mult(a)) or "X*",
# X's adjoint ("d*" is d's adjoint, "d_star" the field).  A run of rows that
# names "a" repeats per sample, sample-major; one product with c = 1 is no sum.
Row = namedtuple("Row", "name terms degree", defaults=(False,))

CHECKLIST = (
    Row("del^2 = 0", ((1, ("del_hol", "del_hol", 0)),)),
    Row("delbar^2 = 0", ((1, ("del_bar", "del_bar", 0)),)),
    Row("{del, delbar} = 0", ((1, ("del_hol", "del_bar", 1)),)),
    Row("[T, Tbar] = 0", ((1, ("T", "T_bar", -1)),)),
    Row("[T, del] = del", ((1, ("T", "del_hol", -1)), (-1, "del_hol"))),
    Row("[T, delbar] = 0", ((1, ("T", "del_bar", -1)),)),
    Row("[Tbar, del] = 0", ((1, ("T_bar", "del_hol", -1)),)),
    Row("[Tbar, delbar] = delbar", ((1, ("T_bar", "del_bar", -1)), (-1, "del_bar"))),
    Row("[T, a] = 0", ((1, ("T", "a", -1)),)),
    Row("[Tbar, a] = 0", ((1, ("T_bar", "a", -1)),)),
    # "bounded" commutators = derivation degree 0 in normal form; a degree is
    # an integer, so these pass below 0.5 whatever the run's tol
    Row("[del, a] degree-0", ((1, ("del_hol", "a", -1)),), True),
    Row("[delbar, a] degree-0", ((1, ("del_bar", "a", -1)),), True),
    Row("{del, [delbar, a]} degree-0", ((1, ("del_hol", ("del_bar", "a", -1), 1)),), True),
    Row("{gamma_tilde, del} = 0", ((1, ("gamma_tilde", "del_hol", 1)),)),
    Row("{gamma_tilde, delbar} = 0", ((1, ("gamma_tilde", "del_bar", 1)),)),
    Row("[gamma_tilde, T] = 0", ((1, ("gamma_tilde", "T", -1)),)),
    Row("[gamma_tilde, Tbar] = 0", ((1, ("gamma_tilde", "T_bar", -1)),)),
    # Hodge relations with zeta = -1
    Row("star del = -delbar* star",
        ((1, ("hodge_star", "del_hol", 0)), (1, ("del_bar*", "hodge_star", 0)))),
    Row("star delbar = -del* star",
        ((1, ("hodge_star", "del_bar", 0)), (1, ("del_hol*", "hodge_star", 0)))),
    Row("{del, delbar*} = 0", ((1, ("del_hol", "del_bar*", 1)),)),
    Row("{delbar, del*} = 0", ((1, ("del_bar", "del_hol*", 1)),)),
    Row("{del, del*} = {delbar, delbar*}",
        ((1, ("del_hol", "del_hol*", 1)), (-1, ("del_bar", "del_bar*", 1)))),
    # structural consistency of the package
    Row("d = del + delbar", ((1, "del_hol"), (1, "del_bar"), (-1, "d"))),
    Row("d + d* = DD", ((1, "d"), (1, "d_star"), (-1, "DD"))),
    Row("T_script = T + Tbar", ((1, "T"), (1, "T_bar"), (-1, "T_script"))),
    Row("d* = (DD + i DDbar)/2", ((1, "d*"), (-1, "d_star"))),
    # Laplacian equalities; 2{delbar, delbar*} is exact, so the -2.0 scales it exactly
    Row("{d, d*} = {d2, d2*}", ((1, ("d", "d_star", 1)), (-1, ("d2", "d2*", 1)))),
    Row("{d, d*} = 2{delbar, delbar*}",
        ((1, ("d", "d_star", 1)), (-2.0, ("del_bar", "del_bar*", 1)))),
    # the core chain: the operator identities the construction rests on
    Row("DD^2 = -sum del_r^2", ((1, ("DD", "DD", 0)), (1, "lap"))),
    Row("DDbar^2 = -sum del_r^2", ((1, ("DDbar", "DDbar", 0)), (1, "lap"))),
    Row("{DD, DDbar} = 0", ((1, ("DD", "DDbar", 1)),)),
    Row("d^2 = 0", ((1, ("d", "d", 0)),)),
    Row("[T_script, d] = d", ((1, ("T_script", "d", -1)), (-1, "d"))),
    Row("[I, T_script] = 0", ((1, ("I_op", "T_script", -1)),)),
    Row("[I, gamma_tilde] = 0", ((1, ("I_op", "gamma_tilde", -1)),)),
    Row("[I, star] = 0", ((1, ("I_op", "hodge_star", -1)),)),
    # build_kahler_package defines d2 = [I, d]
    Row("[I, [I, d]] = -d", ((1, ("I_op", "d2", -1)), (1, "d"))),
    Row("{d, d2*} = 0", ((1, ("d", "d2*", 1)),)),
    Row("{d*, d2} = 0", ((1, ("d_star", "d2", 1)),)),
)

# The pm conjugation by W = kron(sigma, 1), over the del and delbar of the
# eps' = +1 package (del+, delbar+) and of the eps' = -1 one (del-, delbar-).
PM = (
    Row("W del_+ = del_- W", ((1, ("W", "del+", 0)), (-1, ("del-", "W", 0)))),
    Row("W delbar_+ = delbar_- W", ((1, ("W", "delbar+", 0)), (-1, ("delbar-", "W", 0)))),
)

# A compiled table: one slot per distinct operand, adjoint, product and sum
# of its rows.  leaves are (slot, name, sample or None), adjoints (slot, slot
# of X), levels the products per nesting depth, (slot, P slot, Q slot, s),
# sums (slot, ((c, slot), ...)), checks (name, slot, degree) and pinned the
# slots of the leaves other than "a" of the rows that name "a".
Plan = namedtuple("Plan", "leaves adjoints levels sums checks pinned")


@lru_cache(maxsize=8)
def _plan(table, samples):
    """The Plan of `table` with `samples` samples."""
    plan, slot, depth, pinned = Plan([], [], [], [], [], []), {}, {}, set()

    def names(t):
        return [t.rstrip("*")] if isinstance(t, str) else names(t[0]) + names(t[1])

    def file(key, steps, *step):
        """key's slot, allotted and filed in steps on first sight."""
        if key not in slot:
            slot[key] = len(slot)
            steps.append((slot[key], *step))
        return slot[key]

    def visit(t, s):
        """The slot of term t in sample s, after its operands'."""
        if isinstance(t, str):
            s = s if t.rstrip("*") == "a" else None
            if t.endswith("*"):
                return file((t, s), plan.adjoints, visit(t[:-1], s))
            return file((t, s), plan.leaves, t, s)
        P, Q = visit(t[0], s), visit(t[1], s)
        d = max(depth.get(P, 0), depth.get(Q, 0))
        if d == len(plan.levels):
            plan.levels.append([])
        i = file((P, Q, t[2]), plan.levels[d], P, Q, t[2])
        depth[i] = d + 1
        return i

    for sampled, run in groupby(table, lambda row: any("a" in names(t) for _, t in row.terms)):
        run = list(run)
        if sampled:
            pinned.update(x for row in run for _, t in row.terms for x in names(t) if x != "a")
        for s in range(samples) if sampled else [None]:
            for name, terms, degree in run:
                terms = tuple((c, visit(t, s)) for c, t in terms)
                one = len(terms) == 1 and terms[0][0] == 1
                plan.checks.append((name if s is None else f"{name} (sample {s})",
                                    terms[0][1] if one else file(terms, plan.sums, terms), degree))
    plan.pinned.extend(i for i, name, _ in plan.leaves if name in pinned)
    return plan


def _run(jobs, tol):
    """The report at tol of each (plan, operands) of jobs, from one adjoints
    pass, one products pass per nesting depth and one sums pass over every
    job; a pass with nothing to do is skipped.  operands maps an operand name
    to its operator ("a" to the list of samples).  A check's residual is the
    residual_norm of its operator, or for a degree check its max_degree, at
    tol 0.5.  Each (P, Q, s) of a job runs once, in its plan's one slot; no
    product is shared between jobs.

    Sample 0 is sum_j U_j.  a -> [X, a] is a derivation, so the a that pass
    a row [X, a] = 0 (or of degree 0) form a unital subalgebra, closed under
    inverses by [X, a^-1] = -a^-1 [X, a] a^-1: a row that holds on U_1 ...
    U_n holds on A.  With every other operand of the row at mode 0, the
    terms of distinct U_j land at distinct modes e_j, so none cancel, and the
    one sample checks each generator.  This raises RuntimeError unless every
    pinned leaf is at mode 0."""
    pairs = [(plan, {i: ops[name] if s is None else ops[name][s] for i, name, s in plan.leaves})
             for plan, ops in jobs]
    if any(v[i].mode.any() for plan, v in pairs for i in plan.pinned):
        raise RuntimeError("an operand of a sampled row is not at mode 0")

    def grow(run, steps):
        """v[i] = the result of job, for each (v, i, job) of steps, from one run."""
        for (v, i, _), op in zip(steps, run([job for *_, job in steps]) if steps else ()):
            v[i] = op

    grow(NCDiffOp.adjoints, [(v, i, v[j]) for plan, v in pairs for i, j in plan.adjoints])
    for d in range(max((len(plan.levels) for plan, _ in pairs), default=0)):
        grow(NCDiffOp.products, [(v, i, (v[p], v[q], s)) for plan, v in pairs
                                 for i, p, q, s in chain(*plan.levels[d:d + 1])])
    grow(NCDiffOp.sums, [(v, i, [(c, v[j]) for c, j in terms])
                         for plan, v in pairs for i, terms in plan.sums])
    return [VerificationReport(tol, [Check(name, float(v[i].max_degree()), 0.5) if degree else
                                     Check(name, v[i].residual_norm(), tol)
                                     for name, i, degree in plan.checks]) for plan, v in pairs]


def _operands(pkg):
    """A package's operands: its fields, and the Laplacian and samples of its base."""
    return vars(pkg) | {"lap": pkg.base.lap, "a": pkg.base.mas}


def verify_n22(pkg, tol=None):
    """Full N=(2,2) axiom checklist, the CHECKLIST rows over the SAMPLES
    samples of the package's base, for one package as a report; for a list
    of packages, their reports from one _run.  Every operand comes from the
    package and its base: nothing is built here."""
    pkgs = [pkg] if isinstance(pkg, KahlerPackage) else list(pkg)
    reports = _run([(_plan(CHECKLIST, SAMPLES), _operands(q)) for q in pkgs], resolve_tol(tol))
    for q, rp in zip(pkgs, reports):
        rp.meta = {"n": q.base.theta.n, "matching": str(q.matching), "eps_prime": q.eps_prime}
    return reports[0] if isinstance(pkg, KahlerPackage) else reports


def _mul(M, b):
    """M @ b for (.., N, N) stacks, the complex products spelled out in real
    arithmetic."""
    return (M.real @ b.real - M.imag @ b.imag) + 1j * (M.real @ b.imag + M.imag @ b.real)


def verify_real_structure(theta, rep=None, variant="plus", tol=None):
    """The real-structure conditions for J = (a -> a*) tensor J_N on the C^N
    fiber, checked exactly on the generators U_1 ... U_n: J D = eps' D J on
    the basis vectors e_i U^k of the n modes k = e_1 ... e_n, and the zero-
    and first-order conditions [JaJ*, b] = [JaJ*, [D, b]] = 0 on the n^2
    pairs (a, b) = (U_i, U_j).

    Why the generators suffice: on U^k tensor v the J D defect is
    -2 pi i mu(k) U^-k tensor sum_j k_j (C conj(gamma_j) - eps' gamma_j C) conj(v),
    linear in k times a unit phase, so it vanishes for every k iff it does at
    the e_j.  a -> J a J* is multiplicative and commutants are subalgebras
    (holding the inverses of their units), so the zero-order condition on
    generator pairs gives it for all a, b.  Given that, [D, .] is a
    derivation, so the b with [JaJ*, [D, b]] = 0 form a subalgebra for
    fixed a, and so do the a for fixed b.  Continuity extends both to A^inf.

    Every operand is one (N, N) block at one mode, so the modes and pairs run
    as (count, N, N) stacks with their phases from ThetaMatrix.phases tables,
    and C and the gammas are one dense stack of the rep's words.
    D = sum_j del_j tensor gamma_j acts on b U^K as sum_j gamma_j (2 pi i K_j)
    b U^K, so at a unit mode e_k only gamma_k acts: D on the identity at e_k,
    and [D, U_k] = 2 pi i gamma_k U_k, are the block 2 pi i gamma_k.  Every
    block acted on is a phase times a monomial matrix (I, C, or C conj(C) =
    eps I), so each entry of M b is a single product, and real matmuls give
    the word-by-word action's bits.  A row's residual is the largest entry of
    its difference blocks, all three rows from one max_entry pass; as
    TorusMatrix prunes, a block whose largest entry kept rejects counts as
    0."""
    tol = resolve_tol(tol)
    rep = build_gamma(theta.n) if rep is None else rep
    if rep.n != theta.n:
        raise DimensionMismatch(f"rep n={rep.n} vs theta n={theta.n}")
    rp = VerificationReport(tol=tol)
    rp.meta = {"n": theta.n, "variant": variant}
    dense = dense_stack([rep.conj_words(variant), *rep.gamma_words], rep.N)
    C, gammas = dense[0], dense[1:]
    eps, eps_p, _ = rep.signs(variant)
    n, eye = theta.n, np.eye(rep.N, dtype=complex)
    Ce, E = C @ eye.conj(), np.eye(n, dtype=np.int64)

    # pair (i, j) is row i * n + j; lam[i, j] = lambda(e_i, -e_j), so lam.T holds lambda(e_j, -e_i)
    i, j = np.divmod(np.arange(n * n), n)
    mu, lam = theta.star_phases(E)[:, None, None], theta.phases(E[:, None], -E)
    sab = eps * theta.star_phases(E[i] - E[j])
    pab, pba, sab = (p.reshape(-1, 1, 1) for p in (lam, lam.T, sab))

    # D keeps the block of mode k at k, and J moves it to -k: J(b U^k) = mu(k) C conj(b) U^-k.
    # At k = e_k, Jb holds J(eye U^k) and J(D eye U^k) = J(G_k U^k)
    G = TWO_PI_I * gammas + 0.0  # + 0.0: +0.0 where gamma_k is 0, as in D's kernel blocks
    Jb = np.stack([mu * Ce, mu * (C @ G.conj())])
    jd = Jb[1] - eps_p * _mul(gammas, -TWO_PI_I * Jb[0])
    # J a J* (b U^e_j) per pair for b = eye and b = [D, U_j] . eye = G_j, from J(b U^e_j):
    # U^e_i b U^k = lambda(e_i, k) b U^(e_i + k), and J^-1 = eps J (eps is in sab)
    jajs = sab * (C @ (pab * Jb[:, j]).conj())
    # J a J*(identity) at -e_i: J(1) = C, and a C is the block C at e_i; G_j lands it at e_j - e_i
    ja = eps * (mu[i] * (C @ C.conj()))
    d = np.concatenate([jd, (jajs - pba * np.stack([ja, _mul(G[j], ja)])).reshape(-1, *Ce.shape)])
    # TorusMatrix's prune-then-norm per mode or pair: the operands, phases times unitary,
    # D or [D, b] blocks, are always kept, so only a difference block is pruned
    h = max_entry(d, axis=(1, 2))
    h = np.where(kept(h), h, 0.0)
    rp.add("J D = eps' D J", float(h[:n].max()))
    rp.add("[J a J*, b] = 0", float(h[n:n + n * n].max()))
    rp.add("[J a J*, [D, b]] = 0", float(h[n + n * n:].max()))
    return rp


def _pm_operands(plus, minus):
    return {"W": plus.base.W, "del+": plus.del_hol, "delbar+": plus.del_bar,
            "del-": minus.del_hol, "delbar-": minus.del_bar}


def verify_pm_conjugation(plus, minus):
    """Residual of W del_+ = del_- W and the delbar analogue (the PM rows) for
    the W = kron(sigma, 1) of plus's base, conjugating the eps' = +1 package
    into eps' = -1."""
    return _run([(_plan(PM, 0), _pm_operands(plus, minus))], 1e-12)[0].max_residual


def _w_signs(W, op):
    """Per word X^x Z^z of op, the sign s of W X^x Z^z W^-1 = s X^x Z^z for
    W's one word X^x_W Z^z_W: (-1)^(|x & z_W| + |z & x_W|)."""
    par = parity(op.m)
    return 1 - 2 * (par[op.x & W.z[0]] ^ par[op.z & W.x[0]])


def _w_fixed(W, *ops):
    """Whether conjugating by W fixes every word of every op."""
    return all((_w_signs(W, op) == 1).all() for op in ops)


def _w_twins(base):
    """Whether conjugating by base.W, one word at mode 0 with no derivative
    (so it fixes itself), fixes DD, gamma_tilde, star, lap and the samples
    word by word, and maps each operator of lifted[1] onto its lifted[-1]
    twin: the same blocks and words, the coefficients negated exactly where
    the sign is -1."""
    W = base.W
    if len(W.c) != 1 or W.table[:-2].any():
        return False
    return _w_fixed(W, base.DD, base.gamma_tilde, base.hodge_star, base.lap, *base.mas) and all(
        all(np.array_equal(getattr(P, f), getattr(Q, f)) for f in ("table", "x", "z"))
        and np.array_equal(Q.c, P.c * _w_signs(W, P))
        for P, Q in zip(base.lifted[1], base.lifted[-1]))


def verify_grid(theta, matchings, eps_list=(1, -1), tol=None, on_package=None):
    """The N=(2,2) checklist over every (matching, eps') of the grid, as one
    report: "[matching|eps'=+-1] <check>" per CHECKLIST check and eps' of
    `eps_list`, then "[matching] pm conjugation", the larger PM residual.
    One build_base serves the grid: its operators, over the rep
    build_gamma(theta.n), and its SAMPLES samples.
    Per matching, seven kernel passes build its eps' = +1 and -1 packages
    (_packages) and run the tables on them (one _run); `on_package(pkg)` is
    called on every package of eps_list.

    The eps' = -1 rows are derived: they are the +1 rows, and only the +1
    checklist runs, when an exact word-by-word check shows that the -1
    package is the W-conjugate of the +1 one (_w_twins once per grid, and a
    W-invariant I per matching; both packages share the matching's I).
    Conjugating by the one word W multiplies each word by a sign, so
    products, adjoints and sums commute with it word for word, and each
    dense block of a conjugate is a signed permutation of the same sums:
    every residual and degree equals its +1 twin bit for bit.  Where the
    check fails, the -1 checklist runs in the same _run.  The PM rows are
    always computed, as an independent cross-check."""
    eps_list = [check_eps(eps) for eps in eps_list]
    grid = VerificationReport(tol=resolve_tol(tol))
    base = build_base(theta)
    checklist, pm_plan = _plan(CHECKLIST, SAMPLES), _plan(PM, 0)
    twins = _w_twins(base)
    for matching in matchings:
        pkgs = dict(zip((1, -1), _packages(base, [matching], (1, -1))))
        if on_package is not None:
            for eps in eps_list:
                on_package(pkgs[eps])
        label = str(matching)
        derived = twins and _w_fixed(base.W, pkgs[1].I_op)
        run = list(dict.fromkeys(1 if derived else eps for eps in eps_list))
        *reports, pm = _run(
            [(checklist, _operands(pkgs[eps])) for eps in run]
            + [(pm_plan, _pm_operands(pkgs[1], pkgs[-1]))], grid.tol)
        reports = dict(zip(run, reports))
        for eps in eps_list:
            for c in reports[1 if derived else eps].checks:
                grid.add(f"[{label}|eps'={eps:+d}] {c.name}", c.residual, c.tol)
        grid.add(f"[{label}] pm conjugation", pm.max_residual, 1e-12)
    return grid


def verify_distinctness(theta):
    """True iff the d2 operators (eps' = +1) of all matchings of 1..theta.n
    are pairwise more than 0.1 apart (residual_norm of the difference);
    every d2 from one base (_structures)."""
    base = build_base(theta, [1])
    ops = [d2 for *_, d2 in _structures(base, enumerate_matchings(theta.n), [1])]
    return all((P - Q).residual_norm() > 0.1 for P, Q in combinations(ops, 2))
