"""Operator calculus: normal form, composition, adjoints, action soundness."""

import dataclasses
import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import groupby, product as iproduct
from operator import add, itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nckahler import clifford, kahler, ncdiff
from nckahler.cli import main
from nckahler.clifford import build_gamma
from nckahler.kahler import (
    build_kahler_package,
    enumerate_matchings,
    verify_grid,
    verify_n22,
)
from nckahler.ncdiff import NCDiffOp, _deriv_factor, _push_weights
from nckahler.pauli import dense_words, densify, pauli_words, word_product
from nckahler.torus import PRUNE_TOL, DimensionMismatch, ThetaMatrix, TorusElement, TorusMatrix

RNG = np.random.default_rng(100)
THETA = ThetaMatrix.random(2, RNG)
ZERO2 = (0, 0)


def inner_product(x, y):
    """<x, y> = sum_i tau(x_i* y_i): a vdot of the blocks of each common mode (Parseval)."""
    if x.shape != y.shape:
        raise DimensionMismatch(f"shapes {x.shape} and {y.shape} differ")
    return sum((np.vdot(b, y.blocks[k]) for k, b in x.blocks.items() if k in y.blocks), 0j)


def word_adjoint(words):
    """(sum_w c_w X^x Z^z)^dagger = sum_w conj(c_w) (-1)^{|x & z|} X^x Z^z."""
    return {(x, z): -c.conjugate() if (x & z).bit_count() & 1 else c.conjugate()
            for (x, z), c in words.items()}


def random_op(seed, m=2, max_degree=1):
    return NCDiffOp.random(THETA, m, np.random.default_rng(seed), max_degree=max_degree)


def clear_plans():
    """Empty the kernel's plan cache, where it keeps one: the next pass plans cold."""
    getattr(ncdiff, "_PLANS", {}).clear()


def plans(kind):
    """The keys of the cached plans of `kind` passes."""
    return [key for key in ncdiff._PLANS if key[0] == kind]


def count_builds(monkeypatch):
    """A Counter of the plans built per kind of pass from here on."""
    builds = Counter()
    for kind in ("products", "adjoints"):
        def counting(ops, shape, build=getattr(ncdiff, f"_{kind}_plan"), kind=kind):
            builds[kind] += 1
            return build(ops, shape)
        monkeypatch.setattr(ncdiff, f"_{kind}_plan", counting)
    return builds


def unit_column(theta, m, i, mode=None):
    """The column e_i . U^mode of A^m (mode 0 by default)."""
    col = np.zeros((m, 1), dtype=complex)
    col[i] = 1.0
    mode = (0,) * theta.n if mode is None else tuple(int(x) for x in mode)
    return TorusMatrix(theta, (m, 1), {mode: col})


def scalar_element(a, m):
    """a . Id_m for a torus element a."""
    return TorusMatrix(a.theta, (m, m), {k: c * np.eye(m) for k, c in a.coeffs.items()})


def basis_vectors(theta, m, radius):
    from itertools import product
    for mode in product(range(-radius, radius + 1), repeat=theta.n):
        for i in range(m):
            yield unit_column(theta, m, i, mode)


def derive_multi(v, delta):
    """del^delta on the TorusMatrix v: block k picks up (2 pi i k)^delta."""
    if all(d == 0 for d in delta):
        return v
    out = {}
    for k, b in v.blocks.items():
        f = _deriv_factor(k, delta)
        if f != 0:
            out[k] = f * b
    return TorusMatrix(v.theta, v.shape, out)


def loop_act(x, z, c, cols):
    """M @ b for each block b of the stack cols, M the sum of the words
    (x, z, c), one operator block at a time: entry r of a column is
    sum_g M[r, r ^ xs[g]] b[r ^ xs[g]] over the distinct x in order of first
    appearance, with the complex products spelled out in real arithmetic."""
    idx = np.arange(cols.shape[1])
    xs = idx ^ np.array(list(dict.fromkeys(x.tolist())), dtype=np.int64)[:, None]
    M, v = densify(x, z, c, len(idx))[idx, xs], cols[:, xs]
    er, ei = M.real[None, :, :, None], M.imag[None, :, :, None]
    pr, pi = er * v.real - ei * v.imag, er * v.imag + ei * v.real
    out = np.zeros(cols.shape, dtype=complex)
    for g in range(len(xs)):
        out.real += pr[:, g]
        out.imag += pi[:, g]
    return out


def loop_apply(P, v):
    """P v with one loop_act per (term, block) of P over every mode of v:
    NCDiffOp.apply's block loop, kept as its oracle bit for bit."""
    theta, out = P.theta, {}
    for alpha, blocks in groupby(P._table(), itemgetter(0)):
        dv = derive_multi(v, alpha)
        cols = np.array(list(dv.blocks.values())).reshape(-1, *v.shape)
        for _, k, s, e in blocks:
            for kp, act in zip(dv.blocks, loop_act(P.x[s:e], P.z[s:e], P.c[s:e], cols)):
                kk = tuple(x + y for x, y in zip(k, kp))
                term = theta.phase(k, kp) * act
                out[kk] = out[kk] + term if kk in out else term
    return TorusMatrix(theta, v.shape, out)


def assert_same_blocks(got, want):
    """Equal modes, in order, and equal blocks bit for bit (np.array_equal)."""
    assert list(got) == list(want)
    for k in want:
        assert np.array_equal(got[k], want[k]), k


class TestCompose:
    def test_leibniz_with_multiplication(self):
        # del_1 . mult_b = mult_{del_1 b} + mult_b . del_1
        b = TorusElement.random(THETA, np.random.default_rng(1))
        d1 = NCDiffOp.derivation(THETA, 1, 1)
        mb = NCDiffOp.mult(b, 1)
        lhs = d1.compose(mb)
        rhs = NCDiffOp.mult(b.derive(1), 1) + mb.compose(d1)
        assert (lhs - rhs).residual_norm() < 1e-12

    def test_constant_coefficient_product(self):
        # two constant-matrix degree-1 operators: pure degree-2, no correction
        A = np.array([[0, 1], [1, 0]], dtype=complex)
        B = np.array([[1, 0], [0, -1]], dtype=complex)
        P = NCDiffOp.derivation(THETA, 2, 1, mat=A)
        Q = NCDiffOp.derivation(THETA, 2, 2, mat=B)
        out = P.compose(Q)
        assert set(out.terms) == {(1, 1)}
        assert np.abs(out.terms[(1, 1)].dense().blocks[ZERO2] - A @ B).max() < 1e-15

    def test_action_oracle(self):
        for seed in range(10):
            P, Q = random_op(seed), random_op(seed + 50)
            v = TorusMatrix.random(THETA, (2, 1), np.random.default_rng(seed + 100))
            lhs = P.compose(Q).apply(v)
            rhs = P.apply(Q.apply(v))
            assert (lhs - rhs).norm() < 1e-9

    def test_ring_axioms(self):
        P, Q, R = random_op(1), random_op(2), random_op(3)
        assert (P.compose(Q.compose(R)) - P.compose(Q).compose(R)).residual_norm() < 1e-9
        assert ((P + Q).compose(R) - (P.compose(R) + Q.compose(R))).residual_norm() < 1e-9

    def test_jacobi_identity(self):
        P, Q, R = random_op(4), random_op(5), random_op(6)
        total = (P.commutator(Q.commutator(R))
                 + Q.commutator(R.commutator(P))
                 + R.commutator(P.commutator(Q)))
        assert total.residual_norm() < 1e-8

    def test_commutator_is_difference_of_products(self):
        for seed in range(10):
            P, Q = random_op(seed + 300, max_degree=2), random_op(seed + 400, max_degree=2)
            for got, want in ((P.commutator(Q), P.compose(Q) - Q.compose(P)),
                              (P.anticommutator(Q), P.compose(Q) + Q.compose(P))):
                scale = max(1.0, want.residual_norm())
                assert (got - want).residual_norm() <= 1e-12 * scale

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            NCDiffOp.identity(THETA, 2).compose(NCDiffOp.identity(THETA, 4))


class TestTorusMatrixNorm:
    def test_rounds_as_element_norm(self):
        # np.abs rounds |c| differently from Python's abs in about one value
        # in three on some numpy builds; np.hypot agrees with abs
        rng = np.random.default_rng(17)
        for v in (rng.normal(size=300) + 1j * rng.normal(size=300)).tolist():
            a = TorusElement.monomial(THETA, ZERO2, v)
            assert TorusMatrix.from_entries(THETA, [[a]]).norm() == a.norm()

    # each residual is the largest Python abs of its dense entries, bit for bit;
    # np.abs misses it on about one case in three
    def test_torus_matrix_norm_is_largest_abs(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            M = TorusMatrix.random(THETA, (4, 4), rng)
            assert M.norm() == max_abs(b for b in M.blocks.values())

    def test_residual_norm_is_largest_abs(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            op = NCDiffOp.random(THETA, 4, rng)
            assert op.residual_norm() == max_abs(dense_words(w, op.m) for term in op.terms.values()
                                                 for w in term.blocks.values())

    def test_max_entry_is_largest_abs(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            words = {(int(x), int(z)): complex(*rng.normal(size=2))
                     for x, z in rng.integers(0, 8, size=(3, 2))}
            m = 1 << max(max(w) for w in words).bit_length()
            assert clifford._max_entry(words) == max_abs([dense_words(words, m)])


def max_abs(blocks):
    """The largest Python abs(complex) over the entries of the blocks."""
    return max((abs(z) for b in blocks for z in b.ravel().tolist()), default=0.0)


def _leibniz_terms(alpha):
    """(gamma, C(alpha, gamma), alpha - gamma) for 0 <= gamma <= alpha."""
    for gamma in iproduct(*(range(a + 1) for a in alpha)):
        coef = math.prod(math.comb(a, g) for a, g in zip(alpha, gamma))
        yield gamma, coef, tuple(a - g for a, g in zip(alpha, gamma))


def _from_dense(theta, m, terms):
    return NCDiffOp.from_terms(theta, m, {a: {k: pauli_words(b) for k, b in tm.blocks.items()}
                                          for a, tm in terms.items()})


def oracle_compose(P, Q):
    """Per-term Leibniz loop on dense coefficients: one derived copy, matmul
    and scale per (alpha, beta, gamma)."""
    out = {}
    for alpha, A in P.terms.items():
        A = A.dense()
        for beta, B in Q.terms.items():
            for gamma, coef, delta in _leibniz_terms(alpha):
                dB = derive_multi(B.dense(), delta)
                if dB.is_zero(PRUNE_TOL):
                    continue
                idx = tuple(g + b for g, b in zip(gamma, beta))
                term = A.matmul(dB).scale(coef)
                out[idx] = out[idx] + term if idx in out else term
    return _from_dense(P.theta, P.m, out)


def oracle_adjoint(P):
    """Per-term loop over the derived copies of each starred dense coefficient."""
    out = {}
    for alpha, M in P.terms.items():
        sign = (-1) ** sum(alpha)
        for gamma, coef, delta in _leibniz_terms(alpha):
            dM = derive_multi(M.dense().star(), delta)
            if dM.is_zero(PRUNE_TOL):
                continue
            term = dM.scale(sign * coef)
            out[gamma] = out[gamma] + term if gamma in out else term
    return _from_dense(P.theta, P.m, out)


def assert_pruned(op):
    for M in op.terms.values():
        assert M.blocks
        for words in M.blocks.values():
            assert words and min(abs(c) for c in words.values()) >= PRUNE_TOL


def assert_close(got, want):
    # magnitudes reach 1e6 through (2 pi k)^alpha; compare relative
    scale = max(1.0, want.residual_norm())
    assert (got - want).residual_norm() <= 1e-12 * scale
    assert_pruned(got)


class TestAgainstPerTermOracle:
    """compose, the brackets and adjoint form each word pair once; the
    per-term Leibniz loop above, on dense blocks, is the reference."""

    @pytest.mark.parametrize("n", [2, 4])
    def test_random_pairs(self, n):
        theta = THETA if n == 2 else ThetaMatrix.random(4, np.random.default_rng(41))
        for seed in range(20):
            rng = np.random.default_rng(1000 * n + seed)
            P = NCDiffOp.random(theta, 2, rng, max_degree=2)
            Q = NCDiffOp.random(theta, 2, rng, max_degree=2)
            for got, want in ((P.compose(Q), oracle_compose(P, Q)),
                              (P.adjoint(), oracle_adjoint(P))):
                assert_close(got, want)

    @pytest.mark.parametrize("n", [2, 4])
    def test_adjoint_cold_and_warm(self, n):
        # a cold plan and the warm one give the same adjoint, bit for bit
        theta = THETA if n == 2 else ThetaMatrix.random(4, np.random.default_rng(42))
        for seed in range(5):
            P = NCDiffOp.random(theta, 2, np.random.default_rng(3000 * n + seed), max_degree=2)
            clear_plans()
            cold, warm = P.adjoint(), P.adjoint()
            assert layout(warm) == layout(cold)
            assert_close(cold, oracle_adjoint(P))

    @pytest.mark.parametrize("n, m, theta_seed", [(2, 2, 51), (2, 2, 52), (2, 4, 53),
                                                  (4, 2, 54), (4, 2, 55)])
    def test_brackets(self, n, m, theta_seed):
        theta = ThetaMatrix.random(n, np.random.default_rng(theta_seed))
        for seed in range(3):
            rng = np.random.default_rng(100 * theta_seed + seed)
            P = NCDiffOp.random(theta, m, rng, max_degree=2, radius=1)
            Q = NCDiffOp.random(theta, m, rng, max_degree=2, radius=1)
            pq, qp = oracle_compose(P, Q), oracle_compose(Q, P)
            assert_close(P.commutator(Q), pq - qp)
            assert_close(P.anticommutator(Q), pq + qp)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 4]), st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_compose_hypothesis(self, seed, n, max_degree):
        rng = np.random.default_rng(seed)
        theta = ThetaMatrix.random(n, rng)
        P = NCDiffOp.random(theta, 2, rng, max_degree=max_degree)
        Q = NCDiffOp.random(theta, 2, rng, max_degree=max_degree)
        assert_close(P.compose(Q), oracle_compose(P, Q))

    def test_exact_cancellation_stores_nothing(self):
        a = TorusElement.random(THETA, np.random.default_rng(3))
        ma = NCDiffOp.mult(a, 2)
        assert ma.commutator(ma).terms == {}

    def test_cancelling_block_dropped(self):
        # (U_1 + U_2)(U_2 - c U_1) with c U_2 U_1 = U_1 U_2: the U^(1,1) block
        # cancels up to rounding inside one compose and is not stored
        u1, u2 = TorusElement.generator(THETA, 1), TorusElement.generator(THETA, 2)
        c = THETA.phase((1, 0), (0, 1)) / THETA.phase((0, 1), (1, 0))
        out = NCDiffOp.mult(u1 + u2, 1).compose(NCDiffOp.mult(u2 - c * u1, 1))
        assert (1, 1) not in out.terms[ZERO2].blocks
        assert set(out.terms[ZERO2].blocks) == {(2, 0), (0, 2)}
        assert_pruned(out)


def loop_product(self, other, sign):
    """self . other + sign * other . self: the word-pair loop the batched kernel
    replaced, kept verbatim as the reference its sums must equal bit for bit."""
    ncdiff._distinct([self, other])
    theta, acc = self.theta, {}
    for (alpha, A), (beta, B) in iproduct(self.terms.items(), other.terms.items()):
        for (k, a), (kp, b) in iproduct(A.blocks.items(), B.blocks.items()):
            lam = theta.phase(k, kp)
            fg = {idx: [lam * w, 0] for idx, w in _push_weights(alpha, beta, kp)}
            if sign:
                mu = sign * theta.phase(kp, k)
                for idx, w in _push_weights(beta, alpha, k):
                    fg.setdefault(idx, [0, 0])[1] = mu * w
            kk = tuple(x + y for x, y in zip(k, kp))
            for idx, (f, g) in fg.items():
                table = (f + g, f - g, -f + g, -f - g)
                block = acc.setdefault(idx, {}).setdefault(kk, {})
                for (x1, z1), c1 in a.items():
                    for (x2, z2), c2 in b.items():
                        # 0 for commuting words in a commutator: nothing to add
                        if t := table[(z1 & x2).bit_count() % 2 * 2
                                      + (z2 & x1).bit_count() % 2]:
                            word = (x1 ^ x2, z1 ^ z2)
                            c = t * (c1 * c2)
                            block[word] = block[word] + c if word in block else c
    return NCDiffOp.from_terms(self.theta, self.m, acc)


def _accumulate(acc, idx, k, w, words):
    """acc[idx][k][word] += w * c for every word of `words`."""
    block = acc.setdefault(idx, {}).setdefault(k, {})
    for word, c in words.items():
        c = w * c
        block[word] = block[word] + c if word in block else c


def dict_sum(self, other, sign):
    """self + sign * other, accumulated word by word: the dict walk the array
    reduction replaced, kept verbatim as the reference of its sums and order."""
    ncdiff._distinct([self, other])
    acc = {}
    for op, w in ((self, 1), (other, sign)):
        for alpha, M in op.terms.items():
            for k, words in M.blocks.items():
                _accumulate(acc, alpha, k, w, words)
    return NCDiffOp.from_terms(self.theta, self.m, acc)


def dict_scale(self, z):
    return NCDiffOp.from_terms(self.theta, self.m,
                               {a: {k: {w: z * c for w, c in words.items()}
                                    for k, words in M.blocks.items()}
                                for a, M in self.terms.items()})


def dict_adjoint(self):
    """The dict adjoint the array reduction replaced, kept verbatim."""
    theta, zero = self.theta, (0,) * self.theta.n
    acc = {}
    for alpha, M in self.terms.items():
        sign = (-1) ** sum(alpha)
        for k, words in M.blocks.items():
            mk = tuple(-x for x in k)
            mu = theta.star_phase(k)
            starred = {w: mu * c for w, c in word_adjoint(words).items()}
            for gamma, w in _push_weights(alpha, zero, mk):
                _accumulate(acc, gamma, mk, sign * w, starred)
    return NCDiffOp.from_terms(self.theta, self.m, acc)


def assert_sums_match_dict_walk(P, Q):
    """+, -, scale and adjoint equal the dict walks in value and stored order,
    from cold plans and again from warm ones."""
    clear_plans()
    for _ in range(2):
        for got, want in ((P + Q, dict_sum(P, Q, 1)), (P - Q, dict_sum(P, Q, -1)),
                          (P.scale(0.5), dict_scale(P, 0.5)), (P.scale(1j), dict_scale(P, 1j)),
                          (P.scale(0.3 - 1.7j), dict_scale(P, 0.3 - 1.7j)),
                          (P.adjoint(), dict_adjoint(P))):
            assert layout(got) == layout(want)
            assert_pruned(got)


def layout(op):
    """Every term, block and word of op with its coefficient, in stored order."""
    return [(alpha, [(k, list(words.items())) for k, words in M.blocks.items()])
            for alpha, M in op.terms.items()]


def loop_products(jobs):
    """NCDiffOp.products by the Python loop over block pairs that its
    vectorised enumeration replaced, kept as the reference of its segments:
    per job, alpha group of P, of Q and block pair, each target of
    ncdiff._pair_weights (mode-0 pairs included, phases from
    ThetaMatrix.phase) is one segment; the word pairs and the reduction are
    the kernel's."""
    ops = list({id(op): op for P, Q, _ in jobs for op in (P, Q)}.values())
    bases = dict(zip(map(id, ops), np.cumsum([0] + [len(op.c) for op in ops]).tolist()))
    (theta, m), *_ = ncdiff._distinct(ops)

    def groups(op):
        # (alpha code, mode, start, stop) of each block
        blocks = zip(op.alpha.tolist(), zip(*op.mode.tolist()), op.start.tolist(),
                     op.stop.tolist())
        return [(a, [(k, bases[id(op)] + s, e - s) for _, k, s, e in run])
                for a, run in groupby(blocks, itemgetter(0))]

    segments, targets, table = [], [], []
    for job, (P, Q, s) in enumerate(jobs):
        for (a, a_blocks), (b, b_blocks) in iproduct(groups(P), groups(Q)):
            for (k, a0, la), (kp, b0, lb) in iproduct(a_blocks, b_blocks):
                for code, f in ncdiff._pair_weights(a, b, k, kp, s,
                                                    theta.phase(k, kp), theta.phase(kp, k)):
                    segments.append((a0, la, b0, lb, len(table) // 4))
                    targets.append((job, code, *map(add, k, kp)))
                    table += f
    x, z, c = (np.concatenate([getattr(op, f) for op in ops]) for f in "xzc")
    targets = np.array(targets, dtype=np.int64).reshape(-1, theta.n + 2).T
    return ncdiff._reduce(theta, m, len(jobs), targets[0], targets[1], targets[2:],
                          *ncdiff._word_pairs(m.bit_length() - 1, x, z, c,
                                              *np.array(segments, dtype=np.int64).reshape(-1, 5).T,
                                              np.array(table, dtype=complex)))


def mixed_jobs(n, m, theta_seed):
    """Jobs over random operators of several modes and degrees: P, Q and a
    mult(a) recur, in both orders and as both operands of one job."""
    theta = ThetaMatrix.random(n, np.random.default_rng(theta_seed))
    rng = np.random.default_rng(theta_seed)
    P, Q, R = (NCDiffOp.random(theta, m, rng, max_degree=2, radius=1) for _ in range(3))
    a = NCDiffOp.mult(TorusElement.random(theta, rng, radius=1, terms=3), m)
    zero = NCDiffOp.zero(theta, m)
    return [(P, Q, 0), (P, Q, -1), (Q, P, 1), (P, P, 0), (P, P, -1), (P, a, -1),
            (a, R, 1), (zero, P, 0), (R, zero, -1), (R, a, 0), (a, a, 1)]


MIXED = [(2, 2, 61), (2, 4, 62), (4, 2, 63), (4, 2, 64), (2, 4, 65)]


class TestProducts:
    """NCDiffOp.products forms every job of a list in one pass: each result is
    the one-job result and the word-pair loop's, in value and stored order."""

    @pytest.mark.parametrize("n, m, theta_seed", MIXED)
    def test_mixed_jobs(self, n, m, theta_seed):
        jobs = mixed_jobs(n, m, theta_seed)
        got = NCDiffOp.products(jobs)
        assert len(got) == len(jobs)
        for (A, B, s), op in zip(jobs, got):
            assert layout(op) == layout(NCDiffOp.products([(A, B, s)])[0])
            assert layout(op) == layout(loop_product(A, B, s))
            ab, ba = oracle_compose(A, B), oracle_compose(B, A)
            # relative to the products: [P, P] cancels to rounding of |P P|
            scale = max(1.0, ab.residual_norm(), ba.residual_norm())
            assert (op - (ab + ba.scale(s))).residual_norm() <= 1e-12 * scale
            assert_pruned(op)
        assert got[7].terms == {} and got[8].terms == {}
        assert NCDiffOp.products([]) == []
        for A, B, _ in jobs:
            assert_sums_match_dict_walk(A, B)

    def test_package_sums_match_dict_walk(self):
        theta = ThetaMatrix.random(4, np.random.default_rng(67))
        pkg = build_kahler_package(theta, enumerate_matchings(4)[1], -1)
        ops = [getattr(pkg, f.name) for f in dataclasses.fields(pkg)]
        ops = [op for op in ops if isinstance(op, NCDiffOp)]
        assert len(ops) == 13
        for i, P in enumerate(ops):
            assert_sums_match_dict_walk(P, ops[(i + 1) % len(ops)])

    @pytest.mark.parametrize("n, m", [(4, 2), (2, 2), (2, 4)],
                             ids=["torus-dimension", "torus-entries", "fiber"])
    def test_pass_over_two_contexts_refused(self, n, m):
        # a products, adjoints or sums pass is over one torus and one fiber;
        # jobs that each match but differ from one another are refused before
        # anything is planned
        rng = np.random.default_rng(66)
        theta = ThetaMatrix.random(2, rng)
        other = theta if (n, m) == (2, 4) else ThetaMatrix.random(n, rng)
        P = NCDiffOp.random(theta, 2, rng, max_degree=1, radius=1)
        Q = NCDiffOp.random(other, m, rng, max_degree=1, radius=1)
        clear_plans()
        for run in (lambda: NCDiffOp.products([(P, P, 0), (Q, Q, -1)]),
                    lambda: NCDiffOp.adjoints([P, Q]),
                    lambda: NCDiffOp.sums([[(1, P), (2, P)], [(1, Q)]])):
            with pytest.raises(DimensionMismatch, match="tori or fibers"):
                run()
        assert not ncdiff._PLANS

    def test_mismatched_job_rejected(self):
        with pytest.raises(DimensionMismatch):
            NCDiffOp.products([(random_op(1), random_op(2), 0),
                               (NCDiffOp.identity(THETA, 2), NCDiffOp.identity(THETA, 4), 1)])


def captured_products(run):
    """The job lists of every NCDiffOp.products call that run() makes."""
    calls, products = [], NCDiffOp.products

    def capture(jobs):
        calls.append(list(jobs))
        return products(jobs)

    NCDiffOp.products = staticmethod(capture)
    try:
        run()
    finally:
        NCDiffOp.products = staticmethod(products)
    return calls


class TestBlockPairLoop:
    """The vectorised block-pair enumeration of NCDiffOp.products equals the
    Python loop over block pairs (loop_products), in value and stored order,
    bit for bit, from a cold plan and from the warm one: on mixed-mode random
    jobs, on every checklist job of a package, and on the real-structure
    check's [D, b] jobs.  A plan serves every pass over the same alpha and
    mode rows and torus, whatever the word counts and Theta objects."""

    @staticmethod
    def assert_equal_to_loop(jobs):
        want = [layout(op) for op in loop_products(jobs)]
        clear_plans()
        for _ in range(2):
            assert [layout(op) for op in NCDiffOp.products(jobs)] == want

    @pytest.mark.parametrize("n, m, theta_seed", MIXED)
    def test_mixed_jobs(self, n, m, theta_seed):
        self.assert_equal_to_loop(mixed_jobs(n, m, theta_seed))

    @pytest.mark.parametrize("n", [4, 6])
    def test_checklist_jobs(self, n):
        theta = ThetaMatrix.random(n, np.random.default_rng(68))
        pkg = build_kahler_package(theta, enumerate_matchings(n)[-1], -1)
        calls = captured_products(lambda: verify_n22(pkg))
        # the checklist pass, with the [., a] samples, and the nested pass
        assert [len(jobs) for jobs in calls] == [45, 3]
        for jobs in calls:
            self.assert_equal_to_loop(jobs)

    def test_real_structure_jobs(self):
        # the [D, b] jobs of verify_real_structure(theta)'s pairs, b = U_j
        theta = ThetaMatrix.random(4, np.random.default_rng(69))
        D = kahler.build_dirac(build_gamma(4), theta)
        jobs = [(D, NCDiffOp.mult(TorusElement.monomial(theta, k), 4), -1)
                for k in np.eye(4, dtype=int)]
        assert any(P.mode.any() for _, P, _ in jobs)
        self.assert_equal_to_loop(jobs)

    @staticmethod
    def assert_plans(job_lists, count):
        """Each job list, planned in turn from a cold cache, equals the loop;
        the passes build `count` plans."""
        clear_plans()
        for jobs in job_lists:
            assert ([layout(op) for op in NCDiffOp.products(jobs)]
                    == [layout(op) for op in loop_products(jobs)])
        assert len(plans("products")) == count

    @pytest.mark.parametrize("n, m, theta_seed", MIXED[:3])
    def test_plan_shared_across_word_counts(self, n, m, theta_seed):
        # every block cut to its first word: the same alpha and mode rows
        jobs = mixed_jobs(n, m, theta_seed)
        cut = {id(op): NCDiffOp.from_terms(op.theta, op.m, {
            a: {k: dict(list(w.items())[:1]) for k, w in T.blocks.items()}
            for a, T in op.terms.items()}) for P, Q, _ in jobs for op in (P, Q)}
        other = [(cut[id(P)], cut[id(Q)], s) for P, Q, s in jobs]
        pairs = [(P, cut[id(P)]) for P, _, _ in jobs]
        assert all(np.array_equal(P.table[:-2], R.table[:-2]) for P, R in pairs)
        assert any(not np.array_equal(P.table, R.table) for P, R in pairs)
        self.assert_plans([jobs, other], 1)

    def test_plan_per_theta(self):
        # Theta enters the weights off mode 0: one changed entry, another plan
        theta = ThetaMatrix.random(4, np.random.default_rng(70))
        entries = theta.entries.copy()
        entries[0, 2], entries[2, 0] = entries[0, 2] + 0.125, entries[2, 0] - 0.125
        rng = np.random.default_rng(71)
        P, Q = (NCDiffOp.random(theta, 2, rng, max_degree=1, radius=1) for _ in range(2))
        assert P.mode.any() and Q.mode.any()
        lists = [[(P, Q, 0), (P, Q, -1), (Q, P, 1)]]
        for t in (ThetaMatrix(entries), ThetaMatrix.from_json(theta.to_json())):
            P2, Q2 = (NCDiffOp.from_terms(t, 2, {a: T.blocks for a, T in op.terms.items()})
                      for op in (P, Q))
            lists.append([(P2, Q2, 0), (P2, Q2, -1), (Q2, P2, 1)])
        changed, copied = ([layout(op) for op in NCDiffOp.products(jobs)] for jobs in lists[1:])
        assert changed != copied
        self.assert_plans(lists[:2], 2)
        # a copy of Theta has Theta's plan
        self.assert_plans(lists[::2], 1)


class TestFrozen:
    def test_arrays_read_only(self):
        # plans and the dedupe of operators by identity assume no operator changes
        P = random_op(5)
        for op in (P, P.compose(P), P + P, P.adjoint(), NCDiffOp.identity(THETA, 2)):
            with pytest.raises(ValueError, match="read-only"):
                op.c[0] = 0
            for arr in (op.x, op.z, op.table, op.alpha, op.stop):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = arr[0]


class TestPlans:
    """The block-level plans of the batched passes: few per grid, kept across
    calls, and at most PLAN_CACHE of them."""

    def test_grid_plan_count(self, monkeypatch, capsys):
        clear_plans()
        builds = count_builds(monkeypatch)
        verify_grid(ThetaMatrix.random(6, np.random.default_rng(72)), enumerate_matchings(6))
        assert 1 <= builds["products"] <= 4
        assert main(["verify", "--n", "6"]) == 0
        builds.clear()
        assert main(["verify", "--n", "6"]) == 0
        assert not builds
        assert len(ncdiff._PLANS) <= ncdiff.PLAN_CACHE
        capsys.readouterr()

    def test_bounded_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(ncdiff, "PLAN_CACHE", 3)
        ops = [random_op(seed, max_degree=2) for seed in range(6)]
        clear_plans()
        for i, P in enumerate(ops):
            P.compose(P)
            assert len(ncdiff._PLANS) == min(i + 1, 3)
        builds = count_builds(monkeypatch)
        # ops[3]'s plan is used again, so ops[4]'s is the one dropped next
        ops[3].compose(ops[3])
        ops[0].compose(ops[0])
        assert builds["products"] == 1
        ops[3].compose(ops[3])
        assert builds["products"] == 1
        ops[4].compose(ops[4])
        assert builds["products"] == 2

    def test_threads_share_the_cache(self, monkeypatch):
        # eight threads run passes whose plans evict each other, switching
        # often: every result is the serial one, and the bound holds
        monkeypatch.setattr(ncdiff, "PLAN_CACHE", 4)
        ops = [random_op(seed, max_degree=2) for seed in range(6)]
        passes = [lambda P=P, Q=Q: (NCDiffOp.products([(P, Q, -1), (Q, P, 0)])
                                    + NCDiffOp.adjoints([P, Q]) + [P + Q.scale(0.5j)])
                  for P, Q in zip(ops, ops[1:] + ops[:1])]
        want = [[layout(op) for op in run()] for run in passes]

        def work(start):
            order = list(range(start, len(passes))) + list(range(start))
            return {i: [layout(op) for op in passes[i]()] for i in order * 3}

        clear_plans()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                runs = [pool.submit(work, t % len(passes)) for t in range(8)]
                got = [run.result(timeout=120) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert all(g == dict(enumerate(want)) for g in got)
        assert len(ncdiff._PLANS) <= 4


class TestCodeRadix:
    def test_entry_of_16_raises(self):
        with pytest.raises(ValueError, match="code radix"):
            NCDiffOp.from_words(THETA, 2, {(16, 0): {(0, 0): 1 + 0j}})
        with pytest.raises(ValueError, match="code radix"):
            NCDiffOp.from_words(THETA, 2, {(-1, 0): {(0, 0): 1 + 0j}})

    def test_more_than_15_entries_raise(self):
        theta = ThetaMatrix.random(16, np.random.default_rng(70))
        with pytest.raises(ValueError, match="code radix"):
            NCDiffOp.identity(theta, 2)

    def test_product_outside_radix_raises_not_wraps(self):
        # (15, 0) + (1, 0) has an entry of 16, past the 4 bits of its code
        P = NCDiffOp.from_words(THETA, 2, {(15, 0): {(0, 0): 1 + 0j}})
        d1 = NCDiffOp.derivation(THETA, 2, 1)
        assert P.compose(NCDiffOp.identity(THETA, 2)).max_degree() == 15
        with pytest.raises(ValueError, match="code radix"):
            P.compose(d1)
        # and so does a block pair at another mode
        a = d1.compose(NCDiffOp.mult(TorusElement.generator(THETA, 1), 2))
        with pytest.raises(ValueError, match="code radix"):
            P.compose(a)


class TestPauliWords:
    """Word product, adjoint, transform and action against the dense matrices
    of every word (pair) on q = 0..3 qubits, exactly."""

    @pytest.mark.parametrize("q", [0, 1, 2, 3])
    def test_exact_against_dense(self, q):
        m = 2 ** q
        words = [(x, z) for x in range(m) for z in range(m)]
        dense = {w: dense_words({w: 1 + 0j}, m) for w in words}
        cols = np.random.default_rng(q).normal(size=(m, 2)) + 1j
        for w1, a in dense.items():
            # a word is a signed permutation matrix, and its own transform
            assert np.array_equal(np.abs(a), np.eye(m)[np.arange(m) ^ w1[0]])
            assert pauli_words(a) == {w1: 1 + 0j}
            assert np.array_equal(dense_words(word_adjoint({w1: 1j}), m), (1j * a).conj().T)
            got = NCDiffOp.constant(THETA, a).apply(TorusMatrix.constant(THETA, cols))
            assert np.array_equal(got.blocks[ZERO2], a @ cols)
            for w2, b in dense.items():
                assert np.array_equal(dense_words(word_product({w1: 1 + 0j}, {w2: 1 + 0j}), m),
                                      a @ b)

    def test_transform_roundtrip(self):
        mat = np.random.default_rng(30).normal(size=(4, 4, 2)) @ [1, 1j]
        assert np.abs(dense_words(pauli_words(mat), 4) - mat).max() < 1e-15


class TestPowerOfTwoFiber:
    def test_other_fibers_refused(self):
        for m in (0, 3, 6):
            with pytest.raises(DimensionMismatch):
                NCDiffOp.identity(THETA, m)
        with pytest.raises(DimensionMismatch):
            NCDiffOp.constant(THETA, np.eye(3))


class TestApply:
    def test_identity(self):
        v = TorusMatrix.random(THETA, (4, 1), np.random.default_rng(7))
        assert (NCDiffOp.identity(THETA, 4).apply(v) - v).norm() < 1e-9

    def test_derivation_eigenvector(self):
        u1 = TorusElement.generator(THETA, 1)
        v = TorusMatrix.from_entries(THETA, [[u1], [TorusElement.zero(THETA)]])
        out = NCDiffOp.derivation(THETA, 2, 1).apply(v)
        assert out.entry(0, 0).close_to(2j * np.pi * u1, 1e-12)
        assert out.entry(1, 0).is_zero(1e-9)

    def test_linearity(self):
        P = random_op(8)
        rng = np.random.default_rng(9)
        v, w = TorusMatrix.random(THETA, (2, 1), rng), TorusMatrix.random(THETA, (2, 1), rng)
        lhs = P.apply(v + w.scale(2.5j))
        rhs = P.apply(v) + P.apply(w).scale(2.5j)
        assert (lhs - rhs).norm() < 1e-10

    def test_one_act_pass(self, monkeypatch):
        # one fiber action per block of P, on every mode of v at once
        built = []
        act = ncdiff._act

        def counting(x, z, c, cols):
            built.append(len(cols))
            return act(x, z, c, cols)

        monkeypatch.setattr(ncdiff, "_act", counting)
        P = random_op(8)
        v = TorusMatrix.random(THETA, (2, 3), np.random.default_rng(10))
        P.apply(v)
        assert len(v.blocks) > 1 and P.table.shape[1] > 1
        live = [sum(_deriv_factor(k, alpha) != 0 for k in v.blocks) for alpha, *_ in P._table()]
        assert built == live and all(live)

    @pytest.mark.parametrize("m,max_degree", [(1, 2), (2, 1), (2, 2), (4, 2)])
    def test_equals_block_loop(self, m, max_degree):
        # several alpha and modes per operator, several modes per v, and a
        # zero derivative factor at the modes with a 0 entry: bit for bit
        rng = np.random.default_rng(40 + m + max_degree)
        for _ in range(6):
            P = NCDiffOp.random(THETA, m, rng, max_degree=max_degree, radius=2, terms=4)
            v = TorusMatrix.random(THETA, (m, 3), rng, radius=1, terms=3)
            want = loop_apply(P, v)
            assert_same_blocks(P.apply(v).blocks, want.blocks)

    def test_batch_equals_one_job_each(self):
        # several operators and v, and a zero operator, each against the loop
        rng = np.random.default_rng(41)
        jobs = [(NCDiffOp.random(THETA, 4, rng, max_degree=2, terms=3),
                 TorusMatrix.random(THETA, (4, 2), rng, radius=1, terms=2))
                for _ in range(5)]
        jobs.append((NCDiffOp.zero(THETA, 4), jobs[0][1]))
        for P, v in jobs:
            assert_same_blocks(P.apply(v).blocks, loop_apply(P, v).blocks)
        assert NCDiffOp.zero(THETA, 4).apply(jobs[0][1]).blocks == {}
        with pytest.raises(DimensionMismatch):
            jobs[0][0].apply(TorusMatrix(THETA, (2, 2), {ZERO2: np.eye(2)}))

    def test_wrong_length_rejected(self):
        v = TorusMatrix.random(THETA, (3, 1), np.random.default_rng(7))
        with pytest.raises(DimensionMismatch):
            NCDiffOp.identity(THETA, 2).apply(v)

    def test_mixed_units_equal_loop(self):
        # one-word blocks at mode 0, multi-word blocks at non-zero modes whose
        # targets merge across alpha (and across block modes), an operator
        # whose factors are all 0 and an empty v, one apply each: the block
        # loop's blocks, bit for bit
        rng = np.random.default_rng(44)

        def c():
            return complex(*rng.normal(size=2))

        one_word = NCDiffOp.from_terms(THETA, 4, {(1, 0): {ZERO2: {(1, 2): c()}},
                                                  (0, 1): {ZERO2: {(3, 0): c()}}})
        merging = NCDiffOp.from_terms(THETA, 4, {
            (0, 0): {(1, 0): {(0, 1): c(), (2, 3): c(), (0, 2): c()},
                     (0, 1): {(1, 1): c(), (3, 2): c()}},
            (1, 0): {(1, 0): {(1, 0): c(), (1, 3): c(), (2, 2): c()},
                     (1, -1): {(0, 0): c(), (3, 3): c()}}})
        # del_1 on modes whose first entry is 0: every factor is 0
        flat = NCDiffOp.from_terms(THETA, 4, {(1, 0): {(1, 1): {(1, 1): c(), (2, 0): c()}}})
        v = {k: rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
             for k in [(0, 0), (1, 0), (0, 1), (-1, 2), (2, -1)]}
        jobs = [(one_word, v), (merging, v), (flat, {ZERO2: v[ZERO2], (0, 2): v[(0, 1)]}),
                (merging, {})]
        got = []
        for P, w in jobs:
            w = TorusMatrix(THETA, (4, 2), w)
            got.append(P.apply(w).blocks)
            assert_same_blocks(got[-1], loop_apply(P, w).blocks)
        # (2, 0) and (0, 2) add terms of both alphas, (1, 1) of two block modes
        assert {(2, 0), (0, 2), (1, 1)} <= set(got[1]) and got[2] == {} and got[3] == {}

    def test_one_torus_and_fiber_per_pass(self):
        # a mode of v of the wrong length is refused, not truncated by zip
        v = TorusMatrix.random(THETA, (2, 1), np.random.default_rng(7)).blocks
        other = NCDiffOp.identity(ThetaMatrix.random(4, np.random.default_rng(8)), 2)
        with pytest.raises(DimensionMismatch, match="not in Z"):
            other.apply(TorusMatrix(THETA, (2, 1), v))
        for k in [(0, 0, 0), (1,)]:
            with pytest.raises(DimensionMismatch, match="not in Z"):
                NCDiffOp.identity(THETA, 2).apply(TorusMatrix(THETA, (2, 1), {k: v[ZERO2]}))
        with pytest.raises(DimensionMismatch, match="fiber"):
            NCDiffOp.identity(THETA, 4).apply(TorusMatrix(THETA, (2, 1), v))


class TestListConstructors:
    def test_from_terms_list_equals_one_by_one(self):
        rng = np.random.default_rng(42)
        ops = [NCDiffOp.random(THETA, 4, rng, max_degree=2, terms=3) for _ in range(4)]
        terms = [{a: t.blocks for a, t in op.terms.items()} for op in ops] + [{}]
        got = NCDiffOp.from_terms(THETA, 4, terms)
        assert ([layout(op) for op in got]
                == [layout(NCDiffOp.from_terms(THETA, 4, t)) for t in terms])

    def test_mult_list_equals_one_by_one(self):
        rng = np.random.default_rng(43)
        elems = [TorusElement.random(THETA, rng, radius=2, terms=3) for _ in range(5)]
        elems.append(TorusElement.zero(THETA))
        got = NCDiffOp.mult(elems, 2)
        assert [layout(op) for op in got] == [layout(NCDiffOp.mult(a, 2)) for a in elems]
        other = TorusElement.one(ThetaMatrix.random(2, np.random.default_rng(44)))
        with pytest.raises(DimensionMismatch):
            NCDiffOp.mult([elems[0], other], 2)

    @pytest.mark.parametrize("mode", [(1, 2), (1, 2, 0, 0, 0), ()], ids=["short", "long", "empty"])
    def test_from_terms_refuses_a_mode_of_another_length(self, mode):
        # a mode of length != n used to build an operator whose products
        # truncated it
        theta = ThetaMatrix.random(4, np.random.default_rng(45))
        with pytest.raises(DimensionMismatch, match="not in Z"):
            NCDiffOp.from_terms(theta, 2, {(0, 0, 0, 0): {mode: {(0, 0): 1 + 0j}}})
        with pytest.raises(DimensionMismatch, match="not in Z"):
            NCDiffOp.from_terms(theta, 2, [{}, {(1, 0, 0, 0): {(0,) * 4: {(0, 0): 1 + 0j},
                                                              mode: {(0, 0): 1 + 0j}}}])


class TestAdjoint:
    def test_derivation_skew(self):
        d1 = NCDiffOp.derivation(THETA, 2, 1)
        assert (d1.adjoint() + d1).residual_norm() < 1e-15

    def test_multiplication(self):
        a = TorusElement.random(THETA, np.random.default_rng(10))
        ma = NCDiffOp.mult(a, 2)
        assert (ma.adjoint() - NCDiffOp.mult(a.star(), 2)).residual_norm() < 1e-12

    def test_involutive(self):
        for seed in range(5):
            P = random_op(seed, max_degree=2)
            assert (P.adjoint().adjoint() - P).residual_norm() < 1e-10

    def test_antihomomorphism(self):
        P, Q = random_op(11), random_op(12)
        lhs = P.compose(Q).adjoint()
        rhs = Q.adjoint().compose(P.adjoint())
        assert (lhs - rhs).residual_norm() < 1e-9

    def test_formal_adjoint_contract(self):
        # <Px, y> = <x, P*y> on the dense domain
        for seed in range(8):
            P = random_op(seed + 20, max_degree=2)
            rng = np.random.default_rng(seed + 200)
            x = TorusMatrix.random(THETA, (2, 1), rng)
            y = TorusMatrix.random(THETA, (2, 1), rng)
            lhs = inner_product(P.apply(x), y)
            rhs = inner_product(x, P.adjoint().apply(y))
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


class TestNormalFormSoundness:
    def test_residual_norm_basics(self):
        assert NCDiffOp.zero(THETA, 2).residual_norm() == 0.0
        assert NCDiffOp.identity(THETA, 2).residual_norm() == 1.0
        P = random_op(13)
        assert (P - P).residual_norm() < 1e-15

    def test_normal_form_equality_iff_equal_action(self):
        # operators agreeing on all basis vectors in a box agree in normal form
        P, Q = random_op(14), random_op(15)
        diff = P - Q
        action_max = max(
            diff.apply(v).norm() for v in basis_vectors(THETA, 2, 3)
        )
        assert diff.residual_norm() > 1e-3  # random pair: genuinely different
        assert action_max > 1e-3
        same = P - P
        assert same.residual_norm() < 1e-15
        assert max(same.apply(v).norm() for v in basis_vectors(THETA, 2, 3)) < 1e-15


class TestInnerProduct:
    def test_orthonormal_basis(self):
        for i in range(3):
            for j in range(3):
                ei = unit_column(THETA, 3, i)
                ej = unit_column(THETA, 3, j)
                assert abs(inner_product(ei, ej) - (1.0 if i == j else 0.0)) < 1e-15

    def test_positivity(self):
        x = TorusMatrix.random(THETA, (2, 1), np.random.default_rng(16))
        val = inner_product(x, x)
        assert val.real >= 0 and abs(val.imag) < 1e-12

    def test_tensor_form(self):
        # <xi tensor eta, xi' tensor eta'> = sum_{l,j} tau(eta_l* xi_j* xi'_j eta'_l)
        rng = np.random.default_rng(17)
        xi = [TorusElement.random(THETA, rng) for _ in range(2)]
        eta = [TorusElement.random(THETA, rng) for _ in range(2)]
        xi2 = [TorusElement.random(THETA, rng) for _ in range(2)]
        eta2 = [TorusElement.random(THETA, rng) for _ in range(2)]
        flat1 = TorusMatrix.from_entries(THETA, [[xi[j] * eta[l]] for j in range(2)
                                                 for l in range(2)])
        flat2 = TorusMatrix.from_entries(THETA, [[xi2[j] * eta2[l]] for j in range(2)
                                                 for l in range(2)])
        direct = sum(
            (eta[l].star() * xi[j].star() * xi2[j] * eta2[l]).trace()
            for j in range(2) for l in range(2)
        )
        assert abs(inner_product(flat1, flat2) - direct) < 1e-9


class TestSerialization:
    def test_entry_extraction(self):
        a = TorusElement.random(THETA, np.random.default_rng(19))
        M = scalar_element(a, 2)
        assert M.entry(0, 0).close_to(a, 1e-15)
        assert M.entry(0, 1).is_zero(1e-9)


class TestRectangular:
    def test_random_draws_entries_row_major(self):
        M = TorusMatrix.random(THETA, (2, 3), np.random.default_rng(20), radius=1, terms=2)
        rng = np.random.default_rng(20)
        for i in range(2):
            for j in range(3):
                assert M.entry(i, j).coeffs == TorusElement.random(THETA, rng, 1, 2).coeffs

    def test_matmul_and_star_shapes(self):
        rng = np.random.default_rng(21)
        A = TorusMatrix.random(THETA, (2, 3), rng)
        B = TorusMatrix.random(THETA, (3, 1), rng)
        AB = A.matmul(B)
        assert AB.shape == (2, 1) and A.star().shape == (3, 2)
        want = (A.entry(1, 0) * B.entry(0, 0) + A.entry(1, 1) * B.entry(1, 0)
                + A.entry(1, 2) * B.entry(2, 0))
        assert AB.entry(1, 0).close_to(want, 1e-12)

    def test_entries_over_another_theta_rejected(self):
        other = ThetaMatrix.random(2, np.random.default_rng(23))
        with pytest.raises(DimensionMismatch):
            TorusMatrix.from_entries(THETA, [[TorusElement.generator(other, 1)]])

    def test_matmul_inner_dimension_mismatch(self):
        rng = np.random.default_rng(22)
        A = TorusMatrix.random(THETA, (2, 3), rng)
        with pytest.raises(DimensionMismatch):
            A.matmul(TorusMatrix.random(THETA, (2, 1), rng))
