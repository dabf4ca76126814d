"""Differential-form ranks and the (0,2) product map."""

from math import comb

import numpy as np
import pytest

from nckahler import forms
from nckahler.clifford import build_gamma
from nckahler.forms import (
    bidegree_decomposition_check,
    build_form_matrices,
    form_rank,
    nilpotency_residual,
    product_map,
    rank_table,
)
from nckahler.holomorphic import delta
from nckahler.kahler import Matching, build_kahler_package
from nckahler.ncdiff import NCDiffOp
from nckahler.pauli import dense_words, word_product, word_sum
from nckahler.torus import DimensionMismatch, ThetaMatrix, TorusElement, TorusMatrix
from test_ncdiff import scalar_element

RNG = np.random.default_rng(300)
THETA4 = ThetaMatrix.random(4, RNG)
THETA6 = ThetaMatrix.random(6, RNG)
FBM4 = build_form_matrices(4)
FBM6 = build_form_matrices(6)


def words(form):
    """The word sum {(x, z): c} of a form, in stored order."""
    return dict(zip(zip(form.x.tolist(), form.z.tolist()), form.c.tolist()))


def dense(form):
    """The dense m x m fiber matrix of a form (its one block, at mode 0)."""
    return form._dense(0, len(form.c))


class TestNilpotency:
    @pytest.mark.parametrize("fbm", [FBM4, FBM6], ids=["n4", "n6"])
    def test_families_square_to_zero(self, fbm):
        assert nilpotency_residual(fbm) < 1e-12

    def test_exactly_zero_and_detects_a_defect(self):
        assert nilpotency_residual(FBM6) == 0.0
        bad = build_form_matrices(4)
        # mu_1 + 1/4 squares to mu_1/2 + 1/16
        bad.mu[0] = bad.mu[0] + NCDiffOp.identity(bad.mu[0].theta, bad.m).scale(0.25)
        assert nilpotency_residual(bad) == pytest.approx(0.5)

    def test_mu_linearly_independent(self):
        stack = np.stack([dense(w).reshape(-1) for w in FBM4.mu])
        assert np.linalg.matrix_rank(stack, tol=1e-10) == 4


class TestEtaBarClosedForm:
    @pytest.mark.parametrize("eps_prime", [1, -1])
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_mu_combination_equals_closed_form(self, n, eps_prime):
        # eta_bar_j = (mu_2j - i mu_{2j-1}) / 2 is, with eta = gamma_2j - i gamma_{2j-1},
        # (1 tensor eta + i eps' eta tensor sigma) / 4
        rep = build_gamma(n)
        fbm = build_form_matrices(rep, eps_prime)
        eye, sigma = np.eye(rep.N), dense_words(rep.sigma_words, rep.N)
        gammas = [dense_words(g, rep.N) for g in rep.gamma_words]
        for j in range(1, n // 2 + 1):
            eta = gammas[2 * j - 1] - 1j * gammas[2 * j - 2]
            alt = 0.25 * (np.kron(eye, eta) + 1j * eps_prime * np.kron(eta, sigma))
            assert np.abs(alt - dense(fbm.eta_bar[j - 1])).max() <= 1e-12


class TestRanks:
    def test_n4_table(self):
        rows = rank_table(FBM4)
        for row in rows:
            l = row["level"]
            assert row["omega_d"] == (comb(4, l) if l <= 4 else 0)
            assert row["omega_0q"] == (comb(2, l) if l <= 2 else 0)
            assert row["omega_p0"] == (comb(2, l) if l <= 2 else 0)

    def test_n6_table(self):
        rows = rank_table(FBM6)
        for row in rows:
            l = row["level"]
            assert row["omega_d"] == (comb(6, l) if l <= 6 else 0)
            assert row["omega_0q"] == (comb(3, l) if l <= 3 else 0)
            assert row["omega_p0"] == (comb(3, l) if l <= 3 else 0)

    def test_n8_table(self):
        rows = rank_table(build_form_matrices(8))
        for row in rows:
            l = row["level"]
            assert row["omega_d"] == (comb(8, l) if l <= 8 else 0)
            assert row["omega_0q"] == (comb(4, l) if l <= 4 else 0)
            assert row["omega_p0"] == (comb(4, l) if l <= 4 else 0)

    def test_n2_special_case(self):
        fbm2 = build_form_matrices(2)
        assert form_rank(fbm2, "eta_bar", 1) == 1
        assert form_rank(fbm2, "eta_bar", 2) == 0  # [delbar,a][delbar,b] = 0


class TestBidegree:
    @pytest.mark.parametrize("fbm", [FBM4, FBM6], ids=["n4", "n6"])
    def test_decomposition(self, fbm):
        rp = bidegree_decomposition_check(fbm)
        assert rp.all_pass, [(c.name, c.residual) for c in rp.failures()]

    def test_vandermonde_example(self):
        # n=4, r=2: 6 = 1*1 + 2*2 + 1*1
        assert comb(4, 2) == sum(comb(2, p) * comb(2, 2 - p) for p in range(3))


class TestOneChainPerFamily:
    """Each family's span chain is grown once per FormBasisMatrices: one SVD
    per level, kept for later calls."""

    @staticmethod
    def count_svds(monkeypatch, fn):
        calls = []
        real = forms._span

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(forms, "_span", counting)
        fn()
        return len(calls)

    def test_rank_table_n6(self, monkeypatch):
        # mu: levels 1..7; eta_bar, eta_hol: levels 1..4, the 4th empty
        fbm = build_form_matrices(6)
        assert self.count_svds(monkeypatch, lambda: rank_table(fbm)) <= 18

    def test_bidegree_n6(self, monkeypatch):
        # mu: levels 1..6; eta_hol, eta_bar: levels 1..2; one mixed span per r
        fbm = build_form_matrices(6)
        assert self.count_svds(monkeypatch,
                               lambda: bidegree_decomposition_check(fbm)) <= 15

    def test_rank_table_then_bidegree_grows_each_family_once(self, monkeypatch):
        fbm = build_form_matrices(6)
        assert self.count_svds(monkeypatch, lambda: rank_table(fbm)) == 7 + 4 + 4
        # every chain level is kept: only the two mixed spans are new
        assert self.count_svds(monkeypatch,
                               lambda: bidegree_decomposition_check(fbm)) == 2
        assert self.count_svds(monkeypatch,
                               lambda: [form_rank(fbm, "mu", l) for l in range(8)]) == 0

    @pytest.mark.parametrize("n", [4, 6])
    def test_bidegree_mixed_spans_from_one_pass(self, n, monkeypatch):
        fbm = build_form_matrices(n)
        for name in ("mu", "eta_hol", "eta_bar"):
            fbm.chain(name, n)
        calls, products = [], NCDiffOp.products

        def counting(jobs):
            calls.append(len(jobs))
            return products(jobs)

        monkeypatch.setattr(NCDiffOp, "products", staticmethod(counting))
        assert bidegree_decomposition_check(fbm).all_pass
        # every hol^p x bar^(r-p) product of r = 1 and r = 2 in one pass, the
        # level-p bases having C(n/2, p) elements
        half = n // 2
        assert calls == [2 * half + sum(comb(half, p) * comb(half, 2 - p) for p in range(3))]


def dense_families(rep, eps_prime):
    """The dense N^2 x N^2 mu, eta_bar, eta_hol of the kron formulas."""
    eye, sigma = np.eye(rep.N), dense_words(rep.sigma_words, rep.N)
    mu = [0.5 * np.kron(eye, dense_words(g, rep.N))
          + (0.5j * eps_prime) * np.kron(dense_words(g, rep.N), sigma) for g in rep.gamma_words]
    pairs = [(mu[2 * j - 1], mu[2 * j - 2]) for j in range(1, rep.n // 2 + 1)]
    return {"mu": mu, "eta_bar": [0.5 * (a - 1j * b) for a, b in pairs],
            "eta_hol": [0.5 * (a + 1j * b) for a, b in pairs]}


def dense_span_basis(mats, tol=forms.RANK_TOL):
    """Orthonormal basis (rows) of the span of flattened matrices."""
    if not mats:
        return np.zeros((0, 0))
    stack = np.stack([m.reshape(-1) for m in mats])
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    return vh[s > tol * max(1.0, s[0])]


def dense_level_chain(family, top):
    """Orthonormal bases of the level-fold product spans, levels 0..top."""
    dim = family[0].shape[0]
    chain = [dense_span_basis([np.eye(dim, dtype=complex)])]
    for _ in range(top):
        basis = chain[-1]
        if basis.shape[0] > 0:
            basis = dense_span_basis([b.reshape(dim, dim) @ f for b in basis for f in family])
        chain.append(basis)
    return chain


def sticks_out(a, b):
    """How far the row span of a sticks out of that of orthonormal rows b."""
    if a.shape[0] == 0:
        return 0.0
    if b.shape[0] == 0:
        return float(np.abs(a).max())
    return float(np.abs(a - (a @ b.conj().T) @ b).max())


class TestAgainstDenseChains:
    """The word chains against the dense SVD chains they replace."""

    @pytest.mark.parametrize("eps_prime", [1, -1])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_same_ranks_and_spans(self, n, eps_prime):
        rep = build_gamma(n)
        fbm = build_form_matrices(rep, eps_prime)
        for name, family in dense_families(rep, eps_prime).items():
            top = n + 1 if name == "mu" else n // 2 + 1
            want = dense_level_chain(family, top)
            got = fbm.chain(name, top)
            for level, (basis, rows) in enumerate(zip(got, want)):
                assert len(basis) == rows.shape[0], (name, level)
                mine = dense_span_basis([dense(w) for w in basis])
                assert sticks_out(mine, rows) < 1e-12, (name, level)
                assert sticks_out(rows, mine) < 1e-12, (name, level)

    def test_basis_is_products_of_the_family(self):
        # each kept mu^2 element is +-mu_j mu_k exactly: no rounding noise
        fbm = build_form_matrices(4)
        products = [word_product(words(a), words(b)) for a in fbm.mu for b in fbm.mu]
        for w in map(words, fbm.chain("mu", 2)[2]):
            assert any(w == p or w == {k: -c for k, c in p.items()} for p in products)


def coefficients(sums):
    """The dict path's coefficient matrix: one row per word sum, over the
    words that occur, sorted."""
    col = {w: i for i, w in enumerate(sorted({w for p in sums for w in p}))}
    mat = np.zeros((len(sums), len(col)), dtype=complex)
    for i, p in enumerate(sums):
        for w, c in p.items():
            mat[i, col[w]] = c
    return mat


def dict_span(products, m, tol=forms.RANK_TOL):
    """The dict path's span of word_product dicts: their coefficient matrix
    and the picked products, by the same SVD and pivoted Gram-Schmidt."""
    products = [p for p in (word_sum((1, p)) for p in products) if p]
    if not products:
        return np.zeros((0, 0), dtype=complex), []
    mat = coefficients(products)
    u, s, _ = np.linalg.svd(np.sqrt(m) * mat, full_matrices=False)
    rank = int(np.count_nonzero(s > tol * max(1.0, s[0])))
    coords, picked = u[:, :rank] * s[:rank], []
    for _ in range(rank):
        i = int(np.argmax(np.linalg.norm(coords, axis=1)))
        v = coords[i] / np.linalg.norm(coords[i])
        coords = coords - np.outer(coords @ v.conj(), v)
        picked.append(i)
    return mat, [products[i] for i in sorted(picked)]


def assert_same_span(groups, fbm):
    """The products pass on (left, right) groups of forms gives the dict
    path's matrix and picks bit for bit, the words of each pick in the same
    order."""
    products = [word_product(words(a), words(b))
                for left, right in groups for a in left for b in right]
    want_mat, want = dict_span(products, fbm.m)
    got = [f for f in NCDiffOp.products([(a, b, 0) for left, right in groups
                                         for a in left for b in right]) if len(f.c)]
    mat = forms._matrix(got) if got else np.zeros((0, 0), dtype=complex)
    assert mat.shape == want_mat.shape and np.array_equal(mat, want_mat)
    picks = forms._span(got, fbm.m)
    assert [list(words(p).items()) for p in picks] == [list(p.items()) for p in want]
    return picks


class TestAgainstDictPath:
    """The one products pass per level against the word_product dicts:
    same coefficients, picks and chains, bit for bit."""

    @pytest.mark.parametrize("eps_prime", [1, -1])
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_chains(self, n, eps_prime):
        fbm = build_form_matrices(n, eps_prime)
        for name in ("mu", "eta_bar", "eta_hol"):
            family = getattr(fbm, name)
            chain = fbm.chain(name, n + 1 if name == "mu" else n // 2 + 1)
            for basis, grown in zip(chain, chain[1:]):
                if basis:
                    picks = assert_same_span([(basis, family)], fbm)
                    assert ([list(words(p).items()) for p in grown]
                            == [list(words(p).items()) for p in picks])
                    assert np.array_equal(forms._matrix(basis),
                                          coefficients(list(map(words, basis))))
                else:
                    assert grown == []

    @pytest.mark.parametrize("eps_prime", [1, -1])
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_mixed_spans(self, n, eps_prime):
        fbm = build_form_matrices(n, eps_prime)
        hol, bar = fbm.chain("eta_hol", 2), fbm.chain("eta_bar", 2)
        for r in (1, 2):
            assert_same_span([(hol[p], bar[r - p]) for p in range(r + 1)], fbm)


class TestCommutatorDecomposition:
    def test_d_commutator_uses_mu(self):
        # [d, a] = sum_k del_k(a) tensor mu_k
        pkg = build_kahler_package(THETA4, Matching(((1, 2), (3, 4))), 1)
        a = TorusElement.random(THETA4, np.random.default_rng(1))
        com = pkg.d.commutator(NCDiffOp.mult(a, 16))
        want = NCDiffOp.zero(THETA4, 16)
        for k in range(1, 5):
            want = want + NCDiffOp.mult(a.derive(k), 16).compose(
                NCDiffOp.from_words(THETA4, 16, {(0,) * 4: words(FBM4.mu[k - 1])}))
        assert (com - want).residual_norm() < 1e-10

    def test_delbar_commutator_uses_eta_bar(self):
        # [delbar, a] = sum_j delta_j(a) tensor eta_bar_j (canonical matching)
        pkg = build_kahler_package(THETA4, Matching(((1, 2), (3, 4))), 1)
        a = TorusElement.random(THETA4, np.random.default_rng(2))
        com = pkg.del_bar.commutator(NCDiffOp.mult(a, 16))
        want = NCDiffOp.zero(THETA4, 16)
        for j in range(1, 3):
            want = want + NCDiffOp.mult(delta(a, j), 16).compose(
                NCDiffOp.from_words(THETA4, 16, {(0,) * 4: words(FBM4.eta_bar[j - 1])}))
        assert (com - want).residual_norm() < 1e-10


def product_map_via_operators(fbm, theta, x, y):
    """Oracle for product_map: lift the tuples to one-form operators
    X = sum_j x_j . eta_bar_j, multiply, and re-coordinate the result in the
    two-form basis G_pq = eta_bar_p eta_bar_q by least squares."""
    half = fbm.n // 2
    if len(x) != half or len(y) != half:
        raise DimensionMismatch(f"expected tuples of length {half}")
    dim = fbm.m
    eta_bar = [dense(w) for w in fbm.eta_bar]

    def lift(t):
        acc = TorusMatrix.zero(theta, (dim, dim))
        for tj, ej in zip(t, eta_bar):
            acc = acc + scalar_element(tj, dim).matmul(
                TorusMatrix.constant(theta, ej))
        return acc

    prod = lift(x).matmul(lift(y))
    basis = [eta_bar[p] @ eta_bar[q]
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


class TestProductMap:
    def test_basis_pairing(self):
        one = TorusElement.one(THETA4)
        zero = TorusElement.zero(THETA4)
        out = product_map((one, zero), (zero, one))
        assert out[0].close_to(one, 1e-9) and len(out) == 1

    def test_antisymmetry_of_basis_relations(self):
        # product_map(e_l, e_r) = -product_map(e_r, e_l) on constant tuples
        one = TorusElement.one(THETA4)
        zero = TorusElement.zero(THETA4)
        el, er = (one, zero), (zero, one)
        lhs = product_map(el, er)
        rhs = product_map(er, el)
        assert (lhs[0] + rhs[0]).is_zero(1e-9)

    @pytest.mark.parametrize("theta,fbm", [(THETA4, FBM4), (THETA6, FBM6)],
                             ids=["n4", "n6"])
    def test_against_operator_oracle(self, theta, fbm):
        rng = np.random.default_rng(3)
        half = theta.n // 2
        for _ in range(3):
            x = tuple(TorusElement.random(theta, rng, 1, 3) for _ in range(half))
            y = tuple(TorusElement.random(theta, rng, 1, 3) for _ in range(half))
            direct = product_map(x, y)
            oracle, lsq_res = product_map_via_operators(fbm, theta, x, y)
            assert lsq_res < 1e-10  # the product lies in the span of G_pq
            assert max((a - b).norm() for a, b in zip(direct, oracle)) < 1e-10
