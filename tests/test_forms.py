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
# The SVD cutoff of the dense oracles below, relative to max(1, s_0): the
# package's rank rule before the exact echelon.
RANK_TOL = 1e-10


def words(form):
    """The word sum {(x, z): c} of a form, in stored order."""
    return dict(zip(zip(form.x.tolist(), form.z.tolist()), form.c.tolist()))


def matrix(forms):
    """The coefficients of forms, one row each, over the words that occur in
    (x, z) order: the coefficient oracle of the dict path and the SVD rule."""
    x, z = np.concatenate([f.x for f in forms]), np.concatenate([f.z for f in forms])
    row = np.arange(len(forms)).repeat([len(f.c) for f in forms])
    col = np.unique(x * (z.max() + 1) + z, return_inverse=True)[1]
    mat = np.zeros((len(forms), col.max() + 1), dtype=complex)
    mat[row, col] = np.concatenate([f.c for f in forms])
    return mat


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

    def test_nan_defect_read(self):
        # a NaN word in the last family's last operator is kept, and its
        # anticommutators, after the finite ones, make the residual NaN
        bad = build_form_matrices(4)
        nan = NCDiffOp.identity(bad.mu[0].theta, bad.m).scale(np.nan)
        bad.eta_hol[-1] = bad.eta_hol[-1] + nan
        assert np.isnan(nilpotency_residual(bad))

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
        fbm = build_form_matrices(n, eps_prime)
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

    @pytest.mark.parametrize("size", [0.5, 2.0 ** -40])
    @pytest.mark.parametrize("n", [4, 6])
    def test_each_containment_row_can_fail(self, n, size):
        # a word outside span(mu) added to eta_bar_1 moves the mixed spans off
        # span(mu^r) at r = 1 and 2, both ways; each row reads the dimension
        # that sticks out, whatever the size of the word (a float distance
        # read a 2^-40 word as 6.4e-13 and 9.1e-13, under the tolerance)
        fbm = build_form_matrices(n)
        bar = fbm.eta_bar[0]
        fbm.eta_bar[0] = bar + NCDiffOp.from_words(
            bar.theta, bar.m, {(0,) * n: {(2 ** (n - 1), 2 ** n - 1): size}})
        rp = bidegree_decomposition_check(fbm)
        assert [(c.name, c.residual) for c in rp.failures()] == [
            (f"span({a}^{r}) inside span({b}^{r})", dim)
            for r, dims in ((1, (1, 1)), (2, (n - 1, n)))
            for (a, b), dim in zip((("mu", "eta mixed"), ("eta mixed", "mu")), dims)]

    @pytest.mark.parametrize("eps_prime", [1, -1])
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_containment_rows_read_exactly_zero(self, n, eps_prime):
        rp = bidegree_decomposition_check(build_form_matrices(n, eps_prime))
        rows = [c.residual for c in rp.checks if " inside span(" in c.name]
        assert rows == [0.0] * 4 and rp.all_pass


class TestOneChainPerFamily:
    """Each family's span chain is grown once per FormBasisMatrices: one span
    (forms._span, the exact echelon) per level, kept for later calls."""

    @staticmethod
    def count_spans(monkeypatch, fn):
        """The number of forms._span calls fn makes."""
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
        assert self.count_spans(monkeypatch, lambda: rank_table(fbm)) <= 18

    def test_bidegree_n6(self, monkeypatch):
        # mu: levels 1..6; eta_hol, eta_bar: levels 1..2; one mixed span per r
        fbm = build_form_matrices(6)
        assert self.count_spans(monkeypatch,
                                lambda: bidegree_decomposition_check(fbm)) <= 15

    def test_rank_table_then_bidegree_grows_each_family_once(self, monkeypatch):
        fbm = build_form_matrices(6)
        assert self.count_spans(monkeypatch, lambda: rank_table(fbm)) == 7 + 4 + 4
        # every chain level is kept: only the two mixed spans are new
        assert self.count_spans(monkeypatch,
                                lambda: bidegree_decomposition_check(fbm)) == 2
        assert self.count_spans(monkeypatch,
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


def count_products_passes(monkeypatch):
    """The job counts of the NCDiffOp.products passes made from now on."""
    calls, products = [], NCDiffOp.products

    def counting(jobs):
        calls.append(len(jobs))
        return products(jobs)

    monkeypatch.setattr(NCDiffOp, "products", staticmethod(counting))
    return calls


class TestLockstepChains:
    """The three families grow together: one products pass per level."""

    def test_one_pass_per_level(self, monkeypatch):
        fbm = build_form_matrices(6)
        calls = count_products_passes(monkeypatch)
        rank_table(fbm)
        # levels 2..7; eta_bar and eta_hol join the passes of levels 2..4 (the
        # level-3 basis is one form, whose products vanish)
        assert calls == [6 * 6 + 3 * 3 * 2, 15 * 6 + 3 * 3 * 2, 20 * 6 + 1 * 3 * 2,
                         15 * 6, 6 * 6, 1 * 6]
        bidegree_decomposition_check(fbm)
        assert len(calls) == 6 + 1

    def test_chain_is_grow(self):
        # a chain grown alone equals the one grown with the other families
        alone, together = build_form_matrices(4), build_form_matrices(4)
        together.grow(dict.fromkeys(forms.FAMILIES, 5))
        for name in forms.FAMILIES:
            assert ([list(map(words, level)) for level in alone.chain(name, 5)]
                    == [list(map(words, level)) for level in together.chains[name]])
        with pytest.raises(ValueError):
            alone.chain("nu", 1)

    def test_n10_table_and_bidegree(self):
        fbm = build_form_matrices(10)
        for row in rank_table(fbm):
            l = row["level"]
            assert row["omega_d"] == comb(10, l)
            assert row["omega_0q"] == row["omega_p0"] == comb(5, l)
        rp = bidegree_decomposition_check(fbm)
        assert rp.all_pass, [(c.name, c.residual) for c in rp.failures()]
        assert rp.max_residual == 0.0


def dense_families(rep, eps_prime):
    """The dense N^2 x N^2 mu, eta_bar, eta_hol of the kron formulas."""
    eye, sigma = np.eye(rep.N), dense_words(rep.sigma_words, rep.N)
    mu = [0.5 * np.kron(eye, dense_words(g, rep.N))
          + (0.5j * eps_prime) * np.kron(dense_words(g, rep.N), sigma) for g in rep.gamma_words]
    pairs = [(mu[2 * j - 1], mu[2 * j - 2]) for j in range(1, rep.n // 2 + 1)]
    return {"mu": mu, "eta_bar": [0.5 * (a - 1j * b) for a, b in pairs],
            "eta_hol": [0.5 * (a + 1j * b) for a, b in pairs]}


def dense_span_basis(mats, tol=RANK_TOL):
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
        fbm = build_form_matrices(n, eps_prime)
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


def dict_products(products):
    """The dict path's nonzero word_product dicts and their coefficient
    matrix."""
    products = [p for p in (word_sum((1, p)) for p in products) if p]
    return products, coefficients(products) if products else np.zeros((0, 0), dtype=complex)


def greedy_picks(mat, m, tol=RANK_TOL):
    """The rows of mat, in order, that raise the dense SVD rank of the rows
    picked before them: the singular values of those rows scaled by sqrt(m)
    (the dense fiber matrices') above tol max(1, s_0).  If the picks are
    U diag(s) vh, the picks and a row r, r = c vh + p with p orthogonal to vh,
    have the singular values of [[diag(s), 0], [c, |p|]], so one small SVD per
    row decides, and a pick updates s and vh."""
    mat = np.sqrt(m) * mat
    s, vh, picked = np.zeros(0), np.zeros((0, mat.shape[1]), dtype=complex), []

    def rank(sv):
        return int(np.count_nonzero(sv > tol * max(1.0, sv[0]))) if len(sv) else 0

    for i, row in enumerate(mat):
        c = vh.conj() @ row
        p = row - c @ vh
        t = np.linalg.norm(p)
        small = np.zeros((len(s) + 1,) * 2, dtype=complex)
        small[:-1, :-1], small[-1, :-1], small[-1, -1] = np.diag(s), c, t
        _, sv, vmh = np.linalg.svd(small)
        if rank(sv) > rank(s):
            picked.append(i)
            s, vh = sv, vmh @ np.vstack([vh, p / t])
    return picked


def assert_same_span(groups, fbm):
    """The products pass on (left, right) groups of forms gives the dict
    path's matrix bit for bit, and the echelon picks the products that the
    greedy SVD oracle picks, the words of each in the dict path's order."""
    want, want_mat = dict_products([word_product(words(a), words(b))
                                    for left, right in groups for a in left for b in right])
    got = [f for f in NCDiffOp.products([(a, b, 0) for left, right in groups
                                         for a in left for b in right]) if len(f.c)]
    mat = matrix(got) if got else np.zeros((0, 0), dtype=complex)
    assert mat.shape == want_mat.shape and np.array_equal(mat, want_mat)
    picks = forms._spans(got, [0, len(got)])[0]
    assert ([list(words(p).items()) for p in picks]
            == [list(want[i].items()) for i in greedy_picks(want_mat, fbm.m)])
    return picks


class TestAgainstDictPath:
    """The one products pass per level against the word_product dicts:
    same coefficients and chains bit for bit, and the greedy SVD oracle's
    picks."""

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
                    assert np.array_equal(matrix(basis),
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


class TestExactRank:
    """The echelon's rank is exact: a defect far under any float cutoff
    counts."""

    def test_a_2_to_the_minus_40_defect_counts(self):
        fbm = build_form_matrices(4)
        products = [p for p in NCDiffOp.products([(b, f, 0) for b in fbm.mu for f in fbm.mu])
                    if len(p.c)]
        clean = forms._spans(products, [0, len(products)])[0]
        assert len(clean) == 6
        # a product the echelon leaves out, 2^-40 added to its first word
        i = next(i for i, p in enumerate(products) if all(p is not q for q in clean))
        p = products[i]
        defect = NCDiffOp.from_words(p.theta, p.m, {(0,) * 4: {(int(p.x[0]), int(p.z[0])): 2.0 ** -40}})
        bad = products[:i] + [p + defect] + products[i + 1:]
        picks = forms._spans(bad, [0, len(bad)])[0]
        assert len(picks) == 7 and any(q is bad[i] for q in picks)
        # the SVD rule with the 1e-10 cutoff drops it, greedily and whole
        mat = matrix(bad)
        assert len(greedy_picks(mat, fbm.m)) == 6
        s = np.linalg.svd(np.sqrt(fbm.m) * mat, compute_uv=False)
        assert np.count_nonzero(s > RANK_TOL * max(1.0, s[0])) == 6

    @pytest.mark.parametrize("seed", range(8))
    def test_random_gaussian_rows_against_the_svd_oracle(self, seed):
        # rows over Z[i] with exact dependencies: Gaussian-integer mixes of
        # fewer sparse rows; the echelon's picks are the greedy SVD picks
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, 6))
        basis = (rng.integers(-3, 4, (rank, 10)) + 1j * rng.integers(-3, 4, (rank, 10))) \
            * (rng.random((rank, 10)) < 0.5)
        mat = (rng.integers(-2, 3, (12, rank)) + 1j * rng.integers(-2, 3, (12, rank))) @ basis
        rows = [{k: (int(v.real), int(v.imag)) for k, v in enumerate(r) if v} for r in mat]
        picks = forms._span(list(range(len(rows))), rows)
        assert picks == greedy_picks(mat, 1)
        assert len(picks) == np.linalg.matrix_rank(mat)

    def test_unit_multiples_left_out(self):
        f = FBM4.mu[0]
        g = FBM4.mu[1]
        assert forms._spans([f, f.scale(1j), g, f.scale(-1), f.scale(-1j)], [0, 5]) == [[f, g]]

    def test_non_dyadic_coefficient_refused(self):
        fbm = build_form_matrices(2)
        third = fbm.mu[0].scale(1 / 3)
        with pytest.raises(ValueError, match="dyadic"):
            forms._spans([third], [0, 1])


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
