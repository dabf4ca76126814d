"""Differential-form ranks and the (0,2) product map."""

from math import comb

import numpy as np
import pytest

from nckahler.clifford import build_gamma
from nckahler.forms import (
    bidegree_decomposition_check,
    build_form_matrices,
    form_rank,
    nilpotency_residual,
    product_map,
    product_map_via_operators,
    rank_table,
)
from nckahler.holomorphic import delta
from nckahler.kahler import Matching, build_kahler_package
from nckahler.ncdiff import NCDiffOp
from nckahler.torus import ThetaMatrix, TorusElement

RNG = np.random.default_rng(300)
THETA4 = ThetaMatrix.random(4, RNG)
THETA6 = ThetaMatrix.random(6, RNG)
FBM4 = build_form_matrices(4)
FBM6 = build_form_matrices(6)


class TestNilpotency:
    @pytest.mark.parametrize("fbm", [FBM4, FBM6], ids=["n4", "n6"])
    def test_families_square_to_zero(self, fbm):
        assert nilpotency_residual(fbm) < 1e-12

    def test_mu_linearly_independent(self):
        stack = np.stack([m.reshape(-1) for m in FBM4.mu])
        assert np.linalg.matrix_rank(stack, tol=1e-10) == 4


class TestEtaBarClosedForm:
    @pytest.mark.parametrize("eps_prime", [1, -1])
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_mu_combination_equals_closed_form(self, n, eps_prime):
        # eta_bar_j = (mu_2j - i mu_{2j-1}) / 2 is, with eta = gamma_2j - i gamma_{2j-1},
        # (1 tensor eta + i eps' eta tensor sigma) / 4
        rep = build_gamma(n)
        fbm = build_form_matrices(rep, eps_prime)
        eye = np.eye(rep.N)
        for j in range(1, n // 2 + 1):
            eta = rep.gammas[2 * j - 1] - 1j * rep.gammas[2 * j - 2]
            alt = 0.25 * (np.kron(eye, eta) + 1j * eps_prime * np.kron(eta, rep.sigma))
            assert np.abs(alt - fbm.eta_bar[j - 1]).max() <= 1e-12


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


class TestCommutatorDecomposition:
    def test_d_commutator_uses_mu(self):
        # [d, a] = sum_k del_k(a) tensor mu_k
        pkg = build_kahler_package(THETA4, Matching(((1, 2), (3, 4))), 1)
        a = TorusElement.random(THETA4, np.random.default_rng(1))
        com = pkg.d.commutator(NCDiffOp.mult(a, 16))
        want = NCDiffOp.zero(THETA4, 16)
        for k in range(1, 5):
            want = want + NCDiffOp.mult(a.derive(k), 16).compose(
                NCDiffOp.constant(THETA4, FBM4.mu[k - 1]))
        assert (com - want).residual_norm() < 1e-10

    def test_delbar_commutator_uses_eta_bar(self):
        # [delbar, a] = sum_j delta_j(a) tensor eta_bar_j (canonical matching)
        pkg = build_kahler_package(THETA4, Matching(((1, 2), (3, 4))), 1)
        a = TorusElement.random(THETA4, np.random.default_rng(2))
        com = pkg.del_bar.commutator(NCDiffOp.mult(a, 16))
        want = NCDiffOp.zero(THETA4, 16)
        for j in range(1, 3):
            want = want + NCDiffOp.mult(delta(a, j), 16).compose(
                NCDiffOp.constant(THETA4, FBM4.eta_bar[j - 1]))
        assert (com - want).residual_norm() < 1e-10


class TestProductMap:
    def test_basis_pairing(self):
        one = TorusElement.one(THETA4)
        zero = TorusElement.zero(THETA4)
        out = product_map((one, zero), (zero, one))
        assert out[0].close_to(one) and len(out) == 1

    def test_antisymmetry_of_basis_relations(self):
        # product_map(e_l, e_r) = -product_map(e_r, e_l) on constant tuples
        one = TorusElement.one(THETA4)
        zero = TorusElement.zero(THETA4)
        el, er = (one, zero), (zero, one)
        lhs = product_map(el, er)
        rhs = product_map(er, el)
        assert (lhs[0] + rhs[0]).is_zero()

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
