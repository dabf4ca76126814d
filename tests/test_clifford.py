"""Gamma matrices, grading, and charge conjugations."""

import numpy as np
import pytest

from nckahler.clifford import (
    SIGNS_MINUS,
    SIGNS_PLUS,
    CliffordError,
    build_gamma,
    charge_conjugation,
    grading_product_check,
    irreducibility_rank,
    relations_residual,
)


class TestBuildGamma:
    def test_n2_exact_matrices(self):
        rep = build_gamma(2)
        g1 = 1j * np.array([[0, 1], [1, 0]])
        g2 = 1j * np.array([[0, -1j], [1j, 0]])
        sigma = np.diag([1.0, -1.0])
        assert np.array_equal(rep.gammas[0], g1)
        assert np.array_equal(rep.gammas[1], g2)
        assert np.array_equal(rep.sigma, sigma)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_relations(self, n):
        rep = build_gamma(n)
        assert rep.N == 2 ** (n // 2)
        assert relations_residual(rep) < 1e-12

    def test_n4_anticommutators(self):
        rep = build_gamma(4)
        for j in range(4):
            for k in range(4):
                if j != k:
                    anti = rep.gammas[j] @ rep.gammas[k] + rep.gammas[k] @ rep.gammas[j]
                    assert np.abs(anti).max() < 1e-12

    def test_n6_squares(self):
        rep = build_gamma(6)
        for g in rep.gammas:
            assert np.abs(g @ g + np.eye(8)).max() < 1e-12

    def test_odd_rejected(self):
        with pytest.raises(CliffordError):
            build_gamma(3)

    def test_too_large_rejected(self):
        with pytest.raises(CliffordError):
            build_gamma(12)


class TestGrading:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_product_normalization(self, n):
        assert grading_product_check(build_gamma(n)) < 1e-12

    def test_sign_flip_sanity(self):
        rep = build_gamma(4)
        rep.gammas[0] = -rep.gammas[0]
        # flipping one factor flips the product: residual becomes maximal
        assert abs(grading_product_check(rep) - 2.0) < 1e-12


class TestChargeConjugation:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_sign_tables(self, n):
        rep = build_gamma(n)
        assert rep.signs_plus == SIGNS_PLUS[n % 8]
        assert rep.signs_minus == SIGNS_MINUS[n % 8]

    def test_n2_values(self):
        rep = build_gamma(2)
        assert rep.signs_plus == (-1, 1, -1)
        assert rep.signs_minus == (1, -1, -1)

    def test_n4_j_squared(self):
        rep = build_gamma(4)
        C = rep.conj_plus
        assert np.abs(C @ C.conj() + np.eye(4)).max() < 1e-10  # eps = -1

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_intertwining_relations(self, n, variant):
        rep = build_gamma(n)
        C = rep.conj_matrix(variant)
        eps, eps_p, eps_pp = rep.signs(variant)
        for g in rep.gammas:
            assert np.abs(C @ g.conj() - eps_p * g @ C).max() < 1e-10
        assert np.abs(C @ rep.sigma.conj() - eps_pp * rep.sigma @ C).max() < 1e-10
        assert np.abs(C @ C.conj() - eps * np.eye(rep.N)).max() < 1e-10
        assert np.abs(C @ C.conj().T - np.eye(rep.N)).max() < 1e-10

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_entries_exact(self, n):
        # C is a product of gammas: a monomial matrix with unit entries, no noise
        rep = build_gamma(n)
        for C in (rep.conj_plus, rep.conj_minus):
            assert set(np.unique(C).tolist()) <= {0, 1, -1, 1j, -1j}

    def test_unknown_variant_rejected(self):
        rep = build_gamma(2)
        for lookup in (rep.signs, rep.conj_matrix,
                       lambda v: charge_conjugation(rep, v)):
            with pytest.raises(ValueError):
                lookup("bogus")


class TestIrreducibility:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_products_span_full_algebra(self, n):
        rep = build_gamma(n)
        assert irreducibility_rank(rep) == rep.N**2
