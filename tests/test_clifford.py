"""Gamma matrices, grading, and charge conjugations."""

import dataclasses
from types import MappingProxyType

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
from nckahler.pauli import DYADIC_BITS, DYADIC_EXP, dense_words, gaussian_integers, pauli_words

DIMS = [2, 4, 6, 8, 10]


def dense_relations_residual(gammas, sigma):
    """Oracle: the relations' largest residual entry over the stacked
    (n, N, N) dense gammas."""
    G = np.array(gammas)
    eye = np.eye(G.shape[1])
    prods = G[:, None] @ G[None, :]
    anti = prods + prods.transpose(1, 0, 2, 3) + 2.0 * np.eye(len(G))[:, :, None, None] * eye
    return max(np.abs(G.conj().transpose(0, 2, 1) + G).max(), np.abs(anti).max(),
               np.abs(sigma.conj().T - sigma).max(), np.abs(sigma @ sigma - eye).max(),
               np.abs(sigma @ G + G @ sigma).max())


def dense_grading_residual(gammas, sigma, n):
    """Oracle: |gamma_1 ... gamma_n - c sigma|, c = 1 (n/2 even) or -i (n/2 odd)."""
    prod = np.eye(len(sigma), dtype=complex)
    for g in gammas:
        prod = prod @ g
    c = 1.0 if (n // 2) % 2 == 0 else -1j
    return float(np.abs(prod - c * sigma).max())


def dense_rank(gammas):
    """Oracle: the rank of the 2^n dense subset products gamma_S."""
    prods = [np.eye(len(gammas[0]), dtype=complex)]
    for g in gammas:
        prods += [p @ g for p in prods]
    return int(np.linalg.matrix_rank(np.stack([p.reshape(-1) for p in prods]), tol=1e-8))


def duplicated(rep):
    """rep with gamma_2 := gamma_1."""
    g = rep.gamma_words
    return dataclasses.replace(rep, gamma_words=(g[0], g[0]) + g[2:])


def gammas(rep):
    """The dense gamma_j of rep."""
    return [dense_words(g, rep.N) for g in rep.gamma_words]


def sigma(rep):
    return dense_words(rep.sigma_words, rep.N)


def conj(rep, variant):
    return dense_words(rep.conj_words(variant), rep.N)


def residuals(rep):
    return relations_residual(rep), grading_product_check(rep)


def oracle_residuals(rep):
    g, s = gammas(rep), sigma(rep)
    return dense_relations_residual(g, s), dense_grading_residual(g, s, rep.n)


class TestBuildGamma:
    def test_n2_exact_matrices(self):
        rep = build_gamma(2)
        g1 = 1j * np.array([[0, 1], [1, 0]])
        g2 = 1j * np.array([[0, -1j], [1j, 0]])
        assert np.array_equal(gammas(rep)[0], g1)
        assert np.array_equal(gammas(rep)[1], g2)
        assert np.array_equal(sigma(rep), np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("n", DIMS)
    def test_relations(self, n):
        rep = build_gamma(n)
        assert rep.N == 2 ** (n // 2)
        assert relations_residual(rep) == 0.0

    def test_n4_anticommutators(self):
        g = gammas(build_gamma(4))
        for j in range(4):
            for k in range(4):
                if j != k:
                    anti = g[j] @ g[k] + g[k] @ g[j]
                    assert np.abs(anti).max() < 1e-12

    def test_n6_squares(self):
        for g in gammas(build_gamma(6)):
            assert np.abs(g @ g + np.eye(8)).max() < 1e-12

    def test_odd_rejected(self):
        with pytest.raises(CliffordError):
            build_gamma(3)

    def test_too_large_rejected(self):
        with pytest.raises(CliffordError):
            build_gamma(12)


class TestWords:
    @pytest.mark.parametrize("n", DIMS)
    def test_words_are_the_transforms_of_the_views(self, n):
        # every generator is one word, and equals the Pauli transform of its
        # dense matrix repr for repr: zero parts are +0.0, as in (-1+0j)
        rep = build_gamma(n)
        for words in rep.gamma_words + (rep.sigma_words, rep.conj_plus_words,
                                        rep.conj_minus_words):
            assert len(words) == 1
            assert repr(dict(words)) == repr(pauli_words(dense_words(words, rep.N)))

    @pytest.mark.parametrize("n", DIMS)
    def test_residuals_equal_dense_oracle(self, n):
        rep = build_gamma(n)
        assert residuals(rep) == oracle_residuals(rep) == (0.0, 0.0)
        dup = duplicated(rep)
        assert residuals(dup) == oracle_residuals(dup)

    def test_views_are_read_only(self):
        # build_gamma builds and self-checks each n once and shares the rep,
        # so the rep is frozen and each word sum is a read-only view
        rep = build_gamma(4)
        assert build_gamma(4) is rep and build_gamma(6) is not rep
        for field in ("n", "gamma_words", "sigma_words", "conj_plus_words", "signs_minus"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rep, field, None)
        assert isinstance(rep.gamma_words, tuple)
        for words in rep.gamma_words + (rep.sigma_words, rep.conj_plus_words,
                                        rep.conj_minus_words):
            assert isinstance(words, MappingProxyType)
            with pytest.raises(TypeError):
                words[(0, 0)] = 1 + 0j


class TestGaussianIntegers:
    """pauli.gaussian_integers: c 2^e as Gaussian integers, e the smallest."""

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            size, e = int(rng.integers(1, 30)), int(rng.integers(0, DYADIC_EXP + 1))
            re, im = (rng.integers(-2 ** 40, 2 ** 40, size) for _ in range(2))
            re[rng.random(size) < 0.3] = 0
            c = np.ldexp(re, -e) + 1j * np.ldexp(im, -e)
            got, gre, gim = gaussian_integers(c)
            assert got <= e
            assert all(type(v) is int for v in gre + gim)
            assert [complex(r * 2.0 ** -got, i * 2.0 ** -got) for r, i in zip(gre, gim)] \
                == c.tolist()
            if got:
                # one bit less leaves a part that is not an integer
                half = np.concatenate((c.real, c.imag)) * 2.0 ** (got - 1)
                assert not np.array_equal(half, np.rint(half))

    @pytest.mark.parametrize("c, e, re, im", [
        ([0.75], 2, [3], [0]),
        ([4.0, -8j], 0, [4, 0], [0, -8]),
        ([0.25 - 0.5j, 2.0 ** -40], 40, [2 ** 38, 1], [-2 ** 39, 0]),
        ([1 + 2.0 ** -47], 47, [2 ** 47 + 1], [0]),
        ([2.0 ** 40, 2.0 ** -60], 60, [2 ** 100, 1], [0, 0]),
        ([], 0, [], []),
    ])
    def test_smallest_exponent(self, c, e, re, im):
        assert gaussian_integers(np.array(c, dtype=complex)) == (e, re, im)

    @pytest.mark.parametrize("bad", [1 / 3, 0.2, 1j / 3, 2.0 ** -61, 1 + 2.0 ** -(DYADIC_BITS),
                                     float("nan"), complex(0, float("inf"))])
    def test_refused(self, bad):
        # 1/3 is 6004799503160661 2^-54 as a float: within 2^-60, but of 53 bits
        with pytest.raises(ValueError):
            gaussian_integers(np.array([0.5, bad]))


class TestGrading:
    @pytest.mark.parametrize("n", DIMS)
    def test_product_normalization(self, n):
        assert grading_product_check(build_gamma(n)) == 0.0

    def test_sign_flip_sanity(self):
        rep = build_gamma(4)
        g = rep.gamma_words
        rep = dataclasses.replace(rep, gamma_words=({w: -c for w, c in g[0].items()},) + g[1:])
        # flipping one factor flips the product: residual becomes maximal
        assert grading_product_check(rep) == 2.0
        assert residuals(rep) == oracle_residuals(rep)


class TestChargeConjugation:
    @pytest.mark.parametrize("n", DIMS)
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
        C = conj(rep, "plus")
        assert np.abs(C @ C.conj() + np.eye(4)).max() < 1e-10  # eps = -1

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_intertwining_relations(self, n, variant):
        rep = build_gamma(n)
        C, s = conj(rep, variant), sigma(rep)
        eps, eps_p, eps_pp = rep.signs(variant)
        for g in gammas(rep):
            assert np.abs(C @ g.conj() - eps_p * g @ C).max() < 1e-10
        assert np.abs(C @ s.conj() - eps_pp * s @ C).max() < 1e-10
        assert np.abs(C @ C.conj() - eps * np.eye(rep.N)).max() < 1e-10
        assert np.abs(C @ C.conj().T - np.eye(rep.N)).max() < 1e-10

    @pytest.mark.parametrize("n", DIMS)
    def test_entries_exact(self, n):
        # C is a product of gammas: a monomial matrix with unit entries, no noise
        rep = build_gamma(n)
        for C in (conj(rep, "plus"), conj(rep, "minus")):
            assert set(np.unique(C).tolist()) <= {0, 1, -1, 1j, -1j}

    @pytest.mark.parametrize("n", DIMS)
    def test_canonical_phase(self, n):
        # column 0 of a word holds its phase, made 1
        rep = build_gamma(n)
        for variant in ("plus", "minus"):
            assert list(rep.conj_words(variant).values()) == [1 + 0j]
            C, signs = charge_conjugation(rep, variant)
            assert C == rep.conj_words(variant) and signs == rep.signs(variant)

    def test_unknown_variant_rejected(self):
        rep = build_gamma(2)
        for lookup in (rep.signs, rep.conj_words,
                       lambda v: charge_conjugation(rep, v)):
            with pytest.raises(ValueError):
                lookup("bogus")


class TestIrreducibility:
    @pytest.mark.parametrize("n", DIMS)
    def test_products_span_full_algebra(self, n):
        rep = build_gamma(n)
        assert irreducibility_rank(rep) == rep.N**2

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_count_equals_dense_rank(self, n):
        rep = build_gamma(n)
        for r in (rep, duplicated(rep)):
            assert irreducibility_rank(r) == dense_rank(gammas(r))

    @pytest.mark.parametrize("n", DIMS)
    def test_duplicated_gamma_fails(self, n):
        # gamma_2 := gamma_1 halves the distinct products, and breaks
        # {gamma_1, gamma_2} = 0 by 2: the relations self-check fails
        dup = duplicated(build_gamma(n))
        assert irreducibility_rank(dup) == dup.N**2 // 2
        assert relations_residual(dup) == 2.0
