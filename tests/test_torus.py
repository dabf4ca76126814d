"""Twisted torus algebra: product, involution, trace, derivations."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nckahler.torus import (
    DimensionMismatch,
    ThetaMatrix,
    TorusElement,
    inner_product_scalar,
)

RNG = np.random.default_rng(42)
THETA4 = ThetaMatrix.random(4, RNG)
THETA2 = ThetaMatrix.random(2, RNG)


def swap_oracle_phase(theta, m, k):
    """Phase of U^m U^k obtained ONLY from the pairwise generator relation,
    by bubble-sorting the letter word into normal order.

    A letter is (generator index, sign); swapping adjacent letters with
    distinct generators a (left) and b (right) and signs s, t uses
    U_a^s U_b^t = exp(2 pi i Theta_{ba} s t) U_b^t U_a^s."""

    def letters(expo):
        out = []
        for g, e in enumerate(expo):
            out.extend([(g, 1 if e > 0 else -1)] * abs(e))
        return out

    word = letters(m) + letters(k)
    phase = 1.0 + 0.0j
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            (a, s), (b, t) = word[i], word[i + 1]
            if a > b:
                phase *= cmath.exp(2j * math.pi * theta.entries[b, a] * s * t)
                word[i], word[i + 1] = word[i + 1], word[i]
                changed = True
    return phase


class TestProduct:
    def test_commutative_case(self):
        theta = ThetaMatrix.zero(2)
        u1, u2 = TorusElement.generator(theta, 1), TorusElement.generator(theta, 2)
        assert (u1 * u2).close_to(TorusElement.monomial(theta, (1, 1)))

    def test_generator_relation(self):
        # U_2 U_1 = exp(2 pi i Theta_12) U^{(1,1)}
        u1, u2 = TorusElement.generator(THETA2, 1), TorusElement.generator(THETA2, 2)
        prod = u2 * u1
        want = cmath.exp(2j * math.pi * THETA2.entries[0, 1])
        assert abs(prod.coeffs[(1, 1)] - want) < 1e-12

    def test_generator_relation_all_pairs(self):
        # U_j U_l = exp(2 pi i Theta_{lj}) U_l U_j
        gens = [TorusElement.generator(THETA4, j) for j in range(1, 5)]
        for j in range(4):
            for l in range(4):
                if j == l:
                    continue
                lhs = gens[j] * gens[l]
                rhs = cmath.exp(2j * math.pi * THETA4.entries[l, j]) * (gens[l] * gens[j])
                assert lhs.close_to(rhs, 1e-12)

    @given(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
           st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_phase_against_swap_oracle(self, m, k):
        m, k = tuple(m), tuple(k)
        assert abs(THETA4.phase(m, k) - swap_oracle_phase(THETA4, m, k)) < 1e-10

    def test_associativity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = TorusElement.random(THETA4, rng)
            b = TorusElement.random(THETA4, rng)
            c = TorusElement.random(THETA4, rng)
            assert ((a * b) * c).close_to(a * (b * c), 1e-10)

    def test_unital(self):
        one = TorusElement.one(THETA4)
        a = TorusElement.random(THETA4, np.random.default_rng(1))
        assert (one * a).close_to(a) and (a * one).close_to(a)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            TorusElement.one(THETA4) * TorusElement.one(THETA2)


class TestStar:
    def test_single_generator(self):
        u1 = TorusElement.generator(THETA4, 1)
        s = u1.star()
        assert s.close_to(TorusElement.monomial(THETA4, (-1, 0, 0, 0)), 1e-12)

    def test_unitarity(self):
        # U^m (U^m)* = 1 for any monomial
        for m in [(1, 2, 0, -1), (-2, 3, 1, 1), (0, 0, 5, 0)]:
            u = TorusElement.monomial(THETA4, m)
            assert (u * u.star()).close_to(TorusElement.one(THETA4), 1e-12)
            assert (u.star() * u).close_to(TorusElement.one(THETA4), 1e-12)

    def test_product_star_via_swap_oracle(self):
        # star(U_1 U_2) has the phase of inverting and reversing letter by letter
        u1, u2 = TorusElement.generator(THETA4, 1), TorusElement.generator(THETA4, 2)
        lhs = (u1 * u2).star()
        rhs = u2.star() * u1.star()
        assert lhs.close_to(rhs, 1e-12)

    def test_antiautomorphism(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b = TorusElement.random(THETA4, rng), TorusElement.random(THETA4, rng)
            assert (a * b).star().close_to(b.star() * a.star(), 1e-10)

    @given(st.integers(0, 10))
    @settings(max_examples=25, deadline=None)
    def test_involution(self, seed):
        a = TorusElement.random(THETA4, np.random.default_rng(seed))
        assert a.star().star().close_to(a, 1e-12)


class TestTrace:
    def test_unit(self):
        assert TorusElement.one(THETA4).trace() == 1.0

    def test_monomial(self):
        assert TorusElement.generator(THETA4, 1).trace() == 0.0

    def test_traciality(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = TorusElement.random(THETA4, rng), TorusElement.random(THETA4, rng)
            assert abs((a * b).trace() - (b * a).trace()) < 1e-10

    def test_positivity_parseval(self):
        rng = np.random.default_rng(4)
        a = TorusElement.random(THETA4, rng)
        gns = (a.star() * a).trace()
        assert abs(gns - a.l2_norm_sq()) < 1e-10
        assert gns.real >= 0 and abs(gns.imag) < 1e-12

    def test_faithful(self):
        a = TorusElement.monomial(THETA4, (1, 0, 2, 0), 1e-3)
        assert (a.star() * a).trace().real > 0


class TestDerive:
    def test_generator_eigenvalue(self):
        u1 = TorusElement.generator(THETA4, 1)
        assert u1.derive(1).close_to(2j * math.pi * u1, 1e-12)

    def test_trace_vanishes(self):
        rng = np.random.default_rng(5)
        for j in range(1, 5):
            a = TorusElement.random(THETA4, rng)
            assert abs(a.derive(j).trace()) < 1e-12

    def test_leibniz(self):
        rng = np.random.default_rng(6)
        for j in range(1, 5):
            a, b = TorusElement.random(THETA4, rng), TorusElement.random(THETA4, rng)
            lhs = (a * b).derive(j)
            rhs = a.derive(j) * b + a * b.derive(j)
            assert lhs.close_to(rhs, 1e-9)

    def test_derivations_commute(self):
        a = TorusElement.random(THETA4, np.random.default_rng(7))
        for j in range(1, 5):
            for l in range(1, 5):
                assert a.derive(j).derive(l).close_to(a.derive(l).derive(j), 1e-9)

    def test_index_range(self):
        with pytest.raises(IndexError):
            TorusElement.one(THETA4).derive(5)


class TestTruncate:
    def test_unit_at_zero(self):
        one = TorusElement.one(THETA4)
        assert one.truncate(0).close_to(one)

    def test_generator_at_zero(self):
        assert TorusElement.generator(THETA4, 1).truncate(0).is_zero()

    def test_idempotent_on_small_support(self):
        a = TorusElement.random(THETA4, np.random.default_rng(8), radius=2)
        assert a.truncate(2).close_to(a)
        assert a.truncate(2).truncate(2).close_to(a.truncate(2))


class TestTheta:
    def test_skew_enforced(self):
        with pytest.raises(ValueError):
            ThetaMatrix(np.ones((2, 2)))

    def test_skew_enforced_without_relative_slack(self):
        # 1e6 against -1e6 - 1 is within np.allclose's default rtol=1e-5
        with pytest.raises(ValueError):
            ThetaMatrix([[0.0, 1e6], [-1e6 - 1, 0.0]])

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            ThetaMatrix(np.zeros((3, 3)))

    def test_rational_warns(self):
        with pytest.warns(UserWarning):
            ThetaMatrix([[0.0, 0.25], [-0.25, 0.0]])

    def test_json_roundtrip(self):
        t2 = ThetaMatrix.from_json(THETA4.to_json())
        assert t2.compatible(THETA4)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_nearby_theta_incompatible(self):
        # 0.3 and 0.300001 are within np.allclose's default rtol=1e-5, yet
        # they are different algebras
        near = ThetaMatrix([[0.0, 0.3], [-0.3, 0.0]])
        far = ThetaMatrix([[0.0, 0.300001], [-0.300001, 0.0]])
        assert not near.compatible(far)
        with pytest.raises(DimensionMismatch):
            TorusElement.generator(near, 1) * TorusElement.generator(far, 2)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_json_uses_upper_triangle_only(self):
        obj = {"n": 2, "theta": [[0.0, 0.3], [99.0, 0.0]]}
        t = ThetaMatrix.from_json(obj)
        assert abs(t.entries[1, 0] + 0.3) < 1e-15


class TestSerialization:
    def test_roundtrip(self):
        a = TorusElement.random(THETA4, np.random.default_rng(9))
        b = TorusElement.from_json(THETA4, a.to_json())
        assert b.close_to(a, 1e-15)

    def test_inner_product_matches_trace_form(self):
        rng = np.random.default_rng(10)
        a, b = TorusElement.random(THETA4, rng), TorusElement.random(THETA4, rng)
        assert abs(inner_product_scalar(a, b) - (a.star() * b).trace()) < 1e-10
