"""Twisted torus algebra: product, involution, trace, derivations."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nckahler.torus import (
    PRUNE_TOL,
    DimensionMismatch,
    ThetaMatrix,
    TorusElement,
    TorusMatrix,
)

RNG = np.random.default_rng(42)
THETA4 = ThetaMatrix.random(4, RNG)
THETA2 = ThetaMatrix.random(2, RNG)


def l2_norm_sq(a):
    """GNS norm squared tau(a* a) = sum |alpha_m|^2."""
    return sum(abs(c) ** 2 for c in a.coeffs.values())


def inner_product_scalar(a, b):
    """tau(a* b) = sum_m conj(alpha_m) beta_m (Parseval form)."""
    if not a.theta.compatible(b.theta):
        raise DimensionMismatch("elements over different torus contexts")
    return sum(c.conjugate() * b.coeffs[m] for m, c in a.coeffs.items() if m in b.coeffs)


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
        assert (u1 * u2).close_to(TorusElement.monomial(theta, (1, 1)), 1e-9)

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

    def test_phase_formula_and_zero_modes(self):
        # lambda(m, k) = exp(2 pi i sum_{a<b} Theta_ab m_b k_a); a zero mode on
        # either side gives exactly the 1 + 0j of exp(0j)
        rng = np.random.default_rng(8)
        zero = (0,) * 4
        modes = [tuple(int(x) for x in rng.integers(-3, 4, size=4)) for _ in range(20)]
        up = THETA4.entries
        for m in modes + [zero]:
            for k in modes + [zero]:
                s = sum(up[a, b] * m[b] * k[a] for a in range(4) for b in range(a + 1, 4))
                got = THETA4.phase(m, k)
                assert abs(got - cmath.exp(2j * math.pi * s)) < 1e-12
                if zero in (m, k):
                    assert got == cmath.exp(0j) and math.copysign(1.0, got.imag) == 1.0

    @pytest.mark.parametrize("n", range(2, 12, 2))
    def test_phase_tables_are_the_scalar_bits_at_unit_modes(self, n):
        # at 0, +-e_i and e_i - e_j each argument is one Theta entry or 0, so
        # the tables hold the scalar path's bits, signed zeros included
        eye = np.eye(n, dtype=np.int64)
        i, j = np.divmod(np.arange(n * n), n)
        modes = np.concatenate([np.zeros((1, n), dtype=np.int64), eye, -eye, eye[i] - eye[j]])
        for seed in range(3):
            theta = ThetaMatrix.random(n, np.random.default_rng(seed))
            table = np.array([[theta.phase(m, k) for k in modes] for m in modes])
            assert theta.phases(modes[:, None], modes).tobytes() == table.tobytes()
            star = np.array([theta.star_phase(m) for m in modes])
            assert theta.star_phases(modes).tobytes() == star.tobytes()

    @pytest.mark.parametrize("n", range(2, 12, 2))
    def test_phase_tables_match_the_scalar_path(self, n):
        # one formula: on general modes a table holds the scalar path's bits,
        # whatever the table's shape, and the exact 1 at mode 0 is kept
        rng = np.random.default_rng(70 + n)
        theta = ThetaMatrix.random(n, rng)
        M, K = rng.integers(-3, 4, size=(30, n)), rng.integers(-3, 4, size=(20, n))
        M[0] = K[0] = 0
        table = np.array([[theta.phase(m, k) for k in K] for m in M])
        got = theta.phases(M[:, None], K)
        assert got.tobytes() == table.tobytes()
        assert theta.phases(M[:, None, None], K[:, None]).tobytes() == got[..., None].tobytes()
        assert np.array([theta.phases(m, K) for m in M]).tobytes() == table.tobytes()
        star = np.array([theta.star_phase(m) for m in M])
        assert theta.star_phases(M).tobytes() == star.tobytes()
        assert (got[0] == 1).all() and (got[:, 0] == 1).all() and theta.star_phases(M)[0] == 1

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
        assert (one * a).close_to(a, 1e-9) and (a * one).close_to(a, 1e-9)

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
        assert abs(gns - l2_norm_sq(a)) < 1e-10
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

    def test_frozen(self):
        # phase and to_json would otherwise disagree on an edited entry
        theta = ThetaMatrix.random(4, np.random.default_rng(12))
        before = theta.to_json(), theta.phase((0, 1, 0, 0), (1, 0, 0, 0))
        for arr in (theta.entries, theta._upper):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 1] += 0.25
        assert (theta.to_json(), theta.phase((0, 1, 0, 0), (1, 0, 0, 0))) == before

    def test_zero_shared_per_n(self):
        # Theta is read-only, so every caller of zero(n) can share one instance
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first, second = ThetaMatrix.zero(6), ThetaMatrix.zero(6)
        assert first is second and first.n == 6 and not first.entries.any()
        assert ThetaMatrix.zero(4) is not first

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
    def test_json_reads_the_whole_matrix(self):
        # the lower triangle and the diagonal are checked, not dropped
        for theta in ([[0.0, 0.3], [99.0, 0.0]], [[5.0, 0.3], [0.7, 9.0]],
                      [[1e-3, 0.3], [-0.3, 0.0]]):
            with pytest.raises(ValueError, match="skew-symmetric"):
                ThetaMatrix.from_json({"n": 2, "theta": theta})
        # within 1e-12 of skew, the matrix is skew-symmetrized exactly
        t = ThetaMatrix.from_json({"n": 2, "theta": [[0.0, 0.3], [-0.3 + 1e-13, 0.0]]})
        assert t.entries[0, 1] == -t.entries[1, 0] and abs(t.entries[0, 1] - 0.3) < 1e-13

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("theta, named", [
        ([[5, 0.3], [0.7, 9]], r"entry \(0, 0\) is 5.0 and entry \(0, 0\) is 5.0"),
        ([[0, 0.3], [0.7, 0]], r"entry \(0, 1\) is 0.3 and entry \(1, 0\) is 0.7"),
        ([[0, 0.3, 0, 0], [-0.3, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1.5, 0]],
         r"entry \(2, 3\) is 1.0 and entry \(3, 2\) is -1.5"),
    ], ids=["diagonal", "off-diagonal", "second-pair"])
    def test_first_non_skew_entry_named(self, theta, named):
        # the first (i, j) in row-major order, diagonal included, whose
        # |Theta_ij + Theta_ji| is over 1e-12, with both values
        with pytest.raises(ValueError, match=named):
            ThetaMatrix(theta)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entry_named(self, bad):
        entries = np.zeros((4, 4))
        entries[2, 1] = bad
        with pytest.raises(ValueError, match=r"theta entry \(2, 1\) is not finite"):
            ThetaMatrix(entries)


class TestSerialization:
    def test_roundtrip(self):
        a = TorusElement.random(THETA4, np.random.default_rng(9))
        b = TorusElement.from_json(THETA4, a.to_json())
        assert b.close_to(a, 1e-15)

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_coefficient_named(self, part, bad):
        # a NaN block would otherwise be pruned as if it were zero
        items = TorusElement.generator(THETA4, 2).to_json()
        items[0][part] = bad
        with pytest.raises(ValueError, match=r"mode \(0, 1, 0, 0\) is not finite"):
            TorusElement.from_json(THETA4, items)

    def test_inner_product_matches_trace_form(self):
        rng = np.random.default_rng(10)
        a, b = TorusElement.random(THETA4, rng), TorusElement.random(THETA4, rng)
        assert abs(inner_product_scalar(a, b) - (a.star() * b).trace()) < 1e-10


class TestOneContainer:
    """A TorusElement is the 1 x 1 TorusMatrix: one algebra, one is_zero."""

    def test_element_is_a_one_by_one_torus_matrix(self):
        a = TorusElement.random(THETA4, np.random.default_rng(30))
        assert isinstance(a, TorusMatrix) and a.shape == (1, 1)
        assert {m: b[0, 0] for m, b in a.blocks.items()} == dict(a.coeffs)
        with pytest.raises(TypeError):
            a.coeffs[(0,) * 4] = 1.0

    @pytest.mark.parametrize("c", [0.0, 1e-15, 1e-12, 5e-10, 2e-9, 1e-6, 1.0])
    def test_is_zero_agrees_across_containers(self, c):
        a = TorusElement.monomial(THETA4, (1, 0, 0, 0), c)
        M = TorusMatrix.from_entries(THETA4, [[a]])
        assert type(M) is TorusMatrix
        for tol in (PRUNE_TOL, 1e-11, 1e-9, 1.0):
            assert a.is_zero(tol) == M.is_zero(tol)

    def test_element_results_are_elements(self):
        rng = np.random.default_rng(31)
        a, b = TorusElement.random(THETA4, rng), TorusElement.random(THETA4, rng)
        for out in (a + b, a - b, -a, a.scale(2j), 2 * a, a * 0.5, a.mul(b), a * b,
                    a.star(), a.derive(1)):
            assert type(out) is TorusElement and out.shape == (1, 1)
        row = TorusMatrix.random(THETA4, (1, 2), rng)
        assert type(a.matmul(row)) is TorusMatrix and a.matmul(row).shape == (1, 2)

    def test_element_product_matches_matrix_product(self):
        rng = np.random.default_rng(32)
        a, b = TorusElement.random(THETA4, rng), TorusElement.random(THETA4, rng)
        A, B = (TorusMatrix.from_entries(THETA4, [[x]]) for x in (a, b))
        assert (A.matmul(B) - TorusMatrix.from_entries(THETA4, [[a * b]])).norm() == 0.0

    def test_element_blocks_are_the_matrix_blocks(self):
        # an element prunes by abs(complex(c)), TorusMatrix by np.hypot: the
        # same rounding, so the same blocks, bit for bit, at the threshold too
        below = float(np.nextafter(PRUNE_TOL, 0))
        values = [PRUNE_TOL, below, -PRUNE_TOL, 1j * below, complex(0.6, 0.8) * PRUNE_TOL,
                  complex(0.6, 0.8) * below, complex(below, below), np.complex128(-0.0 - 1j),
                  np.float64(below), 2, 0.0, -0.0, complex(-0.0, 0.0), 1.5 - 0.0j, math.inf,
                  math.nan]
        coeffs = {(i, 0): c for i, c in enumerate(values)}
        got = TorusElement(THETA2, coeffs).blocks
        want = TorusMatrix(THETA2, (1, 1), {m: [[c]] for m, c in coeffs.items()}).blocks
        assert list(got) == list(want) and (0, 0) in got and (1, 0) not in got
        for m, b in want.items():
            assert got[m].dtype == b.dtype and got[m].shape == b.shape == (1, 1)
            assert got[m].tobytes() == b.tobytes(), m

