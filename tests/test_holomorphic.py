"""Holomorphic elements, connections, flatness, H^0, and the dim-2 reduction."""

import cmath
import json
import math
import time
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from nckahler import holomorphic
from nckahler.holomorphic import (
    Connection,
    _components,
    _row_ids,
    _svd,
    del_tau,
    delbar_tuple,
    delta,
    delta_eigenvalue,
    flatness_check,
    grassmannian,
    h0_solve,
    holomorphic_kernel,
    morphism_check,
    ps_compare,
)
from nckahler.torus import TWO_PI_I, DimensionMismatch, ThetaMatrix, TorusElement, TorusMatrix

RNG = np.random.default_rng(400)
THETA2 = ThetaMatrix.random(2, RNG)
THETA4 = ThetaMatrix.random(4, RNG)


def scalar_matrix(theta, value):
    return [[TorusElement.monomial(theta, (0,) * theta.n, value)]]


class TestDelbarTuple:
    def test_unit_is_holomorphic(self):
        assert all(t.is_zero(1e-9) for t in delbar_tuple(TorusElement.one(THETA4)))

    def test_monomial_eigenvalues(self):
        m = (2, -1, 3, 4)
        a = TorusElement.monomial(THETA4, m)
        out = delbar_tuple(a)
        for j in (1, 2):
            want = TWO_PI_I * (m[2 * j - 1] + 1j * m[2 * j - 2])
            assert abs(out[j - 1].coeffs.get(m, 0.0) - want) < 1e-12

    def test_leibniz(self):
        rng = np.random.default_rng(1)
        a, b = TorusElement.random(THETA4, rng), TorusElement.random(THETA4, rng)
        for j in (1, 2):
            lhs = delta(a * b, j)
            rhs = delta(a, j) * b + a * delta(b, j)
            assert lhs.close_to(rhs, 1e-9)


class TestKernel:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_only_scalars(self, n):
        theta = ThetaMatrix.random(n, np.random.default_rng(n))
        basis = holomorphic_kernel(theta, 3)
        assert len(basis) == 1
        assert basis[0].close_to(TorusElement.one(theta), 1e-9)

    def test_radius_zero(self):
        basis = holomorphic_kernel(THETA4, 0)
        assert len(basis) == 1

    def test_negative_radius_refused(self):
        # the CLI refuses it first; a library caller meets this refusal
        with pytest.raises(ValueError, match="radius must be >= 0"):
            holomorphic_kernel(THETA4, -1)

    @pytest.mark.parametrize("n, radii", [(2, [*range(6), 300]), (4, [*range(6), 300]),
                                          (6, range(6))])
    def test_exactly_the_unit(self, n, radii):
        # the eigenvalue test is exact on the integer grid: at every radius
        # the kernel is U^0 with coefficient exactly 1, and nothing else
        theta = ThetaMatrix.random(n, np.random.default_rng(70 + n))
        for radius in radii:
            basis = holomorphic_kernel(theta, radius)
            assert [b.to_json() for b in basis] == [TorusElement.one(theta).to_json()]

    def test_weakened_operator_gains_kernel(self, monkeypatch):
        # replacing delta_1 by del_2 alone admits monomials with m_2 = 0
        eigenvalue = holomorphic.delta_eigenvalue
        monkeypatch.setattr(holomorphic, "delta_eigenvalue",
                            lambda m, j: TWO_PI_I * m[1] if j == 1 else eigenvalue(m, j))
        basis = holomorphic_kernel(THETA4, 1)
        assert len(basis) == 3  # m_1 in {-1,0,1}, m_2 = m_3 = m_4 = 0

    def test_weakened_second_pair_stays_on_its_pair(self, monkeypatch):
        # replacing delta_2 by del_4 alone admits m_3 in {-1,0,1}, the rest 0:
        # delta_2 is tested on modes zero off its own pair
        eigenvalue = holomorphic.delta_eigenvalue
        monkeypatch.setattr(holomorphic, "delta_eigenvalue",
                            lambda m, j: TWO_PI_I * m[3] if j == 2 else eigenvalue(m, j))
        basis = holomorphic_kernel(THETA4, 1)
        assert [list(b.coeffs) for b in basis] == [[(0, 0, m3, 0)] for m3 in (-1, 0, 1)]

    def test_pair_product_in_box_order(self, monkeypatch):
        # oracle: the scan of every box mode, under a mutation that widens
        # both pair kernels, gives the same monomials in the same order
        monkeypatch.setattr(holomorphic, "delta_eigenvalue",
                            lambda m, j: TWO_PI_I * m[2 * j - 1])
        want = [m for m in product(range(-2, 3), repeat=4)
                if all(holomorphic.delta_eigenvalue(m, j) == 0 for j in (1, 2))]
        basis = holomorphic_kernel(THETA4, 2)
        assert len(want) == 25
        assert [b.to_json() for b in basis] == [
            TorusElement.monomial(THETA4, m).to_json() for m in want]


class TestConnection:
    @pytest.mark.parametrize("m", [0, -1])
    def test_refuses_m_below_one(self, m):
        # h0_solve on m = 0 failed inside its assembly with a broadcast error
        with pytest.raises(ValueError, match="m must be >= 1"):
            Connection(THETA2, m, [[]])


class TestFlatness:
    def test_grassmannian_flat(self):
        assert flatness_check(grassmannian(THETA4, 3)) == 0.0

    def test_constant_scalars_flat(self):
        A = [scalar_matrix(THETA4, 0.7 - 0.2j), scalar_matrix(THETA4, 1.5j)]
        assert flatness_check(Connection(THETA4, 1, A)) < 1e-15

    @pytest.mark.parametrize("n, j", [(4, 1), (4, 2), (6, 1), (6, 2), (6, 3)])
    def test_nan_curvature_read(self, n, j):
        # a NaN coefficient is kept, so every curvature holding it is NaN and
        # so is the residual, whichever pair (l, r) it lands in
        theta = THETA4 if n == 4 else ThetaMatrix.random(6, np.random.default_rng(6))
        zero, nan = TorusElement.zero(theta), complex(math.nan, 0.0)
        A = [[[TorusElement.monomial(theta, (0,) * n, nan) if i == j else zero]]
             for i in range(1, n // 2 + 1)]
        assert math.isnan(flatness_check(Connection(theta, 1, A)))

    def test_generator_pair_curvature(self):
        # A_1 = U_1, A_2 = U_2: delta_1(A_2) = 2 pi i U_2 dominates, and the
        # commutator contributes |1 - e^{2 pi i Theta_12}| at mode (1,1,0,0)
        A = [[[TorusElement.generator(THETA4, 1)]], [[TorusElement.generator(THETA4, 2)]]]
        res = flatness_check(Connection(THETA4, 1, A))
        assert abs(res - 2 * math.pi) < 1e-10

    def test_commutator_only_curvature(self):
        # A_1 = U_2, A_2 = U_4 are killed by the cross deltas, leaving exactly
        # the twisted commutator: residual |1 - e^{2 pi i Theta_24}|
        A = [[[TorusElement.generator(THETA4, 2)]], [[TorusElement.generator(THETA4, 4)]]]
        res = flatness_check(Connection(THETA4, 1, A))
        want = abs(1 - cmath.exp(2j * math.pi * THETA4.entries[1, 3]))
        assert abs(res - want) < 1e-10

    def test_gauge_invariance_rank_one_phase(self):
        # at rank 1 a constant unitary is a phase: the residual is unchanged
        rng = np.random.default_rng(2)
        A = [[[TorusElement.random(THETA4, rng, 1, 3)]] for _ in range(2)]
        conn = Connection(THETA4, 1, A)
        phase = cmath.exp(0.7j)
        gauged = Connection(
            THETA4, 1,
            [[[phase * Aj[0][0] * phase.conjugate()]] for Aj in A])
        assert abs(flatness_check(conn) - flatness_check(gauged)) < 1e-12

    def test_gauge_covariance_constant_unitary(self):
        # under A_j -> u A_j u* (constant u, so delta_j(u) = 0) the curvature
        # conjugates entry by entry: F' = u F u*
        rng = np.random.default_rng(2)
        m = 2
        A = [TorusMatrix.random(THETA4, (m, m), rng, 1, 2) for _ in range(2)]
        q, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        u = TorusMatrix.constant(THETA4, q)

        def conj(M):
            return u.matmul(M).matmul(u.star())

        def delta_j(M, j):
            return TorusMatrix(THETA4, M.shape,
                               {k: delta_eigenvalue(k, j) * b for k, b in M.blocks.items()})

        def curvature(Al, Ar, l, r):
            return (delta_j(Ar, l) - delta_j(Al, r)) + (Al.matmul(Ar) - Ar.matmul(Al))

        F = curvature(A[0], A[1], 1, 2)
        Fg = curvature(conj(A[0]), conj(A[1]), 1, 2)
        assert (Fg - conj(F)).norm() < 1e-9


class TestH0:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_grassmannian_dimension(self, m):
        basis = h0_solve(grassmannian(THETA4, m), 3)
        assert len(basis) == m

    def test_negative_radius_refused(self):
        # the CLI refuses it first; a library caller meets this refusal
        with pytest.raises(ValueError, match="radius must be >= 0"):
            h0_solve(grassmannian(THETA4, 1), -1)

    def test_shifted_scalar_connection(self):
        # A_j = -delta_j-eigenvalue(m0) . 1 makes U^{m0} a holomorphic section
        m0 = (1, -1, 0, 2)
        A = []
        for j in (1, 2):
            ev = TWO_PI_I * (m0[2 * j - 1] + 1j * m0[2 * j - 2])
            A.append(scalar_matrix(THETA4, -ev))
        basis = h0_solve(Connection(THETA4, 1, A), 2)
        assert len(basis) == 1
        assert list(basis[0][0].coeffs) == [m0]

    def test_dense_path_matches_diagonal(self):
        # a non-scalar constant A forces the dense solver; with A nilpotent
        # strictly upper triangular constant the kernel is still computable
        theta = THETA2
        c = TorusElement.monomial(theta, (0, 0), 0.3)
        z = TorusElement.zero(theta)
        A = [[[z, c], [z, z]]]
        basis = h0_solve(Connection(theta, 2, A), 1)
        # nabla(xi) = delta xi + A xi: constants with A xi = 0, i.e. xi_2 = 0
        assert len(basis) == 1
        assert basis[0][1].is_zero(1e-9)

    def test_random_connection_generically_rigid(self):
        rng = np.random.default_rng(3)
        A = [[[TorusElement.random(THETA2, rng, 1, 3)]]]
        basis = h0_solve(Connection(THETA2, 1, A), 2)
        # reported, not asserted, by the solver; generically empty
        assert len(basis) in (0, 1)


def dense_h0(conn, radius):
    """Oracle: the whole box system assembled densely, one entry at a time,
    and its null space (columns) over the unknowns (box mode, fiber index)."""
    theta, m, half = conn.theta, conn.m, conn.theta.n // 2
    modes = list(product(range(-radius, radius + 1), repeat=theta.n))
    entries = []  # (j, output mode, i, unknown, coefficient)
    for j in range(half):
        for t, mode in enumerate(modes):
            for i in range(m):
                entries.append((j, mode, i, t * m + i, delta_eigenvalue(mode, j + 1)))
                for l in range(m):
                    for k, c in conn.A[j][i][l].coeffs.items():
                        out = tuple(x + y for x, y in zip(k, mode))
                        entries.append((j, out, i, t * m + l, c * theta.phase(k, mode)))
    out_index = {s: o for o, s in enumerate(dict.fromkeys(e[1] for e in entries))}
    system = np.zeros((half * len(out_index) * m, len(modes) * m), dtype=complex)
    for j, out, i, u, c in entries:
        system[(j * len(out_index) + out_index[out]) * m + i, u] += c
    return null_space(system, rcond=1e-10), modes


def projector(vectors):
    q, _ = np.linalg.qr(vectors)
    return q @ q.conj().T


def as_columns(basis, modes, m):
    index = {mode: t for t, mode in enumerate(modes)}
    cols = np.zeros((len(modes) * m, len(basis)), dtype=complex)
    for b, xi in enumerate(basis):
        for i, x in enumerate(xi):
            for mode, c in x.coeffs.items():
                cols[index[mode] * m + i, b] = c
    return cols


def shifted_scalar(m0=(1, -1, 0, 2)):
    """A_j = -delta_j-eigenvalue(m0) . 1 makes U^{m0} a holomorphic section."""
    A = [scalar_matrix(THETA4, -delta_eigenvalue(m0, j)) for j in (1, 2)]
    return Connection(THETA4, 1, A)


def bench_shaped(m):
    """The benchmark's flat connections: A_1 = c U_2 P for a constant pattern
    P, A_2 = 0 on the n=4 torus."""
    cu2 = TorusElement.generator(THETA4, 2).scale(0.8 - 1.3j)
    z = TorusElement.zero(THETA4)
    A1 = [[cu2]] if m == 1 else [[z, cu2], [z, z]]
    return Connection(THETA4, m, [A1, [[z] * m for _ in range(m)]])


def twisted_extension(k=(1, 1, 1, 0), q=(0, -1, 0, 1), c=0.7 + 0.2j):
    """m = 2, A_j = [[0, c e_j U^k], [0, -delta_j-eigenvalue(q)]] with e_j the
    delta_j-eigenvalue of k + q: H^0 holds (1, 0) and (-c lambda(k, q)
    U^{k+q}, U^q), so the phase at the multi-generator mode k acting on U^q
    enters the span."""
    kq = tuple(x + y for x, y in zip(k, q))
    z = TorusElement.zero(THETA4)
    A = [[[z, TorusElement.monomial(THETA4, k, c * delta_eigenvalue(kq, j))],
          [z, TorusElement.monomial(THETA4, (0,) * 4, -delta_eigenvalue(q, j))]] for j in (1, 2)]
    return Connection(THETA4, 2, A)


ORACLE_CASES = {
    "grassmannian m=1": (lambda: grassmannian(THETA4, 1), 2),
    "grassmannian m=2": (lambda: grassmannian(THETA4, 2), 1),
    "grassmannian m=3": (lambda: grassmannian(THETA4, 3), 1),
    "shifted scalar": (shifted_scalar, 2),
    "nilpotent m=2": (lambda: Connection(THETA2, 2, [[
        [TorusElement.zero(THETA2), TorusElement.monomial(THETA2, (0, 0), 0.3)],
        [TorusElement.zero(THETA2), TorusElement.zero(THETA2)]]]), 2),
    "random m=1": (lambda: Connection(THETA2, 1, [[[TorusElement.random(
        THETA2, np.random.default_rng(3), 1, 3)]]]), 2),
    "c U_2 m=1": (lambda: bench_shaped(1), 2),
    "c U_2 m=2": (lambda: bench_shaped(2), 1),
    "twisted extension m=2": (twisted_extension, 1),
    "(U_2, U_4)": (lambda: Connection(THETA4, 1, [
        [[TorusElement.generator(THETA4, 2)]], [[TorusElement.generator(THETA4, 4)]]]), 2),
}


class TestH0AgainstDenseOracle:
    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_dimension_and_span(self, name):
        make, radius = ORACLE_CASES[name]
        conn = make()
        want, modes = dense_h0(conn, radius)
        got = as_columns(h0_solve(conn, radius), modes, conn.m)
        assert got.shape[1] == want.shape[1]
        if want.shape[1]:
            assert np.abs(projector(got) - projector(want)).max() <= 1e-8


def test_twisted_extension_basis():
    # the section over U^q carries -c lambda(k, q) at U^{k+q}: the phase of
    # the three-generator mode k, taken from ThetaMatrix.phases
    k, q, c = (1, 1, 1, 0), (0, -1, 0, 1), 0.7 + 0.2j
    basis = h0_solve(twisted_extension(k, q, c), 1)
    assert len(basis) == 2
    (x1, x2), = [xi for xi in basis if xi[1].coeffs]
    ratio = x1.coeffs[(1, 0, 1, 1)] / x2.coeffs[q]
    assert set(x1.coeffs) == {(1, 0, 1, 1)} and set(x2.coeffs) == {q}
    assert abs(ratio + c * THETA4.phase(k, q)) <= 1e-12 and abs(THETA4.phase(k, q) - 1) > 0.1


class TestH0Constant:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_grassmannian_monomial_basis(self, m):
        basis = h0_solve(grassmannian(THETA4, m), 2)
        one = [{"m": [0, 0, 0, 0], "re": 1.0, "im": 0.0}]
        want = [[one if l == i else [] for l in range(m)] for i in range(m)]
        assert json.loads(json.dumps([[x.to_json() for x in xi] for xi in basis])) == want

    def test_shifted_scalar_monomial_basis(self):
        basis = h0_solve(shifted_scalar(), 2)
        want = [[[{"m": [1, -1, 0, 2], "re": 1.0, "im": 0.0}]]]
        assert json.loads(json.dumps([[x.to_json() for x in xi] for xi in basis])) == want

    def test_huge_radius_refused_before_enumeration(self):
        # the box would hold 2001^6 modes
        theta = ThetaMatrix.random(6, np.random.default_rng(6))
        with pytest.raises(ValueError, match="MAX_BYTES limit"):
            h0_solve(grassmannian(theta, 1), 1000)


THETAS = {2: THETA2, 4: THETA4, 6: ThetaMatrix.random(6, np.random.default_rng(6))}
DIAGONAL_CASES = ("grassmannian m=1", "grassmannian m=2", "grassmannian m=3", "shifted scalar")


@st.composite
def constant_diagonal(draw):
    """(connection, radius): each A_j[i][i] is 0, a constant, or
    -delta_j-eigenvalue(k_i) for one mode k_i per line, near the box, which
    cancels delta_j exactly at U^{k_i}; off the diagonal A_j is 0."""
    n = draw(st.sampled_from([2, 4, 6]))
    m, radius = draw(st.integers(1, 4)), draw(st.integers(0, 3 if n < 6 else 2))
    theta, zero = THETAS[n], (0,) * n
    modes = [draw(st.lists(st.integers(-radius - 1, radius + 1), min_size=n, max_size=n))
             for _ in range(m)]
    constant = st.complex_numbers(max_magnitude=50, allow_nan=False, allow_infinity=False)

    def entry(j, i):
        c = draw(st.just(0j) | constant | st.just(-delta_eigenvalue(modes[i], j + 1)))
        return TorusElement(theta, {zero: c})

    A = [[[entry(j, i) if i == l else TorusElement.zero(theta) for l in range(m)]
          for i in range(m)] for j in range(n // 2)]
    return Connection(theta, m, A), radius


def bits(basis):
    """Every coefficient of a basis as float.hex, so signed zeros count."""
    return [[[(k, c.real.hex(), c.imag.hex()) for k, c in x.coeffs.items()] for x in xi]
            for xi in basis]


def two_pi_on_n2():
    """A_1 = 2 pi on n = 2 cancels delta_1 = -2 pi at U_1 exactly."""
    return Connection(THETA2, 1, [scalar_matrix(THETA2, 2 * math.pi)])


class TestH0DirectPath:
    """A constant diagonal connection skips the block split; its basis is the
    block path's, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(constant_diagonal())
    @example((grassmannian(THETA4, 2), 3))
    @example((shifted_scalar(), 2))
    @example((two_pi_on_n2(), 3))
    def test_same_basis_as_the_block_path(self, case):
        conn, radius = case
        column, taken = holomorphic._column_factors, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(holomorphic, "_column_factors", lambda *a: taken.append(1) or column(*a))
            got = h0_solve(conn, radius)
            mp.setattr(holomorphic, "_column_factors", holomorphic._block_factors)
            want = h0_solve(conn, radius)
        assert taken and bits(got) == bits(want)

    def test_two_pi_on_n2_is_u1(self):
        basis = h0_solve(two_pi_on_n2(), 3)
        assert [list(xi[0].coeffs) for xi in basis] == [[(1, 0)]]
        assert bits(basis) == [[[((1, 0), "0x1.0000000000000p+0", "-0x0.0p+0")]]]

    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_the_input_picks_the_path(self, name, monkeypatch):
        make, radius = ORACLE_CASES[name]
        column, taken = holomorphic._column_factors, []
        monkeypatch.setattr(holomorphic, "_column_factors",
                            lambda *a: taken.append(1) or column(*a))
        h0_solve(make(), radius)
        assert bool(taken) == (name in DIAGONAL_CASES)


MODE_ROWS = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-5, 5) | st.integers(-2 ** 40, 2 ** 40), min_size=n, max_size=n),
    min_size=1, max_size=40))


class TestRowIds:
    @settings(max_examples=200, deadline=None)
    @given(MODE_ROWS)
    @example([[2 ** 40, -2 ** 40, 3, 2 ** 40, -2 ** 40, 1],
              [-2 ** 40, 2 ** 40, 3, 0, 2 ** 40, 1],
              [2 ** 40, -2 ** 40, 3, 2 ** 40, -2 ** 40, 1]])  # the code is ranked again
    def test_same_inverse_as_unique_rows(self, rows):
        rows = np.array(rows, dtype=np.int64)
        want = np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
        assert np.array_equal(_row_ids(rows), want)


def lapack_svd(stack):
    return np.linalg.svd(stack, full_matrices=False)[1:]


def bench_connections(seed):
    """The benchmark's seeded leaf-linalg connections and radii: c1 U_2 on
    m = 1, c2 U_2 above the diagonal on m = 2, and the m = 2 Grassmannian."""
    theta = ThetaMatrix.random(4, np.random.default_rng(seed))
    rng = np.random.default_rng([seed, 1])
    c1, c2 = (complex(rng.normal(), rng.normal()) for _ in range(2))
    u2, z = TorusElement.generator(theta, 2), TorusElement.zero(theta)
    return [(Connection(theta, 1, [[[u2.scale(c1)]], [[z]]]), 2),
            (Connection(theta, 2, [[[z, u2.scale(c2)], [z, z]], [[z, z], [z, z]]]), 2),
            (grassmannian(theta, 2), 3)]


class TestOneColumnBlocks:
    @pytest.mark.parametrize("scale", [0.0, 1e-13, 1.0])
    @pytest.mark.parametrize("h", [1, 2, 5])
    def test_against_lapack(self, h, scale):
        rng = np.random.default_rng(h)
        stack = scale * (rng.normal(size=(300, h, 1)) + 1j * rng.normal(size=(300, h, 1)))
        (s, vh), (want_s, want_vh) = _svd(stack), lapack_svd(stack)
        assert s.shape == want_s.shape and vh.shape == want_vh.shape
        assert np.array_equal(vh, want_vh)
        # LAPACK's own rounding of a column norm is up to 3 ulps from np.linalg.norm
        assert np.all(np.abs(s - want_s) <= 4 * np.spacing(want_s))

    @pytest.mark.parametrize("seed", [1, 7, 20261017])
    def test_bench_connections_as_with_lapack(self, seed, monkeypatch):
        widths = []

        def recording(stack):
            widths.append(stack.shape[2])
            return _svd(stack)

        def bases():
            return [[[x.to_json() for x in xi] for xi in h0_solve(conn, radius)]
                    for conn, radius in bench_connections(seed)]

        monkeypatch.setattr(holomorphic, "_svd", recording)
        got = bases()
        assert 1 in widths
        monkeypatch.setattr(holomorphic, "_svd", lapack_svd)
        assert got == bases()


class TestComponents:
    def test_same_labels_as_scipy(self):
        # four graphs in five have at most size / 2 edges, so isolated
        # vertices; seed 0 has no edges at all
        for seed in range(300):
            rng = np.random.default_rng(seed)
            size = int(rng.integers(1, 200))
            top = size // 2 + 1 if seed % 5 else 3 * size
            n_edges = 0 if seed == 0 else int(rng.integers(0, top))
            a, b = rng.integers(0, size, (2, n_edges))
            graph = coo_array((np.ones(n_edges), (a, b)), shape=(size, size))
            want_n, want = connected_components(graph, directed=False)
            got_n, got = _components(a, b, size)
            assert got_n == want_n and np.array_equal(got, want), seed

    def test_shuffled_path_in_few_rounds(self):
        # one label jump per round would take tens of thousands of rounds here
        order = np.random.default_rng(5).permutation(10 ** 5)
        start = time.perf_counter()
        n_blocks, labels = _components(order[:-1], order[1:], 10 ** 5)
        assert time.perf_counter() - start < 2.0
        assert n_blocks == 1 and not labels.any()


class TestSvdFallback:
    @pytest.mark.parametrize("seed", [1, 7, 20261017])
    def test_gesvd_retry_as_gesdd(self, seed, monkeypatch):
        conn, radius = bench_connections(seed)[1]  # m = 2: 4 x 2 blocks
        want = h0_solve(conn, radius)
        svd, failed = np.linalg.svd, []

        def failing(a, *args, **kwargs):
            if a.shape[-1] > 1:
                failed.append(a.shape)
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(holomorphic.np.linalg, "svd", failing)
        got = h0_solve(conn, radius)
        assert failed and len(got) == len(want)
        for xi, eta in zip(got, want):
            for x, y in zip(xi, eta):
                assert x.coeffs.keys() == y.coeffs.keys()
                assert all(abs(x.coeffs[k] - y.coeffs[k]) <= 1e-12 for k in x.coeffs)


class TestMorphism:
    def test_identity(self):
        g = grassmannian(THETA4, 2)
        one = TorusElement.one(THETA4)
        z = TorusElement.zero(THETA4)
        phi = [[one, z], [z, one]]
        assert morphism_check(phi, g, g) < 1e-15

    def test_constant_scalar(self):
        g1, g2 = grassmannian(THETA4, 2), grassmannian(THETA4, 2)
        c = TorusElement.monomial(THETA4, (0, 0, 0, 0), 2.5 - 1j)
        z = TorusElement.zero(THETA4)
        assert morphism_check([[c, z], [z, c]], g1, g2) < 1e-15

    @pytest.mark.parametrize("j", [1, 2])
    def test_nan_defect_read(self, j):
        # a NaN in A_j^{(2)} is kept: the j-th defect is NaN, and so is the
        # residual, whichever j it is
        g = grassmannian(THETA4, 1)
        nan = TorusElement.monomial(THETA4, (0, 0, 0, 0), complex(0.0, math.nan))
        c2 = Connection(THETA4, 1, [[[nan if i == j else TorusElement.zero(THETA4)]]
                                    for i in (1, 2)])
        assert morphism_check([[TorusElement.one(THETA4)]], g, g) == 0.0
        assert math.isnan(morphism_check([[TorusElement.one(THETA4)]], g, c2))

    def test_nonholomorphic_entry_detected(self):
        g = grassmannian(THETA4, 1)
        u1 = TorusElement.generator(THETA4, 1)
        res = morphism_check([[u1]], g, g)
        assert abs(res - 2 * math.pi) < 1e-10  # |delta_1(U_1)| = |2 pi i . i|

    def test_rectangular_constant(self):
        # a 2 x 1 phi from the rank-1 to the rank-2 trivial bundle
        g1, g2 = grassmannian(THETA4, 1), grassmannian(THETA4, 2)
        c = TorusElement.monomial(THETA4, (0, 0, 0, 0), 2.5 - 1j)
        phi = [[c], [TorusElement.one(THETA4)]]
        assert morphism_check(phi, g1, g2) < 1e-15

    def test_rectangular_nonholomorphic_entry(self):
        g1, g2 = grassmannian(THETA4, 1), grassmannian(THETA4, 2)
        phi = [[TorusElement.zero(THETA4)], [TorusElement.generator(THETA4, 1)]]
        assert abs(morphism_check(phi, g1, g2) - 2 * math.pi) < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            morphism_check([[TorusElement.one(THETA4)]],
                           grassmannian(THETA4, 2), grassmannian(THETA4, 1))


class TestPSCompare:
    def test_normalization_on_u2(self):
        u2 = TorusElement.generator(THETA2, 2)
        assert delta(u2, 1).close_to(del_tau(u2), 1e-12)

    def test_u1(self):
        u1 = TorusElement.generator(THETA2, 1)
        # both sides: 2 pi i . i . U_1 = -2 pi U_1
        assert delta(u1, 1).close_to(-2 * math.pi * u1, 1e-12)
        assert del_tau(u1).close_to(-2 * math.pi * u1, 1e-12)

    def test_box_residual(self):
        assert ps_compare(THETA2, radius=4) < 1e-12

    def test_exact_on_seeded_thetas(self):
        # delta_1 and del_tau scale each coefficient by one eigenvalue, the same
        # complex number on both sides, so their difference, unpruned, is
        # exactly 0
        for seed in range(20):
            theta = ThetaMatrix.random(2, np.random.default_rng(seed))
            assert [ps_compare(theta, radius=r) for r in (0, 4, 9, 40)] == [0.0] * 4

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            ps_compare(THETA4)

    def test_negative_radius_refused(self):
        # an empty box would compare nothing and report residual 0
        with pytest.raises(ValueError, match="radius must be >= 0"):
            ps_compare(THETA2, radius=-1)
