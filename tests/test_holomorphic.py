"""Holomorphic elements, connections, flatness, H^0, and the dim-2 reduction."""

import cmath
import json
import math
from itertools import product

import numpy as np
import pytest
from scipy.linalg import null_space

from nckahler.holomorphic import (
    Connection,
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
from nckahler.torus import TWO_PI_I, DimensionMismatch, ThetaMatrix, TorusElement

RNG = np.random.default_rng(400)
THETA2 = ThetaMatrix.random(2, RNG)
THETA4 = ThetaMatrix.random(4, RNG)


def scalar_matrix(theta, value):
    return [[TorusElement.monomial(theta, (0,) * theta.n, value)]]


class TestDelbarTuple:
    def test_unit_is_holomorphic(self):
        assert all(t.is_zero() for t in delbar_tuple(TorusElement.one(THETA4)))

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
        assert basis[0].close_to(TorusElement.one(theta))

    def test_radius_zero(self):
        basis = holomorphic_kernel(THETA4, 0)
        assert len(basis) == 1

    def test_weakened_operator_gains_kernel(self):
        # replacing delta_1 by del_2 alone admits monomials with m_2 = 0
        eigs = [lambda m: TWO_PI_I * m[1],
                lambda m: TWO_PI_I * (m[3] + 1j * m[2])]
        basis = holomorphic_kernel(THETA4, 1, extra_ops=eigs)
        assert len(basis) == 3  # m_1 in {-1,0,1}, m_2 = m_3 = m_4 = 0


class TestFlatness:
    def test_grassmannian_flat(self):
        assert flatness_check(grassmannian(THETA4, 3)) == 0.0

    def test_constant_scalars_flat(self):
        A = [scalar_matrix(THETA4, 0.7 - 0.2j), scalar_matrix(THETA4, 1.5j)]
        assert flatness_check(Connection(THETA4, 1, A)) < 1e-15

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
        from nckahler.holomorphic import matrix_add, matrix_delta, matrix_mul, matrix_sub
        rng = np.random.default_rng(2)
        m = 2
        A = [[[TorusElement.random(THETA4, rng, 1, 2) for _ in range(m)]
              for _ in range(m)] for _ in range(2)]
        q, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))

        def conj(M):
            out = [[TorusElement.zero(THETA4) for _ in range(m)] for _ in range(m)]
            for i in range(m):
                for l in range(m):
                    for a in range(m):
                        for b in range(m):
                            out[i][l] = out[i][l] + (
                                q[i, a] * q[l, b].conjugate()) * M[a][b]
            return out

        def curvature(Al, Ar, l, r):
            return matrix_add(
                matrix_sub(matrix_delta(Ar, l), matrix_delta(Al, r)),
                matrix_sub(matrix_mul(Al, Ar), matrix_mul(Ar, Al)))

        F = curvature(A[0], A[1], 1, 2)
        Fg = curvature(conj(A[0]), conj(A[1]), 1, 2)
        diff = matrix_sub(Fg, conj(F))
        assert max(x.norm() for row in diff for x in row) < 1e-9


class TestH0:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_grassmannian_dimension(self, m):
        basis = h0_solve(grassmannian(THETA4, m), 3)
        assert len(basis) == m

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
        assert basis[0][1].is_zero()

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
        with pytest.raises(ValueError, match="dense solver limit"):
            h0_solve(grassmannian(theta, 1), 1000)


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

    def test_nonholomorphic_entry_detected(self):
        g = grassmannian(THETA4, 1)
        u1 = TorusElement.generator(THETA4, 1)
        res = morphism_check([[u1]], g, g)
        assert abs(res - 2 * math.pi) < 1e-10  # |delta_1(U_1)| = |2 pi i . i|

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

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            ps_compare(THETA4)
