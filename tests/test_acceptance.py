"""Acceptance suite: the ten headline guarantees, one pass/fail line each.

The verification grid (torus dims 2/4/6, three random deformation matrices
each, every matching, both signs) is built once and shared across criteria.
"""

import cmath
import math
import time
from itertools import product as iproduct
from math import comb

import numpy as np
import pytest

from nckahler.clifford import (
    SIGNS_MINUS,
    SIGNS_PLUS,
    build_gamma,
    grading_product_check,
    relations_residual,
)
from nckahler.forms import (
    bidegree_decomposition_check,
    build_form_matrices,
    form_rank,
)
from nckahler.holomorphic import (
    Connection,
    flatness_check,
    grassmannian,
    h0_solve,
    holomorphic_kernel,
    ps_compare,
)
from nckahler.kahler import (
    build_kahler_package,
    enumerate_matchings,
    verify_distinctness,
    verify_n22,
    verify_pm_conjugation,
    verify_real_structure,
)
from nckahler.ncdiff import NCDiffOp
from nckahler.pauli import dense_words
from nckahler.torus import ThetaMatrix, TorusElement, TorusMatrix

from test_ncdiff import inner_product
from test_torus import swap_oracle_phase

TOL = 1e-10
GRID_DIMS = (2, 4, 6)
THETAS_PER_DIM = 3

_cache = {}


def grid():
    """(dim -> rep), (dim -> thetas), and all N=(2,2) reports on the grid."""
    if _cache:
        return _cache
    rng = np.random.default_rng(2024)
    reps = {n: build_gamma(n) for n in GRID_DIMS}
    thetas = {n: [ThetaMatrix.random(n, rng) for _ in range(THETAS_PER_DIM)]
              for n in GRID_DIMS}
    reports = []  # (dim, theta_idx, matching, eps, report)
    pm = []  # pm-conjugation residual of each (dim, theta, matching)
    for n in GRID_DIMS:
        for ti, theta in enumerate(thetas[n]):
            for matching in enumerate_matchings(n):
                pkgs = {eps: build_kahler_package(theta, matching, eps)
                        for eps in (1, -1)}
                for eps, pkg in pkgs.items():
                    reports.append((n, ti, matching, eps,
                                    verify_n22(pkg, tol=TOL)))
                pm.append(verify_pm_conjugation(pkgs[1], pkgs[-1]))
    _cache.update(reps=reps, thetas=thetas, reports=reports, pm=pm)
    return _cache


def emit(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_clifford_relations():
    t0 = time.time()
    worst = 0.0
    for n in (2, 4, 6, 8):
        rep = build_gamma(n)
        worst = max(worst, relations_residual(rep), grading_product_check(rep))
    rep2 = build_gamma(2)
    g1, g2 = (dense_words(g, 2) for g in rep2.gamma_words)
    exact = (
        np.array_equal(g1, 1j * np.array([[0, 1], [1, 0]]))
        and np.array_equal(g2, 1j * np.array([[0, -1j], [1j, 0]]))
        and np.array_equal(dense_words(rep2.sigma_words, 2), np.diag([1.0, -1.0]))
    )
    dt = time.time() - t0
    emit(1, "Clifford relations n=2..8, exact n=2 matrices",
         worst < 1e-12 and exact and dt < 1.0,
         f"max residual {worst:.1e}, {dt:.2f}s")


def test_criterion_02_sign_tables():
    t0 = time.time()
    ok = True
    for n in (2, 4, 6):
        rep = build_gamma(n)
        ok = ok and rep.signs_plus == SIGNS_PLUS[n % 8]
        ok = ok and rep.signs_minus == SIGNS_MINUS[n % 8]
    dt = time.time() - t0
    emit(2, "both charge conjugations match the sign tables, n=2,4,6",
         ok and dt < 5.0, f"{dt:.2f}s")


CORE_NAMES = (
    "DD^2 = -sum del_r^2", "DDbar^2 = -sum del_r^2", "{DD, DDbar} = 0",
    "d^2 = 0", "[T_script, d] = d", "[I, T_script] = 0",
    "[I, gamma_tilde] = 0", "[I, star] = 0", "[I, [I, d]] = -d",
    "{d, d2*} = 0", "{d*, d2} = 0",
)


def test_criterion_03_core_chain():
    t0 = time.time()
    worst = 0.0
    for _, _, _, _, rp in grid()["reports"]:
        for c in rp.checks:
            if c.name in CORE_NAMES:
                worst = max(worst, c.residual)
    dt = time.time() - t0
    emit(3, "core operator chain on the whole grid", worst < TOL and dt < 60.0,
         f"max residual {worst:.1e}, {dt:.1f}s")


def test_criterion_04_full_n22_checklist():
    worst = 0.0
    ok = True
    for n, ti, matching, eps, rp in grid()["reports"]:
        worst = max(worst, max(c.residual for c in rp.checks if c.tol == TOL))
        if not rp.all_pass:
            ok = False
    emit(4, "full N=(2,2) checklist for every (dim, matching, eps')",
         ok and worst < TOL, f"max residual {worst:.1e}")


def test_criterion_05_matching_counts():
    counts = [len(enumerate_matchings(k)) for k in (2, 4, 6, 8)]
    wanted = [math.prod(range(k - 1, 0, -2)) for k in (2, 4, 6, 8)]
    g = grid()
    distinct = all(
        verify_distinctness(g["thetas"][k][0])
        for k in (4, 6))
    emit(5, "matching counts 1,3,15,105 and pairwise-distinct d2",
         counts == [1, 3, 15, 105] and counts == wanted and distinct,
         f"counts {counts}")


def test_criterion_06_pm_conjugation():
    worst = max(grid()["pm"])
    emit(6, "kron(sigma,1) conjugates the eps'=+1 differentials to eps'=-1",
         worst < 1e-12, f"max residual {worst:.1e}")


def test_criterion_07_form_ranks():
    t0 = time.time()
    ok = True
    for n in (4, 6):
        fbm = build_form_matrices(n)
        for level in range(0, n + 2):
            ok = ok and form_rank(fbm, "mu", level) == (comb(n, level) if level <= n else 0)
            half = n // 2
            want = comb(half, level) if level <= half else 0
            ok = ok and form_rank(fbm, "eta_bar", level) == want
            ok = ok and form_rank(fbm, "eta_hol", level) == want
        rp = bidegree_decomposition_check(fbm, tol=TOL)
        ok = ok and rp.all_pass
    fbm2 = build_form_matrices(2)
    ok = ok and form_rank(fbm2, "eta_bar", 2) == 0
    dt = time.time() - t0
    emit(7, "form ranks binomial tables and bidegree decomposition",
         ok and dt < 30.0, f"{dt:.1f}s")


def test_criterion_08_holomorphic_suite():
    rng = np.random.default_rng(88)
    ok = True
    detail = []
    for n in (2, 4, 6):
        for _ in range(5):
            theta = ThetaMatrix.random(n, rng)
            basis = holomorphic_kernel(theta, 3)
            ok = ok and len(basis) == 1
    theta4 = ThetaMatrix.random(4, rng)
    for m in (1, 2, 3):
        ok = ok and len(h0_solve(grassmannian(theta4, m), 3)) == m
    # unitary-generator connection: the cross delta terms vanish for the pair
    # (A_1, A_2) = (U_2, U_4), leaving exactly the twisted commutator
    A = [[[TorusElement.generator(theta4, 2)]],
         [[TorusElement.generator(theta4, 4)]]]
    res = flatness_check(Connection(theta4, 1, A))
    want = abs(1 - cmath.exp(2j * math.pi * theta4.entries[1, 3]))
    ok = ok and abs(res - want) < 1e-10
    detail.append(f"flatness {res:.3f} vs {want:.3f}")
    theta2 = ThetaMatrix.random(2, rng)
    ps = ps_compare(theta2, radius=4)
    ok = ok and ps < 1e-12
    detail.append(f"ps {ps:.1e}")
    emit(8, "holomorphic kernel, H0 dimensions, flatness, dim-2 reduction",
         ok, "; ".join(detail))


def test_criterion_09_real_structure():
    g = grid()
    ok = True
    worst = 0.0
    for n in (2, 4):
        for variant in ("plus", "minus"):
            rp = verify_real_structure(g["thetas"][n][0], rep=g["reps"][n],
                                       variant=variant, tol=TOL)
            ok = ok and rp.all_pass
            worst = max(worst, rp.max_residual)
    emit(9, "JD = eps'DJ and zero/first-order conditions, dims 2 and 4",
         ok and worst < TOL, f"max residual {worst:.1e}")


def test_criterion_10_oracle_cross_checks():
    theta = ThetaMatrix.random(2, np.random.default_rng(99))
    rng = np.random.default_rng(100)
    modes = list(iproduct(range(-3, 4), repeat=2))
    # the 98 unit columns e_i U^m of the box, column 2 t + i for m = modes[t]
    units = TorusMatrix(theta, (2, 2 * len(modes)),
                        {m: np.eye(2, 2 * len(modes), 2 * t, dtype=complex)
                         for t, m in enumerate(modes)})
    ok = True

    # normal-form equality vs action-on-basis equality, 50 pairs
    for t in range(50):
        P = NCDiffOp.random(theta, 2, rng)
        Q = NCDiffOp.random(theta, 2, rng) if t % 5 else P + NCDiffOp.zero(theta, 2)
        diff = P - Q
        nf_zero = diff.residual_norm() < 1e-12
        act = diff.apply(units).norm()
        act_zero = act < 1e-9 * 200  # modest growth bound on the box
        ok = ok and (nf_zero == act_zero)

    # product phase vs generator-swap oracle, 200 pairs (dim 4)
    theta4 = ThetaMatrix.random(4, rng)
    for _ in range(200):
        m = tuple(int(x) for x in rng.integers(-3, 4, size=4))
        k = tuple(int(x) for x in rng.integers(-3, 4, size=4))
        ok = ok and abs(theta4.phase(m, k) - swap_oracle_phase(theta4, m, k)) < 1e-10

    # adjoint contract on 50 random triples
    for _ in range(50):
        P = NCDiffOp.random(theta, 2, rng, max_degree=2)
        x = TorusMatrix.random(theta, (2, 1), rng)
        y = TorusMatrix.random(theta, (2, 1), rng)
        lhs = inner_product(P.apply(x), y)
        rhs = inner_product(x, P.adjoint().apply(y))
        ok = ok and abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))

    emit(10, "normal-form/action, phase, and adjoint oracles agree", ok)
