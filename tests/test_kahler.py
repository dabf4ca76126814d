"""Matchings, Dirac lifts, and the N=(2,2) verification chain."""

import dataclasses

import numpy as np
import pytest

from nckahler import clifford, forms, kahler, ncdiff, pauli
from nckahler.clifford import build_gamma
from nckahler.forms import build_form_matrices
from nckahler.kahler import (
    Matching,
    MatchingError,
    build_dirac,
    build_kahler_package,
    enumerate_matchings,
    verify_distinctness,
    verify_grid,
    verify_n22,
    verify_pm_conjugation,
    verify_real_structure,
)
from nckahler.ncdiff import NCDiffOp
from nckahler.torus import TWO_PI_I, DimensionMismatch, ThetaMatrix, TorusElement, TorusMatrix
from test_ncdiff import assert_same_blocks, loop_apply, loop_product, scalar_element, unit_column

RNG = np.random.default_rng(200)
THETA2 = ThetaMatrix.random(2, RNG)
THETA4 = ThetaMatrix.random(4, RNG)
REP2 = build_gamma(2)
REP4 = build_gamma(4)


class TestMatchings:
    def test_counts(self):
        assert [len(enumerate_matchings(k)) for k in (2, 4, 6, 8)] == [1, 3, 15, 105]

    def test_small_enumerations(self):
        assert [m.pairs for m in enumerate_matchings(2)] == [((1, 2),)]
        assert [m.pairs for m in enumerate_matchings(4)] == [
            ((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]

    def test_deterministic_order(self):
        # smallest unmatched element first, partner ascending
        ms = enumerate_matchings(6)
        assert ms[0].pairs == ((1, 2), (3, 4), (5, 6))
        assert all(m.pairs[0][0] == 1 for m in ms)
        partners = [m.pairs[0][1] for m in ms]
        assert partners == sorted(partners)

    def test_parse_and_str(self):
        m = Matching.parse("1-2,3-4")
        assert str(m) == "1-2,3-4"

    def test_invalid_rejected(self):
        with pytest.raises(MatchingError):
            Matching.parse("1-2,2-3")
        with pytest.raises(MatchingError):
            Matching.parse("2-1,3-4")
        with pytest.raises(MatchingError):
            enumerate_matchings(3)


class TestDirac:
    def test_n2_block_pattern(self):
        # D = [[0, i del_1 + del_2], [i del_1 - del_2, 0]] up to 2 pi i
        D = build_dirac(REP2, THETA2)
        e1 = D.terms[(1, 0)].dense().blocks[(0, 0)]
        e2 = D.terms[(0, 1)].dense().blocks[(0, 0)]
        assert np.abs(e1 - 1j * np.array([[0, 1], [1, 0]])).max() < 1e-15
        assert np.abs(e2 - np.array([[0, 1], [-1, 0]])).max() < 1e-15

    def test_formally_symmetric(self):
        for rep, theta in ((REP2, THETA2), (REP4, THETA4)):
            D = build_dirac(rep, theta)
            assert (D.adjoint() - D).residual_norm() < 1e-12

    def test_anticommutes_with_grading(self):
        D = build_dirac(REP4, THETA4)
        S = NCDiffOp.from_words(THETA4, REP4.N, {(0,) * 4: REP4.sigma_words})
        assert D.anticommutator(S).residual_norm() < 1e-12


class TestCoreChain:
    # the core chain closes CHECKLIST: verify_n22 runs it with the other rows
    @pytest.mark.parametrize("eps", [1, -1])
    def test_n2(self, eps):
        pkg = build_kahler_package(THETA2, eps_prime=eps, rep=REP2)
        rp = verify_n22(pkg)
        assert rp.all_pass, [(c.name, c.residual) for c in rp.failures()]

    @pytest.mark.parametrize("eps", [1, -1])
    def test_n4_all_matchings(self, eps):
        for mt in enumerate_matchings(4):
            pkg = build_kahler_package(THETA4, mt, eps, rep=REP4)
            rp = verify_n22(pkg)
            assert rp.all_pass, (str(mt), [(c.name, c.residual) for c in rp.failures()])

    def test_corrupted_I_fails(self, monkeypatch):
        pkg = build_kahler_package(THETA4, rep=REP4)
        pkg.I_op = pkg.I_op.scale(2.0)

        def residuals():
            bad = pkg.I_op.commutator(pkg.I_op.commutator(pkg.d)) + pkg.d
            return bad.residual_norm(), [c.residual for c in verify_n22(pkg).checks]

        bad, checklist = residuals()
        # quadratic scaling: [2I,[2I,d]] + d = -4d + d = -3d
        assert bad > 1.0
        assert max(checklist) > 0.1
        with monkeypatch.context() as mp:
            mp.setattr(NCDiffOp, "products", staticmethod(looped))
            assert residuals() == (bad, checklist)


def looped(jobs):
    """NCDiffOp.products one job at a time by the word-pair loop."""
    return [loop_product(P, Q, s) for P, Q, s in jobs]


class TestKernelPasses:
    @pytest.mark.parametrize("n", [2, 4])
    def test_grid_equals_word_pair_loop(self, n, monkeypatch):
        # every residual of the grid, all matchings and both eps', bit for bit
        rep = build_gamma(n)
        for seed in (1, 2, 3):
            theta = ThetaMatrix.random(n, np.random.default_rng(seed))

            def grid():
                rp = verify_grid(theta, enumerate_matchings(n), (1, -1), rep=rep)
                return [(c.name, c.residual) for c in rp.checks]

            got = grid()
            with monkeypatch.context() as mp:
                mp.setattr(NCDiffOp, "products", staticmethod(looped))
                assert got == grid()

    def test_pass_counts(self, monkeypatch):
        # the checklist's 48 products at n = 6 in two passes, after 4
        # adjoints in one pass; the pm check in one pass, and the real
        # structure, which reads [D, b] from D, in none
        passes, adjoints = [], []
        products, adjoint = NCDiffOp.products, NCDiffOp.adjoints

        def counting_products(jobs):
            passes.append(len(jobs))
            return products(jobs)

        def counting_adjoint(ops):
            adjoints.append(len(ops))
            return adjoint(ops)

        theta = ThetaMatrix.random(6, np.random.default_rng(6))
        rep = build_gamma(6)
        plus, minus = (build_kahler_package(theta, eps_prime=e, rep=rep) for e in (1, -1))
        monkeypatch.setattr(NCDiffOp, "products", staticmethod(counting_products))
        monkeypatch.setattr(NCDiffOp, "adjoints", staticmethod(counting_adjoint))
        verify_n22(plus)
        assert passes == [22 + 11 + 4 * 3, 3]
        assert adjoints == [4]
        # both eps' packages of a matching in the same two passes
        passes.clear(), adjoints.clear()
        verify_n22([plus, minus])
        assert passes == [2 * (22 + 11 + 4 * 3), 2 * 3]
        assert adjoints == [8]
        for check, count in ((lambda: verify_pm_conjugation(plus, minus), 1),
                             (lambda: verify_real_structure(theta, rep=rep), 0)):
            passes.clear()
            check()
            assert len(passes) == count


class TestEpsPrime:
    @pytest.mark.parametrize("eps", [2, 0, -2, 0.5])
    def test_other_values_refused(self, eps):
        # an eps' other than +-1 would build a wrong package, or die in a KeyError
        with pytest.raises(ValueError, match=f"got {eps}"):
            build_kahler_package(THETA2, eps_prime=eps, rep=REP2)
        for matchings in (enumerate_matchings(2), []):
            with pytest.raises(ValueError, match=f"got {eps}"):
                verify_grid(THETA2, matchings, eps_list=(1, eps), rep=REP2)

    # every entry that takes eps' refuses it through kahler.check_eps
    ENTRIES = {
        "build_base": lambda eps: kahler.build_base(THETA2, REP2, (1, eps)),
        "build_kahler_package": lambda eps: build_kahler_package(THETA2, eps_prime=eps, rep=REP2),
        "verify_grid": lambda eps: verify_grid(THETA2, [], eps_list=(1, eps), rep=REP2),
        "build_form_matrices": lambda eps: build_form_matrices(4, eps_prime=eps),
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_refused_by_the_one_check(self, entry):
        for eps in (0, 2, 3, -2, 0.5):
            with pytest.raises(ValueError, match=f"got {eps}") as err:
                self.ENTRIES[entry](eps)
            assert err.traceback[-1].name == "check_eps"


class TestN22Checklist:
    def test_one_constructor_call_per_draw(self, monkeypatch):
        # the samples' mult(a) and the Laplacian come from the package's base,
        # built with it: verify_n22 makes no from_terms call
        calls, jobs, from_terms, run = [], [], NCDiffOp.from_terms, kahler._run
        pkgs = [build_kahler_package(THETA4, eps_prime=e, rep=REP4) for e in (1, -1)]
        monkeypatch.setattr(NCDiffOp, "from_terms", classmethod(
            lambda cls, theta, m, terms: calls.append(terms) or from_terms(theta, m, terms)))
        monkeypatch.setattr(kahler, "_run", lambda js, *a: jobs.extend(js) or run(js, *a))
        verify_n22(pkgs)
        assert calls == []
        assert [len(pkg.base.mas) for pkg in pkgs] == [kahler.SAMPLES] * 2
        assert all(ops["a"] is pkg.base.mas and ops["lap"] is pkg.base.lap
                   for (_, ops), pkg in zip(jobs, pkgs, strict=True))

    def test_batch_equals_per_package(self):
        # check for check, the batch over both eps' packages gives the names,
        # residuals and tolerances of one call per package
        for mt in enumerate_matchings(4):
            pkgs = [build_kahler_package(THETA4, mt, e, rep=REP4) for e in (1, -1)]
            batch = verify_n22(pkgs)
            for pkg, rp in zip(pkgs, batch, strict=True):
                want = verify_n22(pkg)
                assert rp.meta == want.meta
                assert ([(c.name, c.residual, c.tol) for c in rp.checks]
                        == [(c.name, c.residual, c.tol) for c in want.checks])

    def test_n2_full(self):
        rp = verify_n22(build_kahler_package(THETA2, rep=REP2))
        assert rp.all_pass, [(c.name, c.residual) for c in rp.failures()]

    def test_n4_one_matching_both_eps(self):
        for eps in (1, -1):
            mt = enumerate_matchings(4)[1]
            rp = verify_n22(build_kahler_package(THETA4, mt, eps, rep=REP4))
            assert rp.all_pass, [(c.name, c.residual) for c in rp.failures()]

    def test_n2_explicit_del_matrices(self):
        # the two Kahler differentials in dimension 2, as explicit 4x4 matrices
        for eps in (1, -1):
            pkg = build_kahler_package(THETA2, eps_prime=eps, rep=REP2)
            M = np.zeros((4, 4), dtype=complex)
            M[1, 0] = 0.5
            M[2, 0] = 0.5j * eps
            M[3, 1] = -0.5j * eps
            M[3, 2] = 0.5
            want = (NCDiffOp.derivation(THETA2, 4, 1, mat=1j * M)
                    + NCDiffOp.derivation(THETA2, 4, 2, mat=-M))
            assert (pkg.del_hol - want).residual_norm() < 1e-14

    def test_structure_identities(self):
        pkg = build_kahler_package(THETA4, rep=REP4)
        assert (pkg.del_hol + pkg.del_bar - pkg.d).residual_norm() < 1e-14
        assert (pkg.d + pkg.d_star - pkg.DD).residual_norm() < 1e-14
        assert (pkg.T + pkg.T_bar - pkg.T_script).residual_norm() < 1e-14
        assert (pkg.d.adjoint() - pkg.d_star).residual_norm() < 1e-12

    def test_degree_checks_ignore_run_tol(self):
        # a degree is an integer: degree 1 must fail even under tol=2
        rp = verify_n22(build_kahler_package(THETA2, rep=REP2), tol=2.0)
        degree = [c for c in rp.checks if "degree-0" in c.name]
        assert len(degree) == 9
        assert all(c.tol == 0.5 for c in degree)
        assert all(c.tol == 2.0 for c in rp.checks if "degree-0" not in c.name)

    @pytest.mark.parametrize("eps", [1, -1])
    def test_checklist_literally(self, eps):
        # the checks, their order and their tolerances, spelled out, so that a
        # reordered or renamed row fails here and not only against the table;
        # every residual at n = 4 is an exact zero
        for mt in enumerate_matchings(4):
            rp = verify_n22(build_kahler_package(THETA4, mt, eps, rep=REP4), tol=1e-10)
            assert [(c.name, c.tol) for c in rp.checks] == N22_CHECKS
            assert all(c.residual == 0.0 for c in rp.checks), str(mt)

    def test_sample_checks_per_package(self):
        pkg = build_kahler_package(THETA4, rep=REP4)
        grid = verify_grid(THETA4, enumerate_matchings(4)[:1], (1, -1), rep=REP4)
        for checks, packages in ((verify_n22(pkg).checks, 1), (grid.checks, 2)):
            assert sum("(sample " in c.name for c in checks) == 5 * kahler.SAMPLES * packages

    @pytest.mark.parametrize("alpha", [(0, 0, 1, 0), (1, 0, -1, 0)])
    def test_sample_zero_is_every_generator(self, alpha):
        # T + c (alpha . del) breaks [T, a] = 0 on the U_j with alpha_j != 0:
        # sample 0, sum_j U_j, fails at 2 pi |c|, also for del_1 - del_3,
        # which the draw it replaced missed (every mode of that draw has
        # k_1 = k_3)
        pkg, c = build_kahler_package(THETA4, rep=REP4), 0.25 + 0.5j
        X = NCDiffOp.from_terms(THETA4, REP4.N ** 2, {
            tuple(int(j == i) for i in range(4)): {(0,) * 4: {(0, 0): a * c}}
            for j, a in enumerate(alpha) if a})
        pkg.T = pkg.T + X
        rp = {ch.name: ch for ch in verify_n22(pkg).checks}
        assert not rp["[T, a] = 0 (sample 0)"].passed
        assert rp["[T, a] = 0 (sample 0)"].residual == pytest.approx(2 * np.pi * abs(c), rel=1e-15)
        assert rp["[Tbar, a] = 0 (sample 0)"].passed

    def test_sampled_rows_need_mode_zero(self):
        # sum_j U_j checks each generator only while the other operands of
        # its rows sit at mode 0: a T with a block at U_1 is refused
        pkg = build_kahler_package(THETA4, rep=REP4)
        pkg.T = pkg.T + NCDiffOp.mult(TorusElement.monomial(THETA4, (1, 0, 0, 0)), REP4.N ** 2)
        with pytest.raises(RuntimeError, match="not at mode 0"):
            verify_n22(pkg)
        # rows that name no sample still run on it: PM names none
        pkg.del_hol = pkg.T
        assert verify_pm_conjugation(pkg, build_kahler_package(THETA4, None, -1, rep=REP4)) > 0

    def test_empty_batch(self):
        # no package makes no kernel pass (numpy used to refuse to concatenate nothing)
        assert verify_n22([]) == []

    def test_one_row_adds_one_check(self, monkeypatch):
        # a new check is one row of CHECKLIST: T = T* reads an adjoint and a
        # sum, and [a, T] a sample, repeated once per sample
        rows = (kahler.Row("T = T*", ((1, "T"), (-1, "T*"))),
                kahler.Row("[a, T] = 0", ((1, ("a", "T", -1)),)))
        monkeypatch.setattr(kahler, "CHECKLIST", kahler.CHECKLIST + rows)
        want = ["T = T*"] + [f"[a, T] = 0 (sample {s})" for s in range(kahler.SAMPLES)]
        rp = verify_n22(build_kahler_package(THETA4, rep=REP4))
        assert [c.name for c in rp.checks] == [name for name, _ in N22_CHECKS] + want
        assert rp.all_pass and max(c.residual for c in rp.checks[-4:]) < 1e-12
        grid = verify_grid(THETA4, enumerate_matchings(4)[:1], [1], rep=REP4)
        assert [c.name for c in grid.checks][-5:-1] == [f"[1-2,3-4|eps'=+1] {n}" for n in want]
        assert grid.all_pass


# verify_n22's checks at tol 1e-10, in order
N22_CHECKS = [
    ("del^2 = 0", 1e-10),
    ("delbar^2 = 0", 1e-10),
    ("{del, delbar} = 0", 1e-10),
    ("[T, Tbar] = 0", 1e-10),
    ("[T, del] = del", 1e-10),
    ("[T, delbar] = 0", 1e-10),
    ("[Tbar, del] = 0", 1e-10),
    ("[Tbar, delbar] = delbar", 1e-10),
    ("[T, a] = 0 (sample 0)", 1e-10),
    ("[Tbar, a] = 0 (sample 0)", 1e-10),
    ("[del, a] degree-0 (sample 0)", 0.5),
    ("[delbar, a] degree-0 (sample 0)", 0.5),
    ("{del, [delbar, a]} degree-0 (sample 0)", 0.5),
    ("[T, a] = 0 (sample 1)", 1e-10),
    ("[Tbar, a] = 0 (sample 1)", 1e-10),
    ("[del, a] degree-0 (sample 1)", 0.5),
    ("[delbar, a] degree-0 (sample 1)", 0.5),
    ("{del, [delbar, a]} degree-0 (sample 1)", 0.5),
    ("[T, a] = 0 (sample 2)", 1e-10),
    ("[Tbar, a] = 0 (sample 2)", 1e-10),
    ("[del, a] degree-0 (sample 2)", 0.5),
    ("[delbar, a] degree-0 (sample 2)", 0.5),
    ("{del, [delbar, a]} degree-0 (sample 2)", 0.5),
    ("{gamma_tilde, del} = 0", 1e-10),
    ("{gamma_tilde, delbar} = 0", 1e-10),
    ("[gamma_tilde, T] = 0", 1e-10),
    ("[gamma_tilde, Tbar] = 0", 1e-10),
    ("star del = -delbar* star", 1e-10),
    ("star delbar = -del* star", 1e-10),
    ("{del, delbar*} = 0", 1e-10),
    ("{delbar, del*} = 0", 1e-10),
    ("{del, del*} = {delbar, delbar*}", 1e-10),
    ("d = del + delbar", 1e-10),
    ("d + d* = DD", 1e-10),
    ("T_script = T + Tbar", 1e-10),
    ("d* = (DD + i DDbar)/2", 1e-10),
    ("{d, d*} = {d2, d2*}", 1e-10),
    ("{d, d*} = 2{delbar, delbar*}", 1e-10),
    ("DD^2 = -sum del_r^2", 1e-10),
    ("DDbar^2 = -sum del_r^2", 1e-10),
    ("{DD, DDbar} = 0", 1e-10),
    ("d^2 = 0", 1e-10),
    ("[T_script, d] = d", 1e-10),
    ("[I, T_script] = 0", 1e-10),
    ("[I, gamma_tilde] = 0", 1e-10),
    ("[I, star] = 0", 1e-10),
    ("[I, [I, d]] = -d", 1e-10),
    ("{d, d2*} = 0", 1e-10),
    ("{d*, d2} = 0", 1e-10),
]


def dense_package(rep, matching, eps):
    """The package's operators, and D, by the dense kron formulas, as {name:
    {alpha: fiber matrix}}.  Every coefficient is constant, so [I, d] has the
    coefficients I M - M I."""
    n, eye, sigma = rep.n, np.eye(rep.N), pauli.dense_words(rep.sigma_words, rep.N)
    gammas = [pauli.dense_words(g, rep.N) for g in rep.gamma_words]
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    zero = (0,) * n
    ops = {
        "D": dict(zip(unit, gammas)),
        "DD": {u: np.kron(eye, g) for u, g in zip(unit, gammas)},
        "DDbar": {u: -eps * np.kron(g, sigma) for u, g in zip(unit, gammas)},
        "T_script": {zero: sum((1j * eps / 2.0) * np.kron(g, g @ sigma) for g in gammas)},
        "I_op": {zero: sum(0.5 * (np.kron(eye, gg) + np.kron(gg, eye))
                           for gg in (gammas[l - 1] @ gammas[j - 1]
                                      for l, j in matching.pairs))},
        "gamma_tilde": {zero: np.kron(sigma, sigma)},
        "hodge_star": {zero: np.kron(eye, sigma)},
    }
    DD, DDbar, I_op = ops["DD"], ops["DDbar"], ops["I_op"][zero]
    ops["d"] = {u: (DD[u] - 1j * DDbar[u]) * 0.5 for u in unit}
    ops["d_star"] = {u: (DD[u] + 1j * DDbar[u]) * 0.5 for u in unit}
    ops["d2"] = {u: I_op @ ops["d"][u] - ops["d"][u] @ I_op for u in unit}
    ops["del_hol"] = {u: (ops["d"][u] - 1j * ops["d2"][u]) * 0.5 for u in unit}
    ops["del_bar"] = {u: (ops["d"][u] + 1j * ops["d2"][u]) * 0.5 for u in unit}
    ops["T"] = {zero: (ops["T_script"][zero] - 1j * I_op) * 0.5}
    ops["T_bar"] = {zero: (ops["T_script"][zero] + 1j * I_op) * 0.5}
    return ops


class TestWordBuilders:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_package_equals_dense_kron_formulas(self, n):
        theta = ThetaMatrix.random(n, np.random.default_rng(n))
        rep = build_gamma(n)
        zero = (0,) * n
        W = kahler.build_base(theta, rep).W
        assert np.abs(W.terms[zero].dense().blocks[zero] - np.kron(
            pauli.dense_words(rep.sigma_words, rep.N), np.eye(rep.N))).max() == 0.0
        D = build_dirac(rep, theta)
        for mt in enumerate_matchings(n):
            for eps in (1, -1):
                pkg = build_kahler_package(theta, mt, eps, rep=rep)
                for name, want in dense_package(rep, mt, eps).items():
                    # D is on the C^N fiber and in no package
                    op = D if name == "D" else getattr(pkg, name)
                    assert set(op.terms) == set(want), name
                    for alpha, M in op.terms.items():
                        blocks = M.dense().blocks
                        assert set(blocks) == {zero}, name
                        assert np.abs(blocks[zero] - want[alpha]).max() == 0.0, (name, alpha)

    @staticmethod
    def count_transforms(monkeypatch):
        calls = []
        transform = pauli.pauli_words

        def counting(mat):
            calls.append(1)
            return transform(mat)

        for module in (pauli, ncdiff, clifford, kahler, forms):
            if hasattr(module, "pauli_words"):
                monkeypatch.setattr(module, "pauli_words", counting)
        return calls

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_one_transform_per_package(self, n, monkeypatch):
        # the package reads the GammaRep's words: building the representation,
        # the base, a package and the forms makes no Pauli transform at all
        calls = self.count_transforms(monkeypatch)
        theta = ThetaMatrix.random(n, np.random.default_rng(n))
        rep = build_gamma(n)
        kahler.build_base(theta, rep)
        build_kahler_package(theta, rep=rep)
        build_form_matrices(rep)
        assert calls == []
        # the counter is live: a constant from a dense matrix is transformed
        NCDiffOp.constant(theta, np.eye(rep.N))
        assert calls == [1]

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_transforms_per_grid_matching(self, n, monkeypatch):
        # two packages and the pm intertwiner per matching, then the Dirac
        # operator: none of them transforms a matrix
        calls = self.count_transforms(monkeypatch)
        theta = ThetaMatrix.random(n, np.random.default_rng(n))
        rep = build_gamma(n)
        verify_grid(theta, enumerate_matchings(n)[:1], (1, -1), rep=rep)
        build_dirac(rep, theta)
        assert calls == []

    def test_n8_grid_exact(self):
        theta = ThetaMatrix.random(8, np.random.default_rng(8))
        rp = verify_grid(theta, enumerate_matchings(8)[:1], (1, -1))
        assert len(rp.checks) == 2 * 49 + 1
        assert all(c.residual == 0.0 for c in rp.checks)


def pm_residual(theta, matching, rep):
    return verify_pm_conjugation(
        build_kahler_package(theta, matching, eps_prime=1, rep=rep),
        build_kahler_package(theta, matching, eps_prime=-1, rep=rep))


class TestPMConjugation:
    def test_n2(self):
        assert pm_residual(THETA2, enumerate_matchings(2)[0], REP2) < 1e-12

    def test_n4_all_matchings(self):
        for mt in enumerate_matchings(4):
            assert pm_residual(THETA4, mt, REP4) < 1e-12

    def test_wrong_intertwiner_detected(self):
        # gamma_tilde = kron(sigma, sigma) does NOT conjugate del_+ to del_-
        plus = build_kahler_package(THETA4, eps_prime=1, rep=REP4)
        minus = build_kahler_package(THETA4, eps_prime=-1, rep=REP4)
        W = plus.gamma_tilde
        res = (W.compose(plus.del_hol) - minus.del_hol.compose(W)).residual_norm()
        assert res > 0.1

    def test_wrong_base_intertwiner_fails(self):
        # verify_pm_conjugation reads W from the eps' = +1 package's base
        plus = build_kahler_package(THETA4, eps_prime=1, rep=REP4)
        minus = build_kahler_package(THETA4, eps_prime=-1, rep=REP4)
        assert verify_pm_conjugation(plus, minus) < 1e-12
        bad = dataclasses.replace(plus, base=plus.base._replace(W=plus.gamma_tilde))
        assert verify_pm_conjugation(bad, minus) > 0.1


def counting_passes(monkeypatch):
    """The names of the kernel passes (NCDiffOp.from_terms, sums, products,
    adjoints) made from now on, in order."""
    passes = []
    for name in ("sums", "products", "adjoints"):
        run = getattr(NCDiffOp, name)
        monkeypatch.setattr(NCDiffOp, name, staticmethod(
            lambda jobs, run=run, name=name: passes.append(name) or run(jobs)))
    from_terms = NCDiffOp.from_terms
    monkeypatch.setattr(NCDiffOp, "from_terms", classmethod(
        lambda cls, theta, m, terms: passes.append("from_terms") or from_terms(theta, m, terms)))
    return passes


def oracle_grid(theta, rep, matching, eps_list):
    """The checks of verify_grid for one matching, from build_kahler_package
    for each eps', verify_n22 for each of eps_list and verify_pm_conjugation,
    and those packages."""
    pkgs = {eps: build_kahler_package(theta, matching, eps, rep=rep) for eps in (1, -1)}
    want = [(f"[{matching}|eps'={eps:+d}] {c.name}", c.residual, c.tol)
            for eps in eps_list for c in verify_n22(pkgs[eps]).checks]
    pm = verify_pm_conjugation(pkgs[1], pkgs[-1])
    return want + [(f"[{matching}] pm conjugation", pm, 1e-12)], pkgs


def same_words(P, Q):
    return all(np.array_equal(getattr(P, f), getattr(Q, f)) for f in ("x", "z", "c", "table"))


def counting_jobs(monkeypatch):
    """The job count of each NCDiffOp.products pass made from now on, in order."""
    jobs, products = [], NCDiffOp.products
    monkeypatch.setattr(NCDiffOp, "products",
                        staticmethod(lambda js: jobs.append(len(js)) or products(js)))
    return jobs


def w_sign(W, x, z):
    """The sign of W X^x Z^z W^-1 = sign X^x Z^z for W one Pauli word."""
    (xw, zw), = zip(W.x.tolist(), W.z.tolist())
    return (-1) ** ((x & zw).bit_count() + (z & xw).bit_count())


def patch_lifted(monkeypatch, edit):
    """kahler.build_base, with the d and T_script of lifted[eps] plus the
    mode-0 words edit(base, eps) = (d words, T_script words)."""
    build = kahler.build_base

    def patched(theta, rep=None, eps_list=(1, -1)):
        base, zero = build(theta, rep, eps_list), (0,) * theta.n
        lifted = {}
        for eps, (DDbar, d, d_star, Ts) in base.lifted.items():
            dw, tw = (NCDiffOp.from_words(theta, base.rep.N ** 2, {zero: w})
                      for w in edit(base, eps))
            lifted[eps] = (DDbar, d + dw, d_star, Ts + tw)
        return base._replace(lifted=lifted)

    monkeypatch.setattr(kahler, "build_base", patched)


def grid_rows(theta, rep, ms, eps_list=(1, -1)):
    """verify_grid's checklist rows {(matching, eps'): [(name, residual hex,
    tol)]} and, per (matching, eps'), its package's own verify_n22 rows."""
    pkgs = []
    rp = verify_grid(theta, ms, eps_list, rep=rep, on_package=pkgs.append)
    got, want = {}, {}
    for c in rp.checks:
        if "|eps'=" in c.name:
            label, name = c.name[1:].split("] ", 1)
            mt, eps = label.split("|eps'=")
            got.setdefault((mt, int(eps)), []).append((name, c.residual.hex(), c.tol))
    for pkg in pkgs:
        want[(str(pkg.matching), pkg.eps_prime)] = [
            (c.name, c.residual.hex(), c.tol) for c in verify_n22(pkg, tol=rp.tol).checks]
    return got, want


class TestDerivedRows:
    """verify_grid derives the eps' = -1 rows from the +1 run only where the
    -1 package is checked to be the W-conjugate of the +1 one."""

    @pytest.mark.parametrize("n", [4, 6])
    def test_minus_rows_cost_no_products(self, n, monkeypatch):
        # the products jobs of a grid over both eps', or over -1 alone, are
        # those of the +1 grid, job for job
        theta, rep = ThetaMatrix.random(n, np.random.default_rng(n)), build_gamma(n)
        ms, counts = enumerate_matchings(n)[:3], {}
        jobs = counting_jobs(monkeypatch)
        for eps_list in ((1,), (1, -1), (-1,)):
            jobs.clear()
            verify_grid(theta, ms, eps_list, rep=rep)
            counts[eps_list] = list(jobs)
        assert counts[(1, -1)] == counts[(1,)] == counts[(-1,)]

    def test_w_consistent_defect_derived(self, monkeypatch):
        # three random words on d and T_script of eps' = +1, and their W
        # conjugates on -1: the derived -1 rows are the computed ones bit for
        # bit, and fail where the +1 rows fail
        rng = np.random.default_rng(28)
        m = REP4.N ** 2
        words = {(int(x), int(z)): complex(*rng.normal(size=2))
                 for x, z in rng.integers(0, m, size=(3, 2))}

        def conjugated(base, eps):
            w = {xz: c * (1 if eps == 1 else w_sign(base.W, *xz)) for xz, c in words.items()}
            return w, w

        patch_lifted(monkeypatch, conjugated)
        ms = enumerate_matchings(4)
        got, want = grid_rows(THETA4, REP4, ms)
        assert got == want
        for mt in map(str, ms):
            fails = [[float.fromhex(r) >= tol for _, r, tol in got[(mt, eps)]] for eps in (1, -1)]
            assert fails[0] == fails[1] and any(fails[0])
        # and derived: the -1 rows took no products job
        jobs = counting_jobs(monkeypatch)
        for eps_list in ((1,), (1, -1)):
            verify_grid(THETA4, ms, eps_list, rep=REP4)
        assert jobs[:len(jobs) // 2] == jobs[len(jobs) // 2:]

    def test_minus_only_defect_computed(self, monkeypatch):
        # a word on the eps' = -1 T_script alone: the -1 rows are computed,
        # and fail; the +1 rows pass
        patch_lifted(monkeypatch, lambda base, eps: ({}, {(1, 0): 0.5} if eps == -1 else {}))
        got, want = grid_rows(THETA4, REP4, enumerate_matchings(4))
        assert got == want
        for (mt, eps), rows in got.items():
            assert any(float.fromhex(r) >= tol for _, r, tol in rows) == (eps == -1), (mt, eps)

    def test_w_odd_I_computed_at_its_matching(self, monkeypatch):
        # an I with a word that anticommutes with W at one matching: that
        # matching's -1 rows are computed, and differ from its +1 rows; every
        # other matching's are derived.  Many such words leave the two sides'
        # residuals equal; X^9 Z^7 with X^3 Z^6 beside it does not
        ms, I_words = enumerate_matchings(4), kahler._I_words
        assert w_sign(kahler.build_base(THETA4, REP4).W, 9, 7) == -1

        def odd(matching, rep):
            words = I_words(matching, rep)
            if matching == ms[1]:
                words = pauli.word_sum((1, words), (1, {(3, 6): 0.5, (9, 7): 0.5j}))
            return words

        monkeypatch.setattr(kahler, "_I_words", odd)
        got, want = grid_rows(THETA4, REP4, ms)
        assert got == want
        assert got[(str(ms[1]), -1)] != got[(str(ms[1]), 1)]
        # per matching, one _run of the checklist jobs and the pm job
        runs, run = [], kahler._run
        monkeypatch.setattr(kahler, "_run", lambda js, *a: runs.append(len(js)) or run(js, *a))
        verify_grid(THETA4, ms, (1, -1), rep=REP4)
        assert runs == [2, 3, 2]


class TestVerifyGrid:
    def test_pass_budget(self, monkeypatch):
        # at most 4 kernel passes once per grid and 7 per matching (30 per
        # matching when each eps' package was built and checked on its own)
        ms, verified = enumerate_matchings(4), []
        passes = counting_passes(monkeypatch)
        counts = []
        for k in (1, 3):
            passes.clear(), verified.clear()
            rp = verify_grid(THETA4, ms[:k], [1], rep=REP4, on_package=verified.append)
            counts.append(len(passes))
        per_matching = (counts[1] - counts[0]) / 2
        assert per_matching <= 7, passes
        assert counts[0] - per_matching <= 4, passes
        assert [(str(p.matching), p.eps_prime) for p in verified] == [(str(m), 1) for m in ms]
        # eps' = +1 alone still runs the conjugation check against eps' = -1
        names = [c.name for c in rp.checks]
        assert [n for n in names if "pm conjugation" in n] == [f"[{m}] pm conjugation" for m in ms]
        assert not any("eps'=-1" in n for n in names)

    def test_matches_per_package_checklist(self):
        # every check (name, residual, tol) of every matching at n = 2, 4 and
        # 6 bit for bit, and every verified package's words, against the
        # per-package path; the words fix what verify --dump-ops writes
        theta6 = ThetaMatrix.random(6, np.random.default_rng(16))
        for theta, rep in ((THETA2, REP2), (THETA4, REP4), (theta6, build_gamma(6))):
            for eps_list in ([1], [-1], [1, -1]):
                self.assert_matches(theta, rep, enumerate_matchings(theta.n), eps_list)

    @staticmethod
    def assert_matches(theta, rep, ms, eps_list):
        got = []
        rp = verify_grid(theta, ms, eps_list, rep=rep, on_package=got.append)
        want = [oracle_grid(theta, rep, mt, eps_list) for mt in ms]
        assert ([(c.name, c.residual, c.tol) for c in rp.checks]
                == [check for checks, _ in want for check in checks])
        assert rp.all_pass
        pkgs = [pkgs[eps] for _, pkgs in want for eps in eps_list]
        assert ([(p.matching, p.eps_prime) for p in got]
                == [(p.matching, p.eps_prime) for p in pkgs])
        for p, q in zip(got, pkgs):
            for f in dataclasses.fields(p):
                if isinstance(getattr(p, f.name), NCDiffOp):
                    assert same_words(getattr(p, f.name), getattr(q, f.name)), f.name
            if theta.n <= 4:
                assert p.del_hol.to_json() == q.del_hol.to_json()
                assert p.del_bar.to_json() == q.del_bar.to_json()

    def test_grid_package_reports_as_built_one(self):
        # verify_n22 on a package verify_grid built reports what it reports
        # on the build_kahler_package one
        got = []
        verify_grid(THETA4, enumerate_matchings(4), rep=REP4, on_package=got.append)
        for pkg in got:
            built = build_kahler_package(THETA4, pkg.matching, pkg.eps_prime, rep=REP4)
            reports = [verify_n22(p) for p in (pkg, built)]
            assert reports[0].meta == reports[1].meta
            assert ([(c.name, c.residual, c.tol) for c in reports[0].checks]
                    == [(c.name, c.residual, c.tol) for c in reports[1].checks])


class TestDistinctness:
    def test_2k_2_vacuous(self):
        assert verify_distinctness(THETA2, rep=REP2)

    def test_2k_4(self):
        assert verify_distinctness(THETA4, rep=REP4)


def oracle_box_sample(n, radius, rng, count):
    out = {(0,) * n, (radius,) + (0,) * (n - 1), (-radius,) * n}
    while len(out) < count:
        out.add(tuple(int(x) for x in rng.integers(-radius, radius + 1, size=n)))
    return sorted(out)


def generator_sample(n):
    """The modes e_1 ... e_n and the n^2 pairs (e_i, e_j) of U_i, U_j that
    verify_real_structure checks."""
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    return units, [(a, b) for a in units for b in units]


def box_sample(n):
    """A sampled check of the same conditions: 12 modes of the box [-3, 3]^n,
    corners and mode 0 included, then 20 monomial pairs (a before b) of
    [-2, 2]^n, all drawn from default_rng(11)."""
    rng = np.random.default_rng(11)
    modes = oracle_box_sample(n, 3, rng, 12)
    return modes, [tuple(tuple(int(x) for x in rng.integers(-2, 3, size=n)) for _ in range(2))
                   for _ in range(20)]


def oracle_real_structure(theta, rep, variant, sample=None):
    """The three residuals of verify_real_structure, one unit column e_i U^k
    and one apply at a time, on the (modes, pairs) of `sample` (default: the
    generators)."""
    modes, pairs = generator_sample(theta.n) if sample is None else sample
    C = pauli.dense_words(rep.conj_words(variant), rep.N)
    eps, eps_p, _ = rep.signs(variant)
    D = build_dirac(rep, theta)
    N = rep.N

    def J(v):
        out = {tuple(-x for x in k): theta.star_phase(k) * (C @ b.conj())
               for k, b in v.blocks.items()}
        return TorusMatrix(theta, v.shape, out)

    def JaJstar(a, v):
        return J(a.matmul(J(v))).scale(eps)

    res = 0.0
    for m in modes:
        for i in range(N):
            v = unit_column(theta, N, i, m)
            res = max(res, (J(D.apply(v)) - D.apply(J(v)).scale(eps_p)).norm())

    res0 = res1 = 0.0
    for ma, mb in pairs:
        a = scalar_element(TorusElement.monomial(theta, ma), N)
        b = scalar_element(TorusElement.monomial(theta, mb), N)
        Db = D.commutator(NCDiffOp.mult(TorusElement.monomial(theta, mb), N))
        for i in range(N):
            v = unit_column(theta, N, i)
            res0 = max(res0, (JaJstar(a, b.matmul(v)) - b.matmul(JaJstar(a, v))).norm())
            res1 = max(res1, (JaJstar(a, Db.apply(v)) - Db.apply(JaJstar(a, v))).norm())
    return res, res0, res1


def reference_real_structure(theta, rep, variant):
    """The three residuals of verify_real_structure with a loop of TorusMatrix
    operations over the generator pairs and one loop_apply per operator and
    vector."""
    modes, pairs = generator_sample(theta.n)
    C = pauli.dense_words(rep.conj_words(variant), rep.N)
    eps, eps_p, _ = rep.signs(variant)
    D = build_dirac(rep, theta)
    N = rep.N
    eye = np.eye(N, dtype=complex)

    def J(v):
        out = {tuple(-x for x in k): theta.star_phase(k) * (C @ b.conj())
               for k, b in v.blocks.items()}
        return TorusMatrix(theta, v.shape, out)

    def JaJstar(a, v):
        return J(a.matmul(J(v))).scale(eps)

    basis = TorusMatrix(theta, (N, N), {k: eye for k in modes})
    res = (J(loop_apply(D, basis)) - loop_apply(D, J(basis)).scale(eps_p)).norm()
    ident = TorusMatrix.constant(theta, eye)
    Dbs = NCDiffOp.products([(D, NCDiffOp.mult(TorusElement.monomial(theta, mb), N), -1)
                             for _, mb in pairs])
    res0 = res1 = 0.0
    for (ma, mb), Db in zip(pairs, Dbs):
        a = scalar_element(TorusElement.monomial(theta, ma), N)
        b = scalar_element(TorusElement.monomial(theta, mb), N)
        ja = JaJstar(a, ident)
        res0 = max(res0, (JaJstar(a, b) - b.matmul(ja)).norm())
        res1 = max(res1, (JaJstar(a, loop_apply(Db, ident)) - loop_apply(Db, ja)).norm())
    return res, res0, res1


MUTATIONS = ("wrong-conjugation", "scaled-gamma", "star-phase-one")


def mutated(rep, mutation, monkeypatch):
    """rep with one defect: J_- with the signs of J_+, i gamma_1 for gamma_1,
    or (through ThetaMatrix) a J that drops the star phase; None: rep."""
    if mutation == "wrong-conjugation":
        return dataclasses.replace(rep, conj_plus_words=rep.conj_minus_words)
    if mutation == "scaled-gamma":
        g = rep.gamma_words
        return dataclasses.replace(rep, gamma_words=({w: 1j * c for w, c in g[0].items()},) + g[1:])
    if mutation == "star-phase-one":
        monkeypatch.setattr(ThetaMatrix, "star_phase", lambda self, m: 1 + 0j)
    return rep


def residuals(rp):
    return tuple(c.residual for c in rp.checks)


class TestRealStructure:
    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_n2(self, variant):
        rp = verify_real_structure(THETA2, rep=REP2, variant=variant)
        assert rp.all_pass, [(c.name, c.residual) for c in rp.failures()]

    def test_n4_plus(self):
        rp = verify_real_structure(THETA4, rep=REP4, variant="plus")
        assert rp.all_pass, [(c.name, c.residual) for c in rp.failures()]

    def test_wrong_conjugation_fails(self, monkeypatch):
        # J_- paired with the signs of J_+ breaks J D = eps' D J by 2 * 2 pi
        # at the generator modes
        theta = ThetaMatrix.random(4, np.random.default_rng(7))
        bad = mutated(REP4, "wrong-conjugation", monkeypatch)
        rp = verify_real_structure(theta, rep=bad, variant="plus")
        assert [c.name for c in rp.failures()] == ["J D = eps' D J"]
        assert rp.failures()[0].residual == pytest.approx(4 * np.pi)
        assert residuals(rp) == oracle_real_structure(theta, bad, "plus")

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_equals_unit_column_oracle(self, n, variant):
        # one apply per operator over every basis column and mode gives the
        # residuals of one apply per unit column, bit for bit
        rep = build_gamma(n)
        for seed in range(1, 6):
            theta = ThetaMatrix.random(n, np.random.default_rng(seed))
            rp = verify_real_structure(theta, rep=rep, variant=variant)
            assert residuals(rp) == oracle_real_structure(theta, rep, variant)

    def test_apply_count(self, monkeypatch):
        # D and the [D, b], from the rep's words, act as dense fiber matrices:
        # no products pass and no apply call
        calls, passes = 0, []
        apply, products = NCDiffOp.apply, NCDiffOp.products

        def counted(op, v):
            nonlocal calls
            calls += 1
            return apply(op, v)

        def counted_products(jobs):
            passes.append(len(jobs))
            return products(jobs)

        monkeypatch.setattr(NCDiffOp, "apply", counted)
        monkeypatch.setattr(NCDiffOp, "products", staticmethod(counted_products))
        theta = ThetaMatrix.random(6, np.random.default_rng(3))
        verify_real_structure(theta, rep=build_gamma(6))
        assert calls == 0
        assert passes == []

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_dirac_block_is_the_product_block(self, n):
        # [D, b] for b = U^k off mode 0 is one degree-0 block at k, and the
        # closed form sum_j gamma_j (2 pi i k_j) from the rep's words, added
        # in j order as verify_real_structure adds it, is that block bit for
        # bit; at k = 0 the product is the zero operator
        rep, rng = build_gamma(n), np.random.default_rng(40 + n)
        gammas = [pauli.dense_words(g, rep.N) for g in rep.gamma_words]
        eye = np.eye(rep.N, dtype=complex)
        for seed in range(3):
            theta = ThetaMatrix.random(n, np.random.default_rng(seed))
            D = build_dirac(rep, theta)
            modes = [tuple(int(x) for x in rng.integers(-2, 3, size=n)) for _ in range(8)]
            modes[0] = (0,) * n
            bs = NCDiffOp.mult([TorusElement.monomial(theta, k) for k in modes], rep.N)
            Dbs = NCDiffOp.products([(D, b, -1) for b in bs])
            K = np.array(modes)
            closed = sum(kahler._mul(g, TWO_PI_I * K[:, j, None, None] * eye)
                         for j, g in enumerate(gammas))
            for Db, b, k, block in zip(Dbs, bs, modes, closed):
                if not any(k):
                    assert Db.table.shape[1] == 0
                    continue
                assert Db.table[:-2].tolist() == [[0], *b.mode.tolist()]
                assert block.tobytes() == Db._dense(0, len(Db.c)).tobytes()

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize("variant", ["plus", "minus"])
    @pytest.mark.parametrize("seeds", [range(100, 110)], ids=["default-rng"])
    def test_equals_per_sample_reference(self, n, variant, seeds):
        # the stacked pairs give the per-pair loop's residuals bit for bit
        rep = build_gamma(n)
        for seed in seeds:
            theta = ThetaMatrix.random(n, np.random.default_rng(seed))
            got = verify_real_structure(theta, rep=rep, variant=variant)
            assert residuals(got) == reference_real_structure(theta, rep, variant)

    def test_phase_calls(self, monkeypatch):
        # the actions call ThetaMatrix.phase nowhere: each distinct phase once,
        # the n star_phase(e_i), then n^2 phase(e_i, -e_j) and n^2 star_phase(e_i - e_j)
        theta, rep = ThetaMatrix.random(6, np.random.default_rng(3)), build_gamma(6)
        calls, phase = [], ThetaMatrix.phase

        def counted_phase(self, m, k):
            calls.append(1)
            return phase(self, m, k)

        monkeypatch.setattr(ThetaMatrix, "phase", counted_phase)
        verify_real_structure(theta, rep=rep)
        assert len(calls) == 2 * 6 ** 2 + 6 == 78

    def test_apply_equals_loop_on_sample_jobs(self):
        # [D, b] of the real structure's samples on a mode of v, against the
        # block loop, bit for bit
        theta, rep = ThetaMatrix.random(6, np.random.default_rng(8)), build_gamma(6)
        D, rng, N = build_dirac(rep, theta), np.random.default_rng(9), rep.N
        mbs = [TorusElement.monomial(theta, rng.integers(-2, 3, size=6)) for _ in range(8)]
        Dbs = NCDiffOp.products([(D, NCDiffOp.mult(b, N), -1) for b in mbs])
        for Db in Dbs:
            v = TorusMatrix(theta, (N, N), {tuple(int(x) for x in rng.integers(-2, 3, size=6)):
                                            rng.normal(size=(N, N)) + 1j})
            assert_same_blocks(Db.apply(v).blocks, loop_apply(Db, v).blocks)

    def test_rep_of_another_dimension_refused(self):
        with pytest.raises(DimensionMismatch, match="rep n=4 vs theta n=2"):
            verify_real_structure(THETA2, rep=REP4)

    def test_scaled_gamma_fails_jd_only(self, monkeypatch):
        # i gamma_1 breaks J D = eps' D J in its del_1 part by 2 * 2 pi |k_1|
        # at each mode k, so by 4 pi at e_1; no D enters [J a J*, b]
        bad = mutated(REP4, "scaled-gamma", monkeypatch)
        rp = verify_real_structure(THETA4, rep=bad, variant="plus")
        jd, zero, _ = rp.checks
        assert not jd.passed and jd.residual == pytest.approx(4 * np.pi)
        assert zero.residual == 0.0
        assert residuals(rp) == oracle_real_structure(THETA4, bad, "plus")

    @pytest.mark.parametrize("n", [4, 6])
    def test_star_phase_one_fails_order_rows(self, n, monkeypatch):
        # a J without the star phase still intertwines D (the phases of U^k
        # and of U^-k cancel) but no longer makes J a J* commute with the
        # algebra: both order rows fail, on the generators and on the box
        theta, rep = ThetaMatrix.random(n, np.random.default_rng(300 + n)), build_gamma(n)
        rep = mutated(rep, "star-phase-one", monkeypatch)
        rp = verify_real_structure(theta, rep=rep, variant="plus")
        assert [c.name for c in rp.failures()] == ["[J a J*, b] = 0", "[J a J*, [D, b]] = 0"]
        assert residuals(rp) == oracle_real_structure(theta, rep, "plus")
        box = oracle_real_structure(theta, rep, "plus", box_sample(n))
        assert [r < rp.tol for r in box] == [True, False, False]

    @pytest.mark.parametrize("n, mutation", [(n, None) for n in (2, 4, 6, 8)]
                             + [(n, m) for n in (4, 6) for m in MUTATIONS])
    def test_box_oracle_same_verdicts(self, n, mutation, monkeypatch):
        # the generator check passes and fails the same rows as the sampled
        # box oracle, row by row, on good reps and on each mutation
        rep = mutated(build_gamma(n), mutation, monkeypatch)
        verdicts = []
        for seed in range(3):
            theta = ThetaMatrix.random(n, np.random.default_rng(seed))
            for variant in ("plus", "minus"):
                rp = verify_real_structure(theta, rep=rep, variant=variant)
                box = oracle_real_structure(theta, rep, variant, box_sample(n))
                verdicts.append([c.passed for c in rp.checks])
                assert verdicts[-1] == [r < rp.tol for r in box]
        assert all(map(all, verdicts)) == (mutation is None)
