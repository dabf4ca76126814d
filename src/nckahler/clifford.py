"""Irreducible Clifford representations for even n.

Gamma matrices satisfy gamma_j* = -gamma_j and {gamma_j, gamma_k} = -2 delta_jk,
with grading sigma and two inequivalent charge conjugations J+- realized as
C . (entrywise conjugation) for unitary matrices C.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_N = 10

_S1 = np.array([[0, 1], [1, 0]], dtype=complex)
_S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_S3 = np.array([[1, 0], [0, -1]], dtype=complex)

# (eps, eps', eps'') per n mod 8 for the two charge conjugations of even
# Clifford algebras.  J- differs from J+ by multiplication with the grading.
SIGNS_PLUS = {0: (1, 1, 1), 2: (-1, 1, -1), 4: (-1, 1, 1), 6: (1, 1, -1)}
SIGNS_MINUS = {0: (1, -1, 1), 2: (1, -1, -1), 4: (-1, -1, 1), 6: (-1, -1, -1)}


class CliffordError(ValueError):
    pass


@dataclass
class GammaRep:
    n: int
    N: int
    gammas: list = field(repr=False)
    sigma: np.ndarray = field(repr=False)
    conj_plus: np.ndarray = field(repr=False)
    conj_minus: np.ndarray = field(repr=False)
    signs_plus: tuple = (0, 0, 0)
    signs_minus: tuple = (0, 0, 0)

    def conj_matrix(self, variant):
        if variant == "plus":
            return self.conj_plus
        if variant == "minus":
            return self.conj_minus
        raise ValueError(f"variant must be 'plus' or 'minus', got {variant!r}")

    def signs(self, variant):
        if variant == "plus":
            return self.signs_plus
        if variant == "minus":
            return self.signs_minus
        raise ValueError(f"variant must be 'plus' or 'minus', got {variant!r}")


def _relations_residual(gammas, sigma):
    n = len(gammas)
    N = gammas[0].shape[0]
    eye = np.eye(N)
    r = 0.0
    for j in range(n):
        r = max(r, np.abs(gammas[j].conj().T + gammas[j]).max())
        for k in range(j, n):
            anti = gammas[j] @ gammas[k] + gammas[k] @ gammas[j]
            r = max(r, np.abs(anti + 2.0 * (j == k) * eye).max())
    r = max(r, np.abs(sigma.conj().T - sigma).max())
    r = max(r, np.abs(sigma @ sigma - eye).max())
    for g in gammas:
        r = max(r, np.abs(sigma @ g + g @ sigma).max())
    return r


def relations_residual(rep):
    return _relations_residual(rep.gammas, rep.sigma)


def grading_product_check(rep):
    """Residual of gamma_1 ... gamma_n = c sigma, c = 1 (n/2 even) or -i (n/2 odd)."""
    prod = np.eye(rep.N, dtype=complex)
    for g in rep.gammas:
        prod = prod @ g
    c = 1.0 if (rep.n // 2) % 2 == 0 else -1j
    return float(np.abs(prod - c * rep.sigma).max())


def _subset_products(gammas):
    """Products gamma_S over all subsets S of {1..n}, in subset-bitmask order."""
    n = len(gammas)
    N = gammas[0].shape[0]
    prods = [np.eye(N, dtype=complex)]
    sizes = [0]
    for mask in range(1, 2**n):
        low = (mask & -mask).bit_length() - 1
        prev = mask & (mask - 1)
        prods.append(gammas[low] @ prods[prev] if prev else gammas[low].copy())
        sizes.append(sizes[prev] + 1)
    return prods, sizes


def charge_conjugation(rep, variant, tol=1e-10):
    """The unitary C with C conj(gamma_j) = eps' gamma_j C (and the sigma
    constraint), returning (C, (eps, eps', eps'')).

    Every gamma_j of `build_gamma` is real or purely imaginary, n/2 of each.
    The product of the real ones satisfies the relations with
    eps' = (-1)^(n/2 - 1), that of the imaginary ones with eps' = (-1)^(n/2),
    so C is whichever product the variant's eps' asks for, phase-canonicalized.
    All sign relations, including C conj(C) = eps I, are verified against the
    n mod 8 table before returning.
    """
    if variant not in ("plus", "minus"):
        raise ValueError(f"variant must be 'plus' or 'minus', got {variant!r}")
    gammas, sigma, n = rep.gammas, rep.sigma, rep.n
    table = SIGNS_PLUS if variant == "plus" else SIGNS_MINUS
    eps, eps_p, eps_pp = table[n % 8]
    N = gammas[0].shape[0]
    use_real = eps_p == (-1) ** (n // 2 - 1)
    C = np.eye(N, dtype=complex)
    for g in gammas:
        if (not np.any(g.imag)) == use_real:
            C = C @ g
    # canonical phase: first nonzero entry of the first nonzero column is real > 0
    flat = C.T.reshape(-1)
    z = flat[np.flatnonzero(np.abs(flat) > 1e-12)[0]]
    C = C * (abs(z) / z)

    res = 0.0
    for g in gammas:
        res = max(res, np.abs(C @ g.conj() - eps_p * g @ C).max())
    res = max(res, np.abs(C @ sigma.conj() - eps_pp * sigma @ C).max())
    res = max(res, np.abs(C @ C.conj() - eps * np.eye(N)).max())
    res = max(res, np.abs(C @ C.conj().T - np.eye(N)).max())
    if res > tol:
        raise CliffordError(
            f"charge conjugation failed for n={n} {variant}: residual {res:.3e} "
            "(sign-table / representation mismatch)"
        )
    return C, (eps, eps_p, eps_pp)


def build_gamma(n, check_tol=1e-12):
    """Construct a GammaRep for even n via the two-step tensor recursion.

    The n=2 base case is the concrete pair gamma_1 = i sigma_x, gamma_2 = i sigma_y
    with grading diag(1, -1); the grading for general n is the normalized product
    gamma_1 ... gamma_n / c.
    """
    if n % 2 != 0 or n < 2:
        raise CliffordError(f"n must be even and >= 2, got {n}")
    if n > MAX_N:
        raise CliffordError(f"n={n} exceeds supported ceiling {MAX_N}")
    gammas = [1j * _S1, 1j * _S2]
    while len(gammas) < n:
        eye = np.eye(gammas[0].shape[0], dtype=complex)
        gammas = [np.kron(g, _S3) for g in gammas] + [
            np.kron(eye, 1j * _S1),
            np.kron(eye, 1j * _S2),
        ]
    N = 2 ** (n // 2)
    prod = np.eye(N, dtype=complex)
    for g in gammas:
        prod = prod @ g
    c = 1.0 if (n // 2) % 2 == 0 else -1j
    sigma = prod / c

    res = _relations_residual(gammas, sigma)
    if res > check_tol:
        raise CliffordError(f"gamma construction failed relations check: {res:.3e}")

    rep = GammaRep(n=n, N=N, gammas=gammas, sigma=sigma,
                   conj_plus=None, conj_minus=None)
    rep.conj_plus, rep.signs_plus = charge_conjugation(rep, "plus")
    rep.conj_minus, rep.signs_minus = charge_conjugation(rep, "minus")
    return rep


def irreducibility_rank(rep):
    """Dimension of the span of all gamma products; N^2 iff irreducible."""
    prods, _ = _subset_products(rep.gammas)
    stack = np.stack([p.reshape(-1) for p in prods])
    return int(np.linalg.matrix_rank(stack, tol=1e-8))
