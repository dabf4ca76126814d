"""Irreducible Clifford representations for even n, as Pauli words.

Gamma matrices satisfy gamma_j* = -gamma_j and {gamma_j, gamma_k} = -2 delta_jk,
with grading sigma and two inequivalent charge conjugations J+- realized as
C . (entrywise conjugation) for unitary matrices C.  Every gamma_j, sigma and
C+- is one Pauli word with a phase in {+-1, +-i} (see pauli), so every check
here is an exact word identity; pauli.dense_words gives a word's matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache, reduce
from itertools import combinations_with_replacement
from types import MappingProxyType

import numpy as np

from .pauli import dense_words, word_product, word_sum

MAX_N = 10
_ONE = {(0, 0): 1 + 0j}

# (eps, eps', eps'') per n mod 8 for the two charge conjugations of even
# Clifford algebras.  J- differs from J+ by multiplication with the grading.
SIGNS_PLUS = {0: (1, 1, 1), 2: (-1, 1, -1), 4: (-1, 1, 1), 6: (1, 1, -1)}
SIGNS_MINUS = {0: (1, -1, 1), 2: (1, -1, -1), 4: (-1, -1, 1), 6: (-1, -1, -1)}


class CliffordError(ValueError):
    """An invalid request, such as an odd or too large n."""


class SelfCheckError(RuntimeError):
    """A constructed word failed its own relations check: an internal fault."""


def _variant(variant):  # 0 for "plus", 1 for "minus"
    if variant not in ("plus", "minus"):
        raise ValueError(f"variant must be 'plus' or 'minus', got {variant!r}")
    return int(variant == "minus")


@dataclass(frozen=True)
class GammaRep:
    """The representation on C^N, N = 2^(n/2): per gamma_j, sigma and C+- one
    read-only word sum {(x, z): phase}, the form NCDiffOp.from_terms takes.
    Frozen: build_gamma builds one per n and every caller shares it."""

    n: int
    N: int
    gamma_words: tuple = field(repr=False)
    sigma_words: MappingProxyType = field(repr=False)
    conj_plus_words: MappingProxyType = field(default=None, repr=False)
    conj_minus_words: MappingProxyType = field(default=None, repr=False)
    signs_plus: tuple = (0, 0, 0)
    signs_minus: tuple = (0, 0, 0)

    def conj_words(self, variant):
        return (self.conj_plus_words, self.conj_minus_words)[_variant(variant)]

    def signs(self, variant):
        return (self.signs_plus, self.signs_minus)[_variant(variant)]


def _max_entry(words):
    """The largest |entry| of a word sum: of its dense matrix on the masks
    that its words' bits need, the rule NCDiffOp.residual_norm takes."""
    m = 1 << max((max(w) for w in words), default=0).bit_length()
    d = dense_words(words, m)
    return float(np.hypot(d.real, d.imag).max())


def _adjoint(words):
    """(c X^x Z^z)* = conj(c) (-1)^{|x & z|} X^x Z^z."""
    return {(x, z): c.conjugate() * (-1) ** (x & z).bit_count() for (x, z), c in words.items()}


def _relations_residual(gammas, sigma):
    """The largest residual entry of gamma_j* = -gamma_j, {gamma_j, gamma_k} =
    -2 delta_jk, sigma* = sigma, sigma^2 = 1 and {sigma, gamma_j} = 0 (words)."""
    def anti(a, b, c=0.0):  # ab + ba + c 1
        return word_sum((1, word_product(a, b)), (1, word_product(b, a)), (c, _ONE))
    pairs = combinations_with_replacement(range(len(gammas)), 2)
    return max(map(_max_entry, [word_sum((1, _adjoint(g)), (1, g)) for g in gammas]
                   + [anti(gammas[j], gammas[k], 2.0 * (j == k)) for j, k in pairs]
                   + [anti(sigma, g) for g in gammas]
                   + [word_sum((1, _adjoint(sigma)), (-1, sigma)),
                      word_sum((1, word_product(sigma, sigma)), (-1, _ONE))]))


def relations_residual(rep):
    return _relations_residual(rep.gamma_words, rep.sigma_words)


def _grading(gammas, n):
    """gamma_1 ... gamma_n, and c = 1 (n/2 even) or -i (n/2 odd): sigma = it / c."""
    return reduce(word_product, gammas, _ONE), 1.0 if (n // 2) % 2 == 0 else -1j


def grading_product_check(rep):
    """Residual of gamma_1 ... gamma_n = c sigma."""
    prod, c = _grading(rep.gamma_words, rep.n)
    return _max_entry(word_sum((1, prod), (-c, rep.sigma_words)))


def charge_conjugation(rep, variant):
    """(C, (eps, eps', eps'')), C the word with C conj(gamma_j) = eps' gamma_j C
    (and the sigma constraint): of the gammas, n/2 real and n/2 imaginary,
    the product of the real ones (eps' = (-1)^(n/2 - 1)) or of the imaginary
    ones (eps' = (-1)^(n/2)), its phase (column 0's entry) made 1.  Every sign
    relation, C conj(C) = eps I included, is checked against the n mod 8 table."""
    eps, eps_p, eps_pp = (SIGNS_PLUS, SIGNS_MINUS)[_variant(variant)][rep.n % 8]
    use_real = eps_p == (-1) ** (rep.n // 2 - 1)
    ((word, _),) = reduce(word_product, [g for g in rep.gamma_words if (
        not any(c.imag for c in g.values())) == use_real], _ONE).items()
    C = MappingProxyType({word: 1 + 0j})
    # C conj(a) = e b, per (a, e, b)
    identities = [(g, eps_p, word_product(g, C)) for g in rep.gamma_words]
    identities += [(rep.sigma_words, eps_pp, word_product(rep.sigma_words, C)), (C, eps, _ONE)]
    res = max(_max_entry(word_sum((1, word_product(C, {w: c.conjugate() for w, c in a.items()})),
                                  (-e, b))) for a, e, b in identities)
    if res:
        raise SelfCheckError(f"charge conjugation failed for n={rep.n} {variant}: residual "
                             f"{res:.3e} (sign-table / representation mismatch)")
    return C, (eps, eps_p, eps_pp)


@lru_cache(maxsize=None)
def build_gamma(n):
    """The GammaRep for even n via the two-step tensor recursion, built and
    self-checked once per n: the rep is frozen, so every call shares it.

    The n=2 base case is the pair gamma_1 = i sigma_x = i X, gamma_2 =
    i sigma_y = -X Z with grading Z.  Each step appends a low qubit, Z on it
    in kron(gamma, sigma_z), and kron(1, i sigma_x), kron(1, i sigma_y) on it;
    the grading is the normalized product gamma_1 ... gamma_n / c."""
    if n % 2 != 0 or n < 2:
        raise CliffordError(f"n must be even and >= 2, got {n}")
    if n > MAX_N:
        raise CliffordError(f"n={n} exceeds supported ceiling {MAX_N}")
    gammas = []
    for _ in range(n // 2):
        gammas = [{(x << 1, z << 1 | 1): c for (x, z), c in g.items()} for g in gammas] + [
            {(1, 0): 1j}, {(1, 1): -1 + 0j}]
    prod, c = _grading(gammas, n)
    # + 0j makes a zero part +0.0, as the Pauli transform of the dense matrix gives it
    sigma = {w: v / c + 0j for w, v in prod.items()}
    res = _relations_residual(gammas, sigma)
    if res:
        raise SelfCheckError(f"gamma construction failed relations check: {res:.3e}")
    rep = GammaRep(n, 2 ** (n // 2), tuple(map(MappingProxyType, gammas)), MappingProxyType(sigma))
    (cp, sp), (cm, sm) = (charge_conjugation(rep, v) for v in ("plus", "minus"))
    return replace(rep, conj_plus_words=cp, signs_plus=sp, conj_minus_words=cm, signs_minus=sm)


def irreducibility_rank(rep):
    """Dimension of the span of all gamma products; N^2 iff irreducible.  Each
    product gamma_S is one word, its masks the XOR of its gammas', and distinct
    words are linearly independent: this counts the distinct words."""
    words = {(0, 0)}
    for g in rep.gamma_words:
        ((x, z),) = g
        words |= {(a ^ x, b ^ z) for a, b in words}
    return len(words)
