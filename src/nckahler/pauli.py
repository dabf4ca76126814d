"""Pauli words c X^x Z^z on m = 2^q: c times |i> -> (-1)^{|z & i|} |i ^ x> for
q-bit masks x, z, so column 0 holds c.  Words multiply exactly by the rule
X^{x1} Z^{z1} . X^{x2} Z^{z2} = (-1)^{|z1 & x2|} X^{x1 ^ x2} Z^{z1 ^ z2}, and a
kron concatenates the masks.  A word sum {(x, z): c} is the form
NCDiffOp.from_terms takes.  This leaf module sits below clifford and ncdiff."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class DimensionMismatch(ValueError):
    """Operands live over incompatible torus contexts or fibers."""


def magnitude(c):
    """|c| entrywise, the size rule of every residual and prune: np.hypot of
    the parts, which rounds as Python's abs(complex) does (np.abs may not)."""
    return np.hypot(c.real, c.imag)


def max_entry(c, axis=None):
    """The largest magnitude of c's entries (over axis), 0.0 when there are
    none; NaN if an entry is NaN."""
    return magnitude(c).max(axis=axis, initial=0.0)


def check_fiber(m):
    if m < 1 or m & (m - 1):
        raise DimensionMismatch(f"fiber {m} is not a power of two")


@lru_cache(maxsize=None)
def parity(m):
    """P[i] = |i| mod 2 for every mask i < m (read-only)."""
    out = np.array([i.bit_count() & 1 for i in range(m)], dtype=np.intp)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def signs(m):
    """S[z, i] = (-1)^{|z & i|}: row z is the diagonal of Z^z (read-only)."""
    idx = np.arange(m)
    out = 1.0 - 2.0 * parity(m)[idx[:, None] & idx[None, :]]
    out.setflags(write=False)
    return out


def pauli_words(mat):
    """The Pauli transform {(x, z): c} of a 2^q x 2^q matrix M,
    c(x, z) = (1/m) sum_i M[i ^ x, i] (-1)^{|z & i|}; zero words are dropped."""
    mat = np.asarray(mat, dtype=complex)
    m = mat.shape[0]
    if mat.shape != (m, m):
        raise DimensionMismatch(f"fiber matrix of shape {mat.shape} is not square")
    check_fiber(m)
    idx = np.arange(m)
    # row x holds the diagonal M[i ^ x, i] of the permutation X^x
    coeffs = mat[idx[:, None] ^ idx[None, :], idx[None, :]] @ signs(m) / m
    return {(int(x), int(z)): complex(coeffs[x, z]) for x, z in zip(*np.nonzero(coeffs))}


def densify(x, z, c, m):
    """The m x m matrix sum_w c_w X^x Z^z of the words (x, z, c), added in
    order: entry M[i ^ x, i] gets c (-1)^{|z & i|}."""
    out = np.zeros((m, m), dtype=complex)
    idx = np.arange(m)
    np.add.at(out, (x[:, None] ^ idx, idx), c[:, None] * signs(m)[z])
    return out


def dense_stack(sums, m):
    """The (len(sums), m, m) stack of the matrices of the word sums
    {(x, z): c}, each added in its order, as densify adds them."""
    s, x, z = np.array([(k, *w) for k, words in enumerate(sums) for w in words],
                       dtype=np.int64).reshape(-1, 3).T
    c = np.array([v for words in sums for v in words.values()], dtype=complex)
    out = np.zeros((len(sums), m, m), dtype=complex)
    idx = np.arange(m)
    np.add.at(out, (s[:, None], x[:, None] ^ idx, idx), c[:, None] * signs(m)[z])
    return out


def dense_words(words, m):
    """The m x m matrix of the word sum {(x, z): c}."""
    return dense_stack([words], m)[0]


def word_product(a, b):
    """The product of two word sums by the symplectic sign rule."""
    out = {}
    for (x1, z1), c1 in a.items():
        for (x2, z2), c2 in b.items():
            c = c1 * c2
            if (z1 & x2).bit_count() & 1:
                c = -c
            word = (x1 ^ x2, z1 ^ z2)
            out[word] = out[word] + c if word in out else c
    return out


def word_sum(*terms):
    """sum_i c_i w_i over (c_i, word sum w_i), exact zeros dropped."""
    out = {}
    for c, words in terms:
        for w, v in words.items():
            out[w] = out.get(w, 0) + c * v
    return {w: v for w, v in out.items() if v}


# The window of gaussian_integers: the lowest bit of a part may be 2^-DYADIC_EXP,
# and a part may have at most DYADIC_BITS significant bits.  Every float is
# dyadic, 1/3 too (6004799503160661 2^-54).  A float that rounds a number that
# is not fills its 53-bit significand, but for trailing zeros (6 or more only
# once in 32), so the second bound is what refuses it.
DYADIC_EXP, DYADIC_BITS = 60, 48


def gaussian_integers(c):
    """(e, re, im) of the complex array c: the smallest e in 0..DYADIC_EXP
    for which c 2^e has integer real and imaginary parts, and those parts as
    lists of Python ints, in c's flat order.  e comes from one np.frexp pass
    and the round trip is checked exactly.  ValueError on a part that is not
    finite, has a bit below 2^-DYADIC_EXP or more than DYADIC_BITS significant
    bits."""
    c = np.ascontiguousarray(c, dtype=complex).ravel()
    parts = c.view(float)  # re, im interleaved
    if not np.isfinite(parts).all():
        raise ValueError(f"coefficient {int(np.isfinite(parts).argmin()) // 2} is not finite")
    mant, exp = np.frexp(parts)
    sig = np.ldexp(mant, 53).astype(np.int64)  # exact: parts = sig 2^(exp - 53)
    # 2^(low - 1) is the lowest set bit of sig (of |sig|: two's complement
    # keeps it); a zero part needs no bit
    low = np.frexp(sig & -sig)[1]
    low[sig == 0] = 54
    need, bits = 54 - exp - low, 54 - low
    e = int(need.max(initial=0))
    if e > DYADIC_EXP or bits.max(initial=0) > DYADIC_BITS:
        i = int(((need > DYADIC_EXP) | (bits > DYADIC_BITS)).argmax()) // 2
        raise ValueError(f"coefficient {i} ({complex(c[i])!r}) is not a dyadic number"
                         f" of at most {DYADIC_BITS} bits within 2^-{DYADIC_EXP}")
    scaled = np.ldexp(parts, e)
    if not (np.array_equal(np.rint(scaled), scaled) and np.array_equal(np.ldexp(scaled, -e), parts)):
        raise ValueError(f"the coefficients do not round-trip at 2^{e}")
    ints = (scaled.astype(np.int64).tolist() if np.abs(scaled).max(initial=0) < 2.0 ** 63
            else [int(v) for v in scaled.tolist()])
    return e, ints[0::2], ints[1::2]


def word_kron(a, b, q):
    """kron(A, B) for B on q qubits: the masks concatenate, A's above B's."""
    return {(x1 << q | x2, z1 << q | z2): c1 * c2
            for (x1, z1), c1 in a.items() for (x2, z2), c2 in b.items()}
