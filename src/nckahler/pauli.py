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


def dense_words(words, m):
    """The m x m matrix of the word sum {(x, z): c}."""
    x, z = np.array(list(words), dtype=np.int64).reshape(-1, 2).T
    return densify(x, z, np.array(list(words.values()), dtype=complex), m)


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


def word_kron(a, b, q):
    """kron(A, B) for B on q qubits: the masks concatenate, A's above B's."""
    return {(x1 << q | x2, z1 << q | z2): c1 * c2
            for (x1, z1), c1 in a.items() for (x2, z2), c2 in b.items()}
