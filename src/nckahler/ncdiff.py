"""Normal-ordered matrix-valued differential operators on the torus.

An operator is a finite sum  sum_alpha  M_alpha . del^alpha  where alpha is a
derivation multi-index and M_alpha is an m x m matrix of torus elements.  Since
the symbols del^alpha act on U^k with distinct eigenvalue tuples (2 pi i k)^alpha,
two operators agree on the dense smooth domain iff their normal forms agree
coefficient by coefficient — identity checks here are exact, not box-truncated.

Operator fibers have m = 2^q, and a coefficient M_alpha is a WordMatrix: per
Fourier mode k, the constant block of U^k as a sum of Pauli words {(x, z): c}.
The word (x, z) of q-bit masks is the signed permutation X^x Z^z:
|i> -> (-1)^{|z & i|} |i ^ x>.  Words multiply exactly by the symplectic rule

    X^{x1} Z^{z1} . X^{x2} Z^{z2} = (-1)^{|z1 & x2|} X^{x1 ^ x2} Z^{z1 ^ z2},

and (X^x Z^z)^dagger = (-1)^{|x & z|} X^x Z^z, so compose and adjoint never
form an m x m block.  Dense matrices enter through one Pauli transform
(pauli_words) and leave only for residual_norm and to_json; apply permutes
and signs rows.

NCDiffOp.products is the one product kernel: for a list of jobs (P, Q, s) it
returns every P.Q + s Q.P (s = 0, -1, +1) from one vectorised pass, and
compose, commutator and anticommutator are one-job calls.  Both orders of a
word pair give the word w1 ^ w2, with signs (-1)^{|z1 & x2|} and
(-1)^{|z2 & x1|} read from a parity table of the q-bit masks, so each pair is
formed once and, for commuting words in a commutator, adds nothing.  A Python
loop sets the weights of each block pair (phase, binomial, derivative
eigenvalue); numpy then expands the word pairs of every job at once and sums
each (job, target, word) with np.bincount, which adds in the order of the
block and word loops, so every sum equals that loop's bit for bit.  Every
result drops words below PRUNE_TOL once, at the end.

Every other matrix of torus elements, of any shape, is a TorusMatrix: a map
from Fourier exponent k to a constant rows x cols complex block (constant
fiber matrices commute with the scalar phases, so the blocked product is the
entrywise torus product).  Vectors of A_Theta^m are (m, 1) columns, and the
connection and morphism matrices of the holomorphic calculus are TorusMatrix
too.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product as iproduct

import numpy as np

from .torus import PRUNE_TOL, TWO_PI_I, DimensionMismatch, TorusElement


def _deriv_factor(k, delta):
    """Eigenvalue of del^delta on U^k."""
    return math.prod((TWO_PI_I * kj) ** dj for kj, dj in zip(k, delta) if dj)


@lru_cache(maxsize=4096)
def _push_weights(alpha, beta, kp):
    """(gamma + beta, C(alpha, gamma) (2 pi i k')^{alpha - gamma}) for every
    0 <= gamma <= alpha whose weight is not 0: where A del^alpha . B del^beta
    sends a block of B at mode k'."""
    out = []
    for gamma in iproduct(*(range(a + 1) for a in alpha)):
        if f := _deriv_factor(kp, tuple(a - g for a, g in zip(alpha, gamma))):
            coef = math.prod(math.comb(a, g) for a, g in zip(alpha, gamma))
            out.append((tuple(g + b for g, b in zip(gamma, beta)), coef * f))
    return tuple(out)


def _accumulate(acc, idx, k, w, words):
    """acc[idx][k][word] += w * c for every word of `words`."""
    block = acc.setdefault(idx, {}).setdefault(k, {})
    for word, c in words.items():
        c = w * c
        block[word] = block[word] + c if word in block else c


class TorusMatrix:
    """rows x cols matrix with torus-element entries, blocked by Fourier mode."""

    __slots__ = ("theta", "shape", "blocks")

    def __init__(self, theta, shape, blocks=None, prune=True):
        self.theta = theta
        self.shape = tuple(shape)
        self.blocks = {}
        if blocks:
            for k, mat in blocks.items():
                mat = np.asarray(mat, dtype=complex)
                if mat.shape != self.shape:
                    raise DimensionMismatch(f"block at {k} is {mat.shape}, not {self.shape}")
                if not prune or np.abs(mat).max() >= PRUNE_TOL:
                    self.blocks[k] = mat

    @classmethod
    def zero(cls, theta, shape):
        return cls(theta, shape)

    @classmethod
    def constant(cls, theta, mat):
        mat = np.asarray(mat, dtype=complex)
        return cls(theta, mat.shape, {(0,) * theta.n: mat})

    @classmethod
    def scalar_element(cls, a, m):
        """a . Id_m for a torus element a."""
        return cls(a.theta, (m, m), {k: c * np.eye(m) for k, c in a.coeffs.items()})

    @classmethod
    def unit_column(cls, theta, m, i, mode=None):
        """The column e_i . U^mode of A^m (mode 0 by default)."""
        col = np.zeros((m, 1), dtype=complex)
        col[i] = 1.0
        mode = (0,) * theta.n if mode is None else tuple(int(x) for x in mode)
        return cls(theta, (m, 1), {mode: col})

    @classmethod
    def random(cls, theta, shape, rng, radius=2, terms=3):
        """Entries TorusElement.random(theta, rng, radius, terms), drawn row-major."""
        rows, cols = shape
        return cls.from_entries(theta, [[TorusElement.random(theta, rng, radius, terms)
                                         for _ in range(cols)] for _ in range(rows)])

    @classmethod
    def from_entries(cls, theta, entries):
        """Build from a nested list of TorusElements, rows of equal length."""
        shape = (len(entries), len(entries[0]) if entries else 0)
        blocks = {}
        for i, row in enumerate(entries):
            if len(row) != shape[1]:
                raise DimensionMismatch("rows of entries differ in length")
            for j, a in enumerate(row):
                if not theta.compatible(a.theta):
                    raise DimensionMismatch(f"entry ({i}, {j}) is over another torus context")
                for k, c in a.coeffs.items():
                    blocks.setdefault(k, np.zeros(shape, dtype=complex))[i, j] = c
        return cls(theta, shape, blocks)

    def entry(self, i, j):
        coeffs = {k: b[i, j] for k, b in self.blocks.items()}
        return TorusElement(self.theta, coeffs)

    def _check(self, other, shapes_fit):
        if not shapes_fit:
            raise DimensionMismatch(f"torus matrices of shapes {self.shape} and {other.shape}")
        if not self.theta.compatible(other.theta):
            raise DimensionMismatch("torus matrices over incompatible contexts")

    def __add__(self, other):
        self._check(other, self.shape == other.shape)
        out = {k: b.copy() for k, b in self.blocks.items()}
        for k, b in other.blocks.items():
            out[k] = out[k] + b if k in out else b
        return TorusMatrix(self.theta, self.shape, out)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, z):
        return TorusMatrix(self.theta, self.shape, {k: z * b for k, b in self.blocks.items()})

    def matmul(self, other):
        """Entrywise torus product; phases factor out of the constant blocks."""
        self._check(other, self.shape[1] == other.shape[0])
        theta = self.theta
        out = {}
        for k, A in self.blocks.items():
            for kp, B in other.blocks.items():
                kk = tuple(x + y for x, y in zip(k, kp))
                term = theta.phase(k, kp) * (A @ B)
                out[kk] = out[kk] + term if kk in out else term
        return TorusMatrix(theta, (self.shape[0], other.shape[1]), out)

    def star(self):
        """Entrywise star composed with matrix transpose."""
        theta = self.theta
        out = {}
        for k, b in self.blocks.items():
            mk = tuple(-x for x in k)
            out[mk] = theta.star_phase(k) * b.conj().T
        return TorusMatrix(theta, self.shape[::-1], out, prune=False)

    def derive_multi(self, delta):
        """Apply del^delta entrywise: block k picks up (2 pi i k)^delta."""
        if all(d == 0 for d in delta):
            return self
        out = {}
        for k, b in self.blocks.items():
            f = _deriv_factor(k, delta)
            if f != 0:
                out[k] = f * b
        return TorusMatrix(self.theta, self.shape, out)

    def norm(self):
        return float(max((np.abs(b).max() for b in self.blocks.values()), default=0.0))

    def is_zero(self, tol=PRUNE_TOL):
        return self.norm() < tol


def inner_product(x, y):
    """<x, y> = sum_i tau(x_i* y_i): a vdot of the blocks of each common mode (Parseval)."""
    if x.shape != y.shape:
        raise DimensionMismatch(f"shapes {x.shape} and {y.shape} differ")
    return sum((np.vdot(b, y.blocks[k]) for k, b in x.blocks.items() if k in y.blocks), 0j)


# -- Pauli words --------------------------------------------------------------


def _check_fiber(m):
    if m < 1 or m & (m - 1):
        raise DimensionMismatch(f"fiber {m} is not a power of two")


@lru_cache(maxsize=None)
def _parity(m):
    """P[i] = |i| mod 2 for every mask i < m (read-only)."""
    parity = np.array([i.bit_count() & 1 for i in range(m)], dtype=np.intp)
    parity.setflags(write=False)
    return parity


@lru_cache(maxsize=None)
def _signs(m):
    """S[z, i] = (-1)^{|z & i|}: row z is the diagonal of Z^z (read-only)."""
    idx = np.arange(m)
    signs = 1.0 - 2.0 * _parity(m)[idx[:, None] & idx[None, :]]
    signs.setflags(write=False)
    return signs


def pauli_words(mat):
    """The Pauli transform {(x, z): c} of a 2^q x 2^q matrix M,
    c(x, z) = (1/m) sum_i M[i ^ x, i] (-1)^{|z & i|}; zero words are dropped."""
    mat = np.asarray(mat, dtype=complex)
    m = mat.shape[0]
    if mat.shape != (m, m):
        raise DimensionMismatch(f"fiber matrix of shape {mat.shape} is not square")
    _check_fiber(m)
    idx = np.arange(m)
    # row x holds the diagonal M[i ^ x, i] of the permutation X^x
    coeffs = mat[idx[:, None] ^ idx[None, :], idx[None, :]] @ _signs(m) / m
    return {(int(x), int(z)): complex(coeffs[x, z]) for x, z in zip(*np.nonzero(coeffs))}


def dense_words(words, m):
    """The m x m matrix sum_w c_w X^x Z^z (M[i ^ x, i] = c (-1)^{|z & i|})."""
    out = np.zeros((m, m), dtype=complex)
    idx, signs = np.arange(m), _signs(m)
    for (x, z), c in words.items():
        out[idx ^ x, idx] += c * signs[z]
    return out


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


def word_adjoint(words):
    """(sum_w c_w X^x Z^z)^dagger = sum_w conj(c_w) (-1)^{|x & z|} X^x Z^z."""
    return {(x, z): -c.conjugate() if (x & z).bit_count() & 1 else c.conjugate()
            for (x, z), c in words.items()}


def word_kron(a, b, q):
    """kron(A, B) for B on q qubits: the masks concatenate, A's above B's."""
    return {(x1 << q | x2, z1 << q | z2): c1 * c2
            for (x1, z1), c1 in a.items() for (x2, z2), c2 in b.items()}


def _entries(words, m):
    """{x: [M[r, r ^ x] for r < m]}: the words of one x summed into the
    entries of the signed permutation X^x, as (-1)^{|z & (r ^ x)|} c."""
    entries = {}
    for (x, z), c in words.items():
        e = entries.get(x, [0j] * m)
        entries[x] = [ei - c if (z & (r ^ x)).bit_count() & 1 else ei + c
                      for r, ei in enumerate(e)]
    return entries


def _act(entries, cols):
    """M @ cols for the entries of M (_entries): entry r of a column is
    sum_x M[r, r ^ x] col[r ^ x], as in the dense product."""
    out = []
    for col in cols.T.tolist():
        acc = [0j] * len(col)
        for x, e in entries.items():
            acc = [a + er * col[r ^ x] for r, (a, er) in enumerate(zip(acc, e))]
        out.append(acc)
    return np.array(out).T


def _pruned(blocks):
    """{k: words} without the words below PRUNE_TOL and the blocks they empty."""
    out = {}
    for k, words in blocks.items():
        words = {w: c for w, c in words.items() if abs(c) >= PRUNE_TOL}
        if words:
            out[k] = words
    return out


def _flatten(op, flat, xs, zs, cs):
    """[(alpha, [(mode, offset, length)])]: where each block of op's words
    sits in the flat lists xs, zs, cs, to which op is appended once (flat
    maps id(op) to this list)."""
    out = flat.get(id(op))
    if out is None:
        out = flat[id(op)] = []
        for alpha, M in op.terms.items():
            blocks = []
            for k, words in M.blocks.items():
                blocks.append((k, len(cs), len(words)))
                x, z = zip(*words)
                xs += x
                zs += z
                cs += words.values()
            out.append((alpha, blocks))
    return out


@lru_cache(maxsize=4096)
def _pair_weights(alpha, beta, k, kp, s, lam, mu):
    """(((idx, k + k'), (f + g, f - g, -f + g, -f - g)), ...): per target
    multi-index idx, the merged weights f of A del^alpha . B del^beta and g of
    s B del^beta . A del^alpha for blocks of A at mode k and of B at k', with
    the phases lam = lambda(k, k') and mu = lambda(k', k) (binomial,
    derivative eigenvalue and phase)."""
    fg = {idx: [lam * w, 0] for idx, w in _push_weights(alpha, beta, kp)}
    if s:
        mu = s * mu
        for idx, w in _push_weights(beta, alpha, k):
            fg.setdefault(idx, [0, 0])[1] = mu * w
    kk = tuple(x + y for x, y in zip(k, kp))
    return tuple(((idx, kk), (f + g, f - g, -f + g, -f - g)) for idx, (f, g) in fg.items())


def _sum_word_pairs(m, xs, zs, cs, segments, table):
    """(target, x, z, c) for every word sum of NCDiffOp.products that is not
    below PRUNE_TOL, in order of first contribution.

    A segment (a_off, a_len, b_off, b_len, target, row) pairs a_len words
    from a_off with b_len words from b_off, a-word major; word pair (w1, w2)
    adds table[4 row + 2 |z1 & x2| % 2 + |z2 & x1| % 2] c1 c2 under
    (target, w1 ^ w2), and nothing where that factor is 0.  The complex
    products are spelled out in real arithmetic as Python computes them
    (numpy's complex multiply may fuse them), and np.bincount adds in input
    order, so every sum is the loop's bit for bit.  A key packs (target, x, z)
    into one integer, x and z taking q bits each for m = 2^q; the pair count
    is known before any per-pair array is made."""
    q = m.bit_length() - 1
    x, z = np.array(xs, dtype=np.int64), np.array(zs, dtype=np.int64)
    c = np.array(cs, dtype=complex)
    segments = np.array(segments, dtype=np.int64).reshape(-1, 6)
    a_off, a_len, b_off, b_len, target, row = segments.T
    sizes = a_len * b_len
    pairs = int(sizes.sum())
    seg = np.repeat(np.arange(len(sizes)), sizes)
    u, v = np.divmod(np.arange(pairs) - np.repeat(np.cumsum(sizes) - sizes, sizes), b_len[seg])
    i, j = a_off[seg] + u, b_off[seg] + v
    x1, z1, x2, z2 = x[i], z[i], x[j], z[j]
    parity = _parity(m)
    t = np.array(table, dtype=complex)[4 * row[seg] + 2 * parity[z1 & x2] + parity[z2 & x1]]
    nz = t != 0
    key = (target[seg] << 2 * q | (x1 ^ x2) << q | z1 ^ z2)[nz]
    t, i, j = t[nz], i[nz], j[nz]
    ar, ai, br, bi = c.real[i], c.imag[i], c.real[j], c.imag[j]
    pr, pi = ar * br - ai * bi, ar * bi + ai * br
    keys, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    re = np.bincount(inverse, t.real * pr - t.imag * pi, len(keys))
    im = np.bincount(inverse, t.real * pi + t.imag * pr, len(keys))
    # np.hypot rounds as Python's abs(complex) does
    kept = np.flatnonzero(np.hypot(re, im) >= PRUNE_TOL)
    kept = kept[np.argsort(first[kept])]
    keys, sums = keys[kept], re[kept].astype(complex)
    sums.imag = im[kept]
    return zip((keys >> 2 * q).tolist(), (keys >> q & m - 1).tolist(),
               (keys & m - 1).tolist(), sums.tolist())


def _assemble(theta, m, acc):
    """The NCDiffOp of {alpha: {mode: words}} with pruned, nonempty blocks,
    less the multi-indices without blocks.  Its keys come from checked
    operands, so the constructors' checks are skipped."""
    op = object.__new__(NCDiffOp)
    op.theta, op.m, op.terms = theta, m, {}
    for alpha, blocks in acc.items():
        if blocks:
            M = op.terms[alpha] = object.__new__(WordMatrix)
            M.theta, M.m, M.blocks = theta, m, blocks
    return op


class WordMatrix:
    """m x m matrix of torus elements, m = 2^q, blocked by Fourier mode: each
    block is a sum of Pauli words, {k: {(x, z): c}}; words below PRUNE_TOL are
    dropped."""

    __slots__ = ("theta", "m", "blocks")

    def __init__(self, theta, m, blocks=None):
        _check_fiber(m)
        self.theta = theta
        self.m = m
        self.blocks = _pruned(blocks or {})

    @classmethod
    def from_dense(cls, tm):
        """The words of a square TorusMatrix, block by block."""
        if tm.shape[0] != tm.shape[1]:
            raise DimensionMismatch(f"coefficient of shape {tm.shape} is not square")
        return cls(tm.theta, tm.shape[0], {k: pauli_words(b) for k, b in tm.blocks.items()})

    def dense(self):
        m = self.m
        return TorusMatrix(self.theta, (m, m),
                           {k: dense_words(w, m) for k, w in self.blocks.items()})


class NCDiffOp:
    """Normal-ordered differential operator  sum_alpha M_alpha . del^alpha  on
    a fiber of m = 2^q, with WordMatrix coefficients."""

    __slots__ = ("theta", "m", "terms")

    def __init__(self, theta, m, terms=None):
        _check_fiber(m)
        self.theta = theta
        self.m = m
        self.terms = {}
        for alpha, mat in (terms or {}).items():
            alpha = tuple(int(x) for x in alpha)
            if len(alpha) != theta.n or any(a < 0 for a in alpha):
                raise ValueError(f"bad multi-index {alpha}")
            if mat.m != m:
                raise DimensionMismatch(f"coefficient on fiber {mat.m}, not {m}")
            if mat.blocks:
                self.terms[alpha] = mat

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, theta, m):
        return cls(theta, m)

    @classmethod
    def identity(cls, theta, m):
        return cls.from_words(theta, m, {(0,) * theta.n: {(0, 0): 1 + 0j}})

    @classmethod
    def constant(cls, theta, mat):
        """Degree-0 operator with a constant fiber matrix."""
        return cls.from_words(theta, len(mat), {(0,) * theta.n: pauli_words(mat)})

    @classmethod
    def derivation(cls, theta, m, j, mat=None):
        """del_j tensor mat (default identity fiber)."""
        alpha = tuple(int(i == j - 1) for i in range(theta.n))
        if mat is None:
            return cls.from_words(theta, m, {alpha: {(0, 0): 1 + 0j}})
        return cls.from_words(theta, len(mat), {alpha: pauli_words(mat)})

    @classmethod
    def from_words(cls, theta, m, words):
        """The constant-coefficient operator sum_alpha words[alpha] . del^alpha."""
        zero = (0,) * theta.n
        return cls(theta, m, {a: WordMatrix(theta, m, {zero: w}) for a, w in words.items()})

    @classmethod
    def mult(cls, a, m):
        """Left multiplication by the torus element a on A^m."""
        coeff = WordMatrix(a.theta, m, {k: {(0, 0): c} for k, c in a.coeffs.items()})
        return cls(a.theta, m, {(0,) * a.theta.n: coeff})

    @classmethod
    def random(cls, theta, m, rng, max_degree=1, radius=1, terms=2):
        out = {}
        for _ in range(terms):
            alpha = tuple(int(x) for x in rng.integers(0, max_degree + 1, size=theta.n))
            tm = TorusMatrix.random(theta, (m, m), rng, radius, 2)
            out[alpha] = out[alpha] + tm if alpha in out else tm
        return cls(theta, m, {a: WordMatrix.from_dense(tm) for a, tm in out.items()})

    # -- ring structure -----------------------------------------------------

    def _check(self, other):
        if self.m != other.m or not self.theta.compatible(other.theta):
            raise DimensionMismatch("operators over incompatible contexts")

    def _sum(self, other, sign):
        """self + sign * other, accumulated word by word and pruned once."""
        self._check(other)
        acc = {}
        for op, w in ((self, 1), (other, sign)):
            for alpha, M in op.terms.items():
                for k, words in M.blocks.items():
                    _accumulate(acc, alpha, k, w, words)
        return self._from_acc(acc)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def scale(self, z):
        return self._from_acc({a: {k: {w: z * c for w, c in words.items()}
                                   for k, words in M.blocks.items()}
                               for a, M in self.terms.items()})

    @staticmethod
    def products(jobs):
        """[P . Q + s Q . P for (P, Q, s) in jobs] (s = 0, -1 or +1), every word
        pair of every job in one vectorised pass, by

            A del^alpha . B del^beta = sum_{gamma <= alpha} C(alpha, gamma)
                                       A (del^{alpha - gamma} B) del^{gamma + beta}.

        Per block pair of a job, the weights of both orders (phase, binomial,
        derivative eigenvalue) merge per target multi-index into (f, g); a word
        pair adds (+-f +- g) c1 c2 under w1 ^ w2, signed by |z1 & x2| and
        |z2 & x1|, and nothing where that factor is 0.  Each sum runs in the
        order of the block and word loops, and every result drops the words
        below PRUNE_TOL.  Jobs may differ in torus and fiber; each result is
        over its P's."""
        flat, xs, zs, cs = {}, [], [], []
        # per (theta, alpha, beta, k, k', s): a (code, row) for each target of
        # _pair_weights, where a target (idx, k + k') has one code per call and
        # its factors (f + g, f - g, -f + g, -f - g) are row `row` of `table`
        weights, codes, table = {}, {}, []
        # six ints per segment (a block pair and one of its targets): offset
        # and length of each operand block in the flat words, target, row
        segments = []
        targets = []  # (job, code) of each target
        for job, (P, Q, s) in enumerate(jobs):
            P._check(Q)
            theta, target_of = P.theta, {}
            p_terms, q_terms = (_flatten(op, flat, xs, zs, cs) for op in (P, Q))
            for alpha, a_blocks in p_terms:
                for beta, b_blocks in q_terms:
                    for (k, a0, la), (kp, b0, lb) in iproduct(a_blocks, b_blocks):
                        key = (theta, alpha, beta, k, kp, s)
                        rows = weights.get(key)
                        if rows is None:
                            rows = weights[key] = []
                            lam, mu = theta.phase(k, kp), theta.phase(kp, k)
                            for target, f in _pair_weights(alpha, beta, k, kp, s, lam, mu):
                                code = codes.setdefault(target, len(codes))
                                rows.append((code, len(table) // 4))
                                table += f
                        for code, row in rows:
                            tid = target_of.get(code)
                            if tid is None:
                                tid = target_of[code] = len(targets)
                                targets.append((job, code))
                            segments += (a0, la, b0, lb, tid, row)
        m = max((P.m for P, _, _ in jobs), default=1)
        words = [{} for _ in targets]
        for t, x, z, c in _sum_word_pairs(m, xs, zs, cs, segments, table):
            words[t][x, z] = c
        accs, keys = [{} for _ in jobs], list(codes)
        for (job, code), w in zip(targets, words):
            idx, kk = keys[code]
            blocks = accs[job].setdefault(idx, {})
            if w:
                blocks[kk] = w
        return [_assemble(P.theta, P.m, acc) for (P, _, _), acc in zip(jobs, accs)]

    def compose(self, other):
        """Normal-ordered product self . other."""
        return NCDiffOp.products([(self, other, 0)])[0]

    def commutator(self, other):
        return NCDiffOp.products([(self, other, -1)])[0]

    def anticommutator(self, other):
        return NCDiffOp.products([(self, other, 1)])[0]

    def adjoint(self):
        """Formal adjoint w.r.t. <x,y> = sum_i tau(x_i* y_i), using
        del_j* = -del_j and (mult_a)* = mult_{a*}: (M del^alpha)* =
        (-1)^|alpha| sum_{gamma <= alpha} C(alpha, gamma) (del^{alpha - gamma} M*) del^gamma,
        accumulated over the blocks of M* in one pass and pruned once.  M* maps
        the block c X^x Z^z of U^k to star_phase(k) (X^x Z^z)^dagger at U^-k."""
        theta, zero = self.theta, (0,) * self.theta.n
        acc = {}
        for alpha, M in self.terms.items():
            sign = (-1) ** sum(alpha)
            for k, words in M.blocks.items():
                mk = tuple(-x for x in k)
                mu = theta.star_phase(k)
                starred = {w: mu * c for w, c in word_adjoint(words).items()}
                for gamma, w in _push_weights(alpha, zero, mk):
                    _accumulate(acc, gamma, mk, sign * w, starred)
        return self._from_acc(acc)

    def _from_acc(self, acc):
        """The operator of accumulated {alpha: {mode: {word: c}}}, dropping every
        word below PRUNE_TOL."""
        return _assemble(self.theta, self.m, {a: _pruned(b) for a, b in acc.items()})

    # -- action and comparison ---------------------------------------------

    def apply(self, v):
        """P v = sum_alpha M_alpha . del^alpha v for an (m, c) TorusMatrix v,
        the blocks acting as signed row permutations and the phases factored
        out as in TorusMatrix.matmul.  Nothing is normal-ordered, so this is an
        action oracle independent of compose and adjoint."""
        if v.shape[0] != self.m:
            raise DimensionMismatch(f"vector length {v.shape[0]} != fiber {self.m}")
        theta = self.theta
        out = {}
        for alpha, M in self.terms.items():
            dv = v.derive_multi(alpha)
            for k, words in M.blocks.items():
                entries = _entries(words, self.m)
                for kp, b in dv.blocks.items():
                    kk = tuple(x + y for x, y in zip(k, kp))
                    term = theta.phase(k, kp) * _act(entries, b)
                    out[kk] = out[kk] + term if kk in out else term
        return TorusMatrix(theta, v.shape, out)

    def residual_norm(self):
        """Max magnitude over all terms, modes and dense fiber entries; zero iff
        this is the zero operator (normal-form soundness).  An exactly
        cancelled operator has no terms and densifies nothing."""
        return max((M.dense().norm() for M in self.terms.values()), default=0.0)

    def is_zero(self, tol=1e-9):
        return self.residual_norm() < tol

    def close_to(self, other, tol=1e-9):
        return (self - other).residual_norm() < tol

    def max_degree(self):
        return max((sum(a) for a in self.terms), default=0)

    # -- serialization ------------------------------------------------------

    def to_json(self):
        """Each term's dense coefficient, entry by entry as torus elements."""
        out = []
        for alpha in sorted(self.terms):
            M = self.terms[alpha].dense()
            matrix = [[M.entry(i, j).to_json() for j in range(self.m)]
                      for i in range(self.m)]
            out.append({"alpha": list(alpha), "matrix": matrix})
        return out

    @classmethod
    def from_json(cls, theta, items):
        terms = {}
        for it in items:
            alpha = tuple(int(x) for x in it["alpha"])
            ents = [[TorusElement.from_json(theta, cell) for cell in row]
                    for row in it["matrix"]]
            terms[alpha] = WordMatrix.from_dense(TorusMatrix.from_entries(theta, ents))
        return cls(theta, len(items[0]["matrix"]) if items else 1, terms)

    def __repr__(self):
        return f"NCDiffOp(n={self.theta.n}, m={self.m}, terms={len(self.terms)})"
