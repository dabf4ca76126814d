"""Normal-ordered matrix-valued differential operators on the torus.

An operator is a finite sum  sum_alpha  M_alpha . del^alpha  where alpha is a
derivation multi-index and M_alpha is an m x m matrix of torus elements.  Since
the symbols del^alpha act on U^k with distinct eigenvalue tuples (2 pi i k)^alpha,
two operators agree on the dense smooth domain iff their normal forms agree
coefficient by coefficient — identity checks here are exact, not box-truncated.

Operator fibers have m = 2^q, and the block of U^k in M_alpha is a sum of
Pauli words c X^x Z^z of q-bit masks x, z (see pauli).  Words multiply by
the symplectic rule, and (X^x Z^z)^dagger = (-1)^{|x & z|} X^x Z^z, so
products and adjoints never form an m x m block; dense blocks appear only in
apply, residual_norm and to_json.  An NCDiffOp stores its words as flat
arrays, the x/z/phase tableau of Aaronson and Gottesman (PRA 70, 2004), and
its blocks as one integer table: per block the code of alpha, the n entries
of the mode k, and the span start:stop of the block's words.  Tuples appear
only at the edges: terms, from_terms, to_json and apply; an
operator's arrays are read-only.

The batch passes NCDiffOp.adjoints and products each split into a plan and
a run, as an inspector-executor loop does (Saltz, Mirchandaney and Crowley,
IEEE Trans. Computers 40(5), 1991); NCDiffOp.sums, whose plan would only
number its blocks, runs _reduce directly.  The plan is block-level: the
block pairs, their targets and weights (phase, binomial, derivative
eigenvalue; computed once per distinct class of blocks), and the numbering
of the result blocks (_number).  A pass is over one torus and one fiber
(DimensionMismatch otherwise); the plan depends only on those, the operands'
alpha and mode rows and the shape of the job list, so _planned keeps it under
a key of that content, never of object ids, and a pass over other words in
the same blocks (the next matching of a grid) reuses it.  The run is
word-level: it gathers the words, forms the word pairs with numpy and sums
them in one reduction, _collect: each (block, word) is summed in input order
with np.bincount, the sums torus.kept rejects are dropped, and blocks and
words keep the order a dict accumulation gives them.  Complex products are
spelled out in real arithmetic as Python computes them (numpy's complex
multiply may fuse them), so every sum equals the dict loop's bit for bit.
apply loops over the blocks of P, each acting on every mode of v in one
_act, v a TorusMatrix column stack (see torus).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from functools import lru_cache
from itertools import groupby, product as iproduct
from operator import add, itemgetter, lshift, sub

import numpy as np

from .pauli import check_fiber, dense_words, densify, max_entry, parity, pauli_words
from .torus import TWO_PI_I, DimensionMismatch, TorusMatrix, kept


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
        if f := _deriv_factor(kp, tuple(map(sub, alpha, gamma))):
            out.append((tuple(map(add, gamma, beta)), math.prod(map(math.comb, alpha, gamma)) * f))
    return tuple(out)


# -- word action ---------------------------------------------------------------


def _act(x, z, c, cols):
    """M @ b for each (m, w) block b of the stack cols, M the sum of the words
    (x, z, c): entry r of a column is sum_g M[r, r ^ xs[g]] b[r ^ xs[g]] over
    the distinct x in order of first appearance, added in that order with the
    complex products spelled out in real arithmetic."""
    idx = np.arange(cols.shape[1])
    xs = idx ^ np.array(list(dict.fromkeys(x.tolist())), dtype=np.int64)[:, None]
    M, v = densify(x, z, c, len(idx))[idx, xs], cols[:, xs]
    er, ei = M.real[None, :, :, None], M.imag[None, :, :, None]
    pr, pi = er * v.real - ei * v.imag, er * v.imag + ei * v.real
    out = np.zeros(cols.shape, dtype=complex)
    for g in range(len(xs)):
        out.real += pr[:, g]
        out.imag += pi[:, g]
    return out


# -- block tables -------------------------------------------------------------

# A multi-index alpha is coded as the integer sum_j alpha_j << 4j: at most 15
# entries, each in 0..15.
_SHIFTS, _AMAX = tuple(range(0, 60, 4)), 16


@lru_cache(maxsize=4096)
def _acode(alpha):
    if len(alpha) > len(_SHIFTS) or min(alpha, default=0) < 0 or max(alpha, default=0) >= _AMAX:
        raise ValueError(f"multi-index {alpha} is outside the code radix "
                         f"({len(_SHIFTS)} entries at most, each in 0..{_AMAX - 1})")
    return sum(map(lshift, alpha, _SHIFTS))


@lru_cache(maxsize=4096)
def _alpha(code, n):
    return tuple(code >> j & _AMAX - 1 for j in _SHIFTS[:n])


@lru_cache(maxsize=4096)
def _pair_weights(a, b, k, kp, s, lam, mu):
    """((code, (f + g, f - g, -f + g, -f - g)), ...): per target, the merged
    weights f of A del^alpha . B del^beta and g of s B del^beta . A del^alpha
    for blocks of A at mode k and of B at k' (codes a, b and phases lam =
    lambda(k, k'), mu = lambda(k', k)): binomial, derivative eigenvalue and
    phase.  Every target is at mode k + k'."""
    alpha, beta = _alpha(a, len(k)), _alpha(b, len(k))
    fg = {idx: [lam * w, 0] for idx, w in _push_weights(alpha, beta, kp)}
    if s:
        mu = s * mu
        for idx, w in _push_weights(beta, alpha, k):
            fg.setdefault(idx, [0, 0])[1] = mu * w
    return tuple((_acode(idx), (f + g, f - g, -f + g, -f - g)) for idx, (f, g) in fg.items())


def _first_ids(*cols):
    """Number the distinct rows of the integer columns cols in order of first
    appearance: (each row's number, each number's first row)."""
    srt = np.lexsort(cols[::-1])
    head = np.zeros(len(srt), dtype=bool)
    head[:1] = True
    for col in cols:
        col = col[srt]
        head[1:] |= col[1:] != col[:-1]
    first = srt[head]
    order = first.argsort()
    rank = np.empty(len(srt), dtype=np.intp)
    rank[srt] = order.argsort()[head.cumsum() - 1]
    return rank, first[order]


def _runs(counts):
    """For runs of counts[i] elements end to end: each element's run and its
    place in the run."""
    run = np.arange(len(counts)).repeat(counts)
    return run, np.arange(len(run)) - (counts.cumsum() - counts)[run]


def _unfold(keys, weigh, *dtypes):
    """The targets weigh(*row j of the integer columns keys) of every row j,
    weigh called once per distinct row: the row of each target, its index
    into the distinct rows' targets end to end, and per value of a target (of
    type dtypes[i]) the array of its values over those."""
    ids, first = _first_ids(*keys)
    weights = [weigh(*key) for key in zip(*(col[first].tolist() for col in keys))]
    lengths = np.array([len(w) for w in weights], dtype=np.intp)
    run, place = _runs(lengths[ids])
    t = (lengths.cumsum() - lengths)[ids][run] + place
    cols = list(zip(*(w for ws in weights for w in ws))) or [()] * len(dtypes)
    return run, t, [np.array(col, dtype=dt) for col, dt in zip(cols, dtypes)]


def _concat(ops):
    """The words x, z and c of ops end to end, and the offset and length of
    each block's words in them (an operator's blocks tile its words)."""
    start, stop = np.concatenate([op.table[-2:] for op in ops], axis=1)
    length = stop - start
    x, z, c = (np.concatenate([getattr(op, f) for op in ops]) for f in "xzc")
    return length.cumsum() - length, length, x, z, c


def _word_pairs(q, x, z, c, a_off, a_len, b_off, b_len, row, table):
    """(segment, x, z, re, im) of every word pair of NCDiffOp.products whose
    factor is not 0.  Segment i pairs a_len[i] words from a_off[i] with
    b_len[i] words from b_off[i], a-word major; word pair (w1, w2) gives
    table[4 row[i] + 2 |z1 & x2| % 2 + |z2 & x1| % 2] c1 c2 under w1 ^ w2."""
    # a-word g (word ia[g] of segment seg[g]) pairs with the bl[g] words from
    # b_off; pair p is (ia[k[p]], j[p]), and per-pair arrays are formed only
    # where needed, the rest gathered through k
    seg, place = _runs(a_len)
    ia, bl = a_off[seg] + place, b_len[seg]
    k = np.arange(len(ia)).repeat(bl)
    j = np.arange(len(k)) + (b_off[seg] - (bl.cumsum() - bl))[k]
    # each word packed as x << q | z
    low = (1 << q) - 1
    w = x << q | z
    w1, w2 = w[ia][k], w[j]
    par = parity(1 << q)
    t = table[(4 * row)[seg][k] + 2 * par[w1 & (w2 >> q) & low] + par[w2 & (w1 >> q) & low]]
    nz = t != 0
    t, k, j, w = t[nz], k[nz], j[nz], (w1 ^ w2)[nz]
    i = ia[k]
    ar, ai, br, bi = c.real[i], c.imag[i], c.real[j], c.imag[j]
    pr, pi = ar * br - ai * bi, ar * bi + ai * br
    return seg[k], w >> q, w & low, t.real * pr - t.imag * pi, t.real * pi + t.imag * pr


def _number(owner, alpha, mode):
    """_collect's blocks for segments adding to the blocks at mode mode[:, i]
    of M_alpha[i] of result owner[i], owners ascending: the distinct (owner,
    alpha, mode), grouped by (owner, alpha) and otherwise ordered as their
    first segments, and each segment's block."""
    # at mode 0 alone, each (owner, alpha) has one target
    if not mode.any():
        target, first = _first_ids(owner, alpha)
        return (owner[first], alpha[first], mode[:, first]), target
    target, first = _first_ids(owner, alpha, *mode)
    owner, alpha, mode = owner[first], alpha[first], mode[:, first]
    order = _first_ids(owner, alpha)[0].argsort(kind="stable")
    return (owner[order], alpha[order], mode[:, order]), order.argsort()[target]


def _collect(theta, m, count, blocks, block, x, z, re, im):
    """`count` NCDiffOps over theta and the fiber m = 2^q from the blocks
    (owner, alpha, mode) of _number: word i is (x[i], z[i]) with coefficient
    re[i] + i im[i] in block block[i].  Equal (block, word) are summed in
    input order (np.bincount on a stable sort) and words follow their first
    contribution.  A sort key packs (block, x, z), x and z taking q bits
    each."""
    q = m.bit_length() - 1
    key = block << 2 * q | x << q | z
    srt = key.argsort(kind="stable")
    key = key[srt]
    head = np.empty(len(key), dtype=bool)
    head[:1] = True
    np.not_equal(key[1:], key[:-1], out=head[1:])
    group = head.cumsum()
    first, block = srt[head], key[head] >> 2 * q
    out = np.lexsort((first, block))
    c = np.empty(len(out), dtype=complex)
    # group g >= 1 sums its words in input order into bin g
    c.real, c.imag = (np.bincount(group, w[srt])[1:][out] for w in (re, im))
    first = first[out]
    return _tabulate(theta, m, count, *blocks, block[out], x[first], z[first], c)


def _reduce(theta, m, count, owner, alpha, mode, seg, x, z, re, im):
    """_collect over _number's blocks of the segments (owner, alpha, mode),
    word i lying in segment seg[i]: the reduction in one call, whose halves
    the planned passes run apart (sums and the tests' block-pair loop reduce
    with it)."""
    blocks, block = _number(owner, alpha, mode)
    return _collect(theta, m, count, blocks, block[seg], x, z, re, im)


def _tabulate(theta, m, count, owner, alpha, mode, block, x, z, c):
    """`count` NCDiffOps over theta and the fiber m from the blocks (owner,
    alpha, mode) in stored order, owners ascending, and words ordered by
    block, an index into those, less the words that kept rejects and the
    blocks they empty."""
    keep = kept(c)
    if not keep.all():
        block, x, z, c = block[keep], x[keep], z[keep], c[keep]
    counts = np.bincount(block, minlength=len(owner))
    if not counts.all():
        present = counts.nonzero()[0]
        owner, alpha, mode, counts = owner[present], alpha[present], mode[:, present], counts[present]
    stop = counts.cumsum()
    # each owner's blocks and words are contiguous, in owner order
    cuts = owner.searchsorted(np.arange(count + 1))
    base = np.concatenate(([0], stop))[cuts]
    stop -= base[:-1].repeat(cuts[1:] - cuts[:-1])
    table = np.concatenate((alpha[None], mode, (stop - counts)[None], stop[None]))
    cuts, base = cuts.tolist(), base.tolist()
    # read-only before slicing, so that every operator's views are: plans and
    # the dedupe of operators by identity rely on operators never changing
    for a in (x, z, c, table):
        a.setflags(write=False)
    return [NCDiffOp(theta, m, x[w0:w1], z[w0:w1], c[w0:w1], table[:, b0:b1])
            for b0, b1, w0, w1 in zip(cuts, cuts[1:], base, base[1:])]


# -- plans --------------------------------------------------------------------

# The batched passes split into a plan, their block-level layout, and a run
# over the words.  At most PLAN_CACHE plans are kept, the least recently used
# dropped first.
PLAN_CACHE = 128
_PLANS, _PLANNING = OrderedDict(), threading.Lock()


def _distinct(operands):
    """(theta, m) of a pass over operands, its distinct operators by identity
    (an NCDiffOp hashes by identity, and its arrays are read-only), and each
    operand's slot among them.  A pass is over one torus and one fiber:
    DimensionMismatch if the operands' differ."""
    ops = list(dict.fromkeys(operands))
    theta, m = ops[0].theta, ops[0].m
    for op in ops:
        if op.m != m or op.theta is not theta and not theta.compatible(op.theta):
            raise DimensionMismatch("a pass over operators of different tori or fibers")
    slot = {op: i for i, op in enumerate(ops)}
    return (theta, m), ops, tuple(map(slot.__getitem__, operands))


def _planned(kind, ops, shape, build):
    """build(ops, shape), the plan of a `kind` pass over the distinct operands
    ops with the job shape `shape` (a tuple of slots), or the plan of an
    earlier pass of the same key.  The key is content only: the n and entries
    of the pass's torus (a ThetaMatrix is read-only), its fiber, and per
    operand its alpha and mode rows (whose length gives the block count); the
    word counts are not in it.  The cache is safe to share across threads:
    _PLANNING guards every read and write of _PLANS, and two threads that
    miss on one key build equal plans."""
    theta = ops[0].theta
    key = (kind, shape, theta.n, theta.entries.tobytes(), ops[0].m,
           *(op.table[:-2].tobytes() for op in ops))
    with _PLANNING:
        plan = _PLANS.get(key)
        if plan is not None:
            _PLANS.move_to_end(key)
            return plan
    plan = build(ops, shape)
    for a in plan:
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    with _PLANNING:
        _PLANS[key] = plan
        while len(_PLANS) > PLAN_CACHE:
            _PLANS.popitem(last=False)
    return plan


def _products_plan(ops, shape):
    """The block-level layout of NCDiffOp.products over ops and the jobs
    (P slot, Q slot, s) of shape: per segment (a block pair's target), its
    block u of P and v of Q in the blocks of ops end to end, its row of the
    weight table and its block of _collect; the table and those blocks."""
    theta, nb = ops[0].theta, np.array([op.table.shape[1] for op in ops])
    b0 = nb.cumsum() - nb
    AM = np.concatenate([op.table[:-2] for op in ops], axis=1)
    A, M = AM[0], AM[1:]
    # alpha groups, numbered in order within each operand
    G = np.zeros(len(A), dtype=np.intp)
    G[1:] = (A[1:] != A[:-1]).cumsum()
    p, q, s = (np.array(col) for col in zip(*shape))
    job, place = _runs(nb[p] * nb[q])
    u, v = np.divmod(place, nb[q][job])
    u, v = u + b0[p][job], v + b0[q][job]
    order = np.lexsort((v, u, G[v], G[u], job))
    job, u, v = job[order], u[order], v[order]
    # blocks of one (alpha, mode) class share their pairs' weights
    cls, rep = _first_ids(*AM)
    a, K, nc = A[rep].tolist(), list(zip(*M[:, rep].tolist())), len(rep)

    def weigh(key):
        (r, j), i = divmod(key // nc, nc), key % nc
        return _pair_weights(a[j], a[i], K[j], K[i], r - 1,
                             theta.phase(K[j], K[i]), theta.phase(K[i], K[j]))

    # key ((s + 1) nc + class of P's block) nc + class of Q's block
    seg, row, (target, table) = _unfold((((s[job] + 1) * nc + cls[u]) * nc + cls[v],),
                                        weigh, np.int64, complex)
    blocks, block = _number(job[seg], target[row], M[:, u[seg]] + M[:, v[seg]])
    return (u[seg], v[seg], row, table.ravel(), *blocks, block)


def _adjoints_plan(ops, shape):
    """The block-level layout of NCDiffOp.adjoints of the operands ops[i], i
    in shape: per target (gamma, -k) of each block, its block among the
    operands' blocks end to end, the star phase of k and the weight
    (-1)^|alpha| C(alpha, gamma) (-2 pi i k)^(alpha - gamma); the blocks of
    _collect and each target's block."""
    theta, ops = ops[0].theta, [ops[i] for i in shape]
    owner = np.arange(len(ops)).repeat([op.table.shape[1] for op in ops])
    AM = np.concatenate([op.table[:-2] for op in ops], axis=1)

    def weigh(a, *k):
        alpha, mk = _alpha(a, theta.n), tuple(-v for v in k)
        mu = theta.star_phase(k)
        return tuple((_acode(gamma), mu, complex((-1) ** sum(alpha) * w))
                     for gamma, w in _push_weights(alpha, (0,) * theta.n, mk))

    seg, t, (alpha, mu, w) = _unfold(tuple(AM), weigh, np.int64, complex, complex)
    blocks, block = _number(owner[seg], alpha[t], -AM[1:, seg])
    return (seg, mu[t], w[t], *blocks, block)


class Term:
    """Read-only view of one multi-index of an NCDiffOp (NCDiffOp.terms):
    blocks = {k: {(x, z): c}} in stored order."""

    __slots__ = ("theta", "m", "blocks")

    def __init__(self, theta, m, blocks):
        self.theta, self.m, self.blocks = theta, m, blocks

    def dense(self):
        """The coefficient as an m x m TorusMatrix."""
        return TorusMatrix(self.theta, (self.m, self.m),
                           {k: dense_words(w, self.m) for k, w in self.blocks.items()})


class NCDiffOp:
    """Normal-ordered differential operator  sum_alpha M_alpha . del^alpha  on
    a fiber of m = 2^q: the words x, z (int64 masks) and c (complex128), and
    the block table, an (n + 3) x blocks int64 array whose rows give per block
    of U^k in M_alpha the alpha code, the n entries of k and the words
    start:stop.  The blocks tile the words in order, the blocks of one alpha
    are adjacent, and torus.kept keeps every word.  The arrays are read-only."""

    __slots__ = ("theta", "m", "x", "z", "c", "table")

    def __init__(self, theta, m, x, z, c, table):
        self.theta, self.m, self.x, self.z, self.c, self.table = theta, m, x, z, c, table

    # views of the block table: mode is its (n, blocks) middle
    alpha, mode, start, stop = (property(lambda op, i=i: op.table[i])
                                for i in (0, slice(1, -2), -2, -1))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_terms(cls, theta, m, terms):
        """The operator of {alpha: {k: {(x, z): c}}}, in that order, less the
        words that kept rejects; a dict holds each block and word once, so
        nothing is summed.  For a list of such dicts, the list of their
        operators from one _tabulate."""
        check_fiber(m)
        n, jobs = theta.n, terms if isinstance(terms, list) else [terms]
        owners, codes, modes, lengths, words, cs = [], [], [], [], [], []
        for owner, job in enumerate(jobs):
            for alpha, blocks in job.items():
                alpha = tuple(int(a) for a in alpha)
                if len(alpha) != n:
                    raise ValueError(f"bad multi-index {alpha}")
                code = _acode(alpha)
                for k, block in blocks.items():
                    if len(k) != n:
                        raise DimensionMismatch(f"mode {k} is not in Z^{n}")
                    owners.append(owner)
                    codes.append(code)
                    modes.append(k)
                    lengths.append(len(block))
                    words += block
                    cs += block.values()
        x, z = np.array(words, dtype=np.int64).reshape(-1, 2).T
        # nonzero for a negative mask and for one of more than q bits
        if ((x | z) >> m.bit_length() - 1).any():
            raise DimensionMismatch(f"a word outside the fiber of {m}")
        ops = _tabulate(theta, m, len(jobs), np.array(owners, dtype=np.intp),
                        np.array(codes, dtype=np.int64),
                        np.array(modes, dtype=np.int64).reshape(-1, n).T,
                        np.arange(len(codes)).repeat(lengths), x, z, np.array(cs, dtype=complex))
        return ops if isinstance(terms, list) else ops[0]

    @classmethod
    def zero(cls, theta, m):
        return cls.from_terms(theta, m, {})

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
        return cls.from_terms(theta, m, {a: {zero: w} for a, w in words.items()})

    @classmethod
    def mult(cls, a, m):
        """Left multiplication by the torus element a on A^m; for a non-empty
        list of elements over one torus, the list of their operators from one
        from_terms."""
        if not isinstance(a, list):
            return cls.mult([a], m)[0]
        theta = a[0].theta
        if not all(theta.compatible(b.theta) for b in a):
            raise DimensionMismatch("elements over different torus contexts")
        zero = (0,) * theta.n
        return cls.from_terms(theta, m, [{zero: {k: {(0, 0): c} for k, c in b.coeffs.items()}}
                                         for b in a])

    @classmethod
    def random(cls, theta, m, rng, max_degree=1, radius=1, terms=2):
        out = {}
        for _ in range(terms):
            alpha = tuple(int(x) for x in rng.integers(0, max_degree + 1, size=theta.n))
            tm = TorusMatrix.random(theta, (m, m), rng, radius, 2)
            out[alpha] = out[alpha] + tm if alpha in out else tm
        return cls.from_terms(theta, m, {a: {k: pauli_words(b) for k, b in tm.blocks.items()}
                                         for a, tm in out.items()})

    def _table(self):
        """(alpha, k, start, stop) of each block, as tuples."""
        n, (a, *k, s, e) = self.theta.n, self.table.tolist()
        return [(_alpha(c, n), kk, s0, e0) for c, kk, s0, e0 in zip(a, zip(*k), s, e)]

    @property
    def terms(self):
        """{alpha: Term}, a read-only dict view of the words in stored order."""
        x, z, c = self.x.tolist(), self.z.tolist(), self.c.tolist()
        return {alpha: Term(self.theta, self.m,
                            {k: dict(zip(zip(x[s:e], z[s:e]), c[s:e])) for _, k, s, e in blocks})
                for alpha, blocks in groupby(self._table(), itemgetter(0))}

    # -- ring structure -----------------------------------------------------

    @staticmethod
    def sums(jobs):
        """[z_1 P_1 + z_2 P_2 + ... for each job [(z_1, P_1), (z_2, P_2), ...]],
        every job in one reduction, all over one torus and fiber.  A job's
        words are summed in term order, as adding the scaled terms one by one
        into a dict would."""
        terms = [(job, complex(a), op) for job, pairs in enumerate(jobs) for a, op in pairs]
        ops = [op for _, _, op in terms]
        (theta, m), *_ = _distinct(ops)
        _, length, x, z, c = _concat(ops)
        AM = np.concatenate([op.table[:-2] for op in ops], axis=1)
        a = np.array([a for _, a, _ in terms]).repeat([len(op.c) for op in ops])
        return _reduce(theta, m, len(jobs),
                       np.repeat([job for job, _, _ in terms], [op.table.shape[1] for op in ops]),
                       AM[0], AM[1:], np.arange(AM.shape[1]).repeat(length), x, z,
                       a.real * c.real - a.imag * c.imag, a.real * c.imag + a.imag * c.real)

    def __add__(self, other):
        return NCDiffOp.sums([[(1, self), (1, other)]])[0]

    def __sub__(self, other):
        return NCDiffOp.sums([[(1, self), (-1, other)]])[0]

    def scale(self, z):
        return NCDiffOp.sums([[(z, self)]])[0]

    @staticmethod
    def products(jobs):
        """[P . Q + s Q . P for (P, Q, s) in jobs] (s = 0, -1 or +1), every word
        pair of every job in one vectorised pass, by

            A del^alpha . B del^beta = sum_{gamma <= alpha} C(alpha, gamma)
                                       A (del^{alpha - gamma} B) del^{gamma + beta}.

        Per block pair of a job, the weights of both orders merge per target
        into (f, g) (_pair_weights, once per distinct pair of codes, modes and
        phases); a word pair adds (+-f +- g) c1 c2 under w1 ^ w2, signed by
        |z1 & x2| and |z2 & x1|, and nothing where that factor is 0.  The
        sums run in the order of job, alpha group of P, of Q, block of P, of
        Q, target and word pair.  All jobs are over one torus and fiber.  The
        block pairs, weights and target blocks are a plan (_products_plan),
        kept per torus, fiber, alpha and mode rows of the distinct operands
        and (P, Q, s) of the jobs (_planned), so a pass over new words in
        known blocks runs only the word pairs and their reduction."""
        if not jobs:
            return []
        (theta, m), ops, slots = _distinct([op for P, Q, _ in jobs for op in (P, Q)])
        u, v, row, table, *blocks, block = _planned(
            "products", ops, tuple(zip(slots[::2], slots[1::2], (s for *_, s in jobs))),
            _products_plan)
        off, length, x, z, c = _concat(ops)
        seg, x, z, re, im = _word_pairs(m.bit_length() - 1, x, z, c, off[u], length[u],
                                        off[v], length[v], row, table)
        return _collect(theta, m, len(jobs), blocks, block[seg], x, z, re, im)

    def compose(self, other):
        """Normal-ordered product self . other."""
        return NCDiffOp.products([(self, other, 0)])[0]

    def commutator(self, other):
        return NCDiffOp.products([(self, other, -1)])[0]

    def anticommutator(self, other):
        return NCDiffOp.products([(self, other, 1)])[0]

    @staticmethod
    def adjoints(ops):
        """[P* for P in ops] in one reduction: the formal adjoints w.r.t.
        <x,y> = sum_i tau(x_i* y_i), by del_j* = -del_j, (mult_a)* = mult_{a*}
        and (M del^alpha)* =
        (-1)^|alpha| sum_{gamma <= alpha} C(alpha, gamma) (del^{alpha - gamma} M*) del^gamma.
        M* maps c X^x Z^z at U^k to star_phase(k) (X^x Z^z)^dagger at U^-k.
        All are over one torus and fiber.  The targets and weights of each
        block are a plan (_adjoints_plan), kept per torus, fiber, alpha and
        mode rows of the operands (_planned)."""
        (theta, m), distinct, slots = _distinct(ops)
        seg, mu, w, *blocks, block = _planned("adjoints", distinct, slots, _adjoints_plan)
        off, length, x, z, c = _concat(ops)
        # the words of every (block, gamma), run after run
        run, place = _runs(length[seg])
        i = off[seg][run] + place
        x, z, c, mu, w = x[i], z[i], c[i], mu[run], w[run]
        # (X^x Z^z)^dagger = (-1)^{|x & z|} X^x Z^z
        flip = 1.0 - 2.0 * parity(m)[x & z]
        ar, ai = flip * c.real, -flip * c.imag
        tr, ti = mu.real * ar - mu.imag * ai, mu.real * ai + mu.imag * ar
        return _collect(theta, m, len(ops), blocks, block[run], x, z,
                        w.real * tr - w.imag * ti, w.real * ti + w.imag * tr)

    def adjoint(self):
        return NCDiffOp.adjoints([self])[0]

    # -- action and comparison ---------------------------------------------

    def apply(self, v):
        """P v = sum_alpha M_alpha . del^alpha v for an (m, c) TorusMatrix v: per
        block of P, one _act on the modes of v where del^alpha is not 0, each
        term phase(k', k) M (del^alpha b) added at k' + k in block order, the
        phases from one table over P's and v's modes.
        Nothing is normal-ordered, so this is an action oracle independent of
        compose and adjoint."""
        if v.shape[0] != self.m:
            raise DimensionMismatch(f"vector length {v.shape[0]} != fiber {self.m}")
        if any(len(k) != self.theta.n for k in v.blocks):
            raise DimensionMismatch(f"a mode of v is not in Z^{self.theta.n}")
        out, modes = {}, [*v.blocks]
        lam = self.theta.phases(self.table[1:-2].T[:, None],
                                np.array(modes, dtype=int).reshape(-1, self.theta.n))
        for (alpha, kp, s, e), row in zip(self._table(), lam):
            fac = [(k, f, ph) for k, ph in zip(modes, row) if (f := _deriv_factor(k, alpha))]
            if not fac:
                continue
            cols = np.array([f * v.blocks[k] for k, f, _ in fac])
            for (k, _, ph), act in zip(fac, _act(self.x[s:e], self.z[s:e], self.c[s:e], cols)):
                kk = tuple(map(add, kp, k))
                term = ph * act
                out[kk] = out[kk] + term if kk in out else term
        return TorusMatrix(self.theta, v.shape, out)

    def _dense(self, s, e):
        return densify(self.x[s:e], self.z[s:e], self.c[s:e], self.m)

    def residual_norm(self):
        """max_entry over all terms, modes and dense fiber entries; zero iff
        this is the zero operator (normal-form soundness)."""
        if not len(self.c):
            return 0.0
        return float(max_entry(np.array([*map(self._dense, self.start.tolist(),
                                              self.stop.tolist())])))

    def max_degree(self):
        return int((self.alpha[:, None] >> np.array(_SHIFTS) & _AMAX - 1).sum(axis=1).max(initial=0))

    # -- serialization ------------------------------------------------------

    def to_json(self):
        """Each term's dense coefficient, entry by entry as torus elements."""
        m, out = self.m, []
        for alpha, blocks in sorted((a, list(b)) for a, b in groupby(self._table(), itemgetter(0))):
            M = TorusMatrix(self.theta, (m, m), {k: self._dense(s, e) for _, k, s, e in blocks})
            out.append({"alpha": list(alpha),
                        "matrix": [[M.entry(i, j).to_json() for j in range(m)] for i in range(m)]})
        return out

    def __repr__(self):
        return f"NCDiffOp(n={self.theta.n}, m={self.m}, terms={len(set(self.alpha.tolist()))})"
