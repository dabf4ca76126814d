"""Holomorphic calculus: the delta_j operators, holomorphic elements,
delbar-connections on free modules, flatness, H^0, morphisms, and the
dimension-2 reduction to the classical del_tau operator.

A connection keeps its coefficient matrices A_j as nested lists of torus
elements, the form of its JSON.  The flatness and morphism checks read them,
and the possibly rectangular morphism phi, as TorusMatrix (torus) once and do
their algebra there; delta_j acts on a TorusMatrix of any shape, an element
being the 1 x 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product as iproduct

import numpy as np

from .torus import TWO_PI_I, DimensionMismatch, TorusElement, TorusMatrix, max_entry

# h0_solve refuses a system it would need more than this many bytes to hold:
# its entries (ENTRY_BYTES each, counting the copies its assembly and labelling
# make), or one batch of equal-shape blocks with their SVD factors;
# holomorphic_kernel likewise refuses a pair grid.
MAX_BYTES = 1 << 30
ENTRY_BYTES = 200  # tracemalloc peak per entry: 129-183 on n=4 constant connections


class BoundError(ValueError):
    """A computation refused because it would take more than MAX_BYTES."""


def _check_bytes(n_bytes, what):
    if n_bytes > MAX_BYTES:
        raise BoundError(f"{what} needs {n_bytes} bytes, over the holomorphic.MAX_BYTES "
                         f"limit of {MAX_BYTES} bytes; reduce the radius")


def delta(a, j):
    """delta_j = del_{2j} + i del_{2j-1} (1-based j up to n/2), entrywise on a
    TorusMatrix a: block k picks up delta_eigenvalue(k, j)."""
    return a.multiplier(lambda k: delta_eigenvalue(k, j))


def delta_eigenvalue(m, j):
    """Eigenvalue of delta_j on U^m."""
    return TWO_PI_I * (m[2 * j - 1] + 1j * m[2 * j - 2])


def delbar_tuple(a):
    """(delta_1(a), ..., delta_{n/2}(a)) — a is holomorphic iff all vanish."""
    return tuple(delta(a, j) for j in range(1, a.theta.n // 2 + 1))


def holomorphic_kernel(theta, radius):
    """C-basis of { a supported in box(radius) : delta_j(a) = 0 for all j }.

    The delta_j are diagonal on monomials, and delta_j's eigenvalue on U^m
    reads only the pair (m_{2j-1}, m_{2j}), so the kernel is spanned by the
    product of the n/2 pair kernels, in box order.  Each pair kernel is one
    delta_eigenvalue test over the (2 radius + 1)^2 grid of its pair, on modes
    zero off the pair, refused over MAX_BYTES; contract: only U^0.  The test
    is exact: on an integer mode the eigenvalue is -2 pi m_{2j-1} +
    2 pi m_{2j} i, and each part is 0 exactly when its integer is."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    side = 2 * radius + 1
    _check_bytes(side ** 2 * 40, "the pair grid")  # tracemalloc peak: 40 bytes a point
    grid = np.indices((side, side)).reshape(2, -1) - radius  # box order
    pairs = []
    for j in range(1, theta.n // 2 + 1):
        mode = [0] * theta.n
        mode[2 * j - 2:2 * j] = grid
        pairs.append(grid[:, delta_eigenvalue(mode, j) == 0].T.tolist())
    return [TorusElement.monomial(theta, [x for pair in m for x in pair]) for m in iproduct(*pairs)]


@dataclass
class Connection:
    """delbar-connection on the free module A^m: nabla_j = delta_j + A_j."""

    theta: object
    m: int
    A: list  # n/2 matrices, each m x m nested lists of TorusElements

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        half = self.theta.n // 2
        if len(self.A) != half:
            raise DimensionMismatch(f"need {half} coefficient matrices, got {len(self.A)}")
        for Aj in self.A:
            if len(Aj) != self.m or any(len(r) != self.m for r in Aj):
                raise DimensionMismatch("coefficient matrix is not m x m")

    def to_json(self):
        return {"m": self.m, "A": [[[a.to_json() for a in row] for row in Aj] for Aj in self.A]}

    @classmethod
    def from_json(cls, theta, obj):
        return cls(theta, int(obj["m"]), [[[TorusElement.from_json(theta, cell) for cell in row]
                                            for row in Aj] for Aj in obj["A"]])


def grassmannian(theta, m):
    """The flat connection on the free module: all A_j = 0."""
    half = theta.n // 2
    return Connection(theta, m, [[[TorusElement.zero(theta) for _ in range(m)] for _ in range(m)]
                                 for _ in range(half)])


def flatness_check(conn):
    """Max curvature residual over l < r:
    delta_l(A_r) - delta_r(A_l) + [A_l, A_r]; zero iff holomorphic structure,
    NaN if a curvature entry is NaN."""
    A = [TorusMatrix.from_entries(conn.theta, Aj) for Aj in conn.A]
    return float(max_entry(np.array([
        ((delta(Ar, l + 1) - delta(Al, r + 1)) + (Al.matmul(Ar) - Ar.matmul(Al))).norm()
        for (l, Al), (r, Ar) in combinations(enumerate(A), 2)])))


def _position_in_block(block):
    """Each node's index among the nodes of its block, in node order."""
    order = np.argsort(block, kind="stable")
    counts = np.bincount(block)
    local = np.empty_like(block)
    local[order] = np.arange(len(block)) - (np.cumsum(counts) - counts)[block[order]]
    return local


def _row_ids(rows):
    """The inverse of np.unique(rows, axis=0) for integer rows: a 1-D np.unique
    of a mixed-radix code, ranked again before a digit could overflow int64."""
    code = np.zeros(len(rows), dtype=np.int64)
    for col in (rows - rows.min(axis=0)).T:
        if (int(code.max()) + 1) * (int(col.max()) + 1) > 1 << 62:
            code = np.unique(code, return_inverse=True)[1]
        code = code * (int(col.max()) + 1) + col
    return np.unique(code, return_inverse=True)[1]


def _components(a, b, size):
    """The connected components of the undirected graph on range(size) with
    edges (a[e], b[e]): their number, and each vertex's component, numbered in
    order of the components' smallest vertices (scipy's connected_components
    numbering).  Hook and shortcut (Shiloach-Vishkin): each round hooks every
    edge's larger root under its smaller one, then jumps pointers until every
    vertex points at a root; it stops when no edge joins two roots."""
    parent = np.arange(size)
    while True:
        ra, rb = parent[a], parent[b]
        cross = ra != rb
        if not cross.any():
            break
        np.minimum.at(parent, np.maximum(ra, rb)[cross], np.minimum(ra, rb)[cross])
        while not np.array_equal(up := parent[parent], parent):
            parent = up
    roots, labels = np.unique(parent, return_inverse=True)
    return len(roots), labels


def _svd(stack):
    """s and vh of np.linalg.svd(stack, full_matrices=False), or of scipy's
    gesvd where gesdd does not converge.  One-column blocks skip LAPACK: s is
    the column's norm, and vh is [[1]] as LAPACK's."""
    if stack.shape[2] == 1:
        return np.linalg.norm(stack, axis=1), np.ones((len(stack), 1, 1), dtype=complex)
    try:
        return np.linalg.svd(stack, full_matrices=False)[1:]
    except np.linalg.LinAlgError:
        # gesdd did not converge: gesvd, block by block (scipy < 1.15 has no batches)
        from scipy.linalg import svd
        s, vh = zip(*(svd(a, full_matrices=False, lapack_driver="gesvd")[1:] for a in stack))
        return np.stack(s), np.stack(vh)


def _column_factors(theta, m, box, terms):
    """_block_factors of a system whose terms all sit at mode 0 on the
    diagonal: unknown (t, l) meets only the rows (j, t, l), so it is a
    one-column block whose column over j is delta_j(t) + A_j[l, l] (added
    into zeros in terms order; lambda(0, t) is 1), in unknown order."""
    col = np.zeros((len(box), m, theta.n // 2), dtype=complex)
    for j, i, _, _, c in terms:
        col[:, i, j] += c
    return [(np.arange(len(box) * m)[:, None], *_svd(col.reshape(len(box) * m, -1, 1)))]


def _block_factors(theta, m, box, terms):
    """[(block_cols, s, vh)] per batch of equal-shape blocks of the system of
    terms (j, i, l, k, c): c U^k in row i, column l of A_j, delta_j first.
    block_cols holds each block's unknowns (box index * m + l) in order."""
    n_box, n, half = len(box), theta.n, theta.n // 2
    shifts = {k: s for s, k in enumerate(dict.fromkeys(k for *_, k, _ in terms))}
    out_index = _row_ids((box[None] + np.array(list(shifts))[:, None]).reshape(-1, n))
    n_out, out_index = out_index.max() + 1, out_index.reshape(len(shifts), n_box)
    lam = {k: theta.phases(k, box) for k in shifts}  # U^k U^t = lambda(k, t) U^(k + t)
    rows, cols, vals = [], [], []
    for j, i, l, k, c in terms:
        rows.append((j * n_out + out_index[shifts[k]]) * m + i)
        cols.append(np.arange(n_box) * m + l)
        vals.append(c * lam[k])
    rows, cols, vals = (np.concatenate(x, axis=None) for x in (rows, cols, vals))

    n_rows, n_cols = half * n_out * m, n_box * m
    n_blocks, block = _components(cols, n_cols + rows, n_cols + n_rows)
    col_block, row_block = block[:n_cols], block[n_cols:]
    col_local, row_local = _position_in_block(col_block), _position_in_block(row_block)
    width = np.bincount(col_block, minlength=n_blocks)
    # zero rows pad each block to at least as many rows as unknowns, so its
    # vh holds a full basis of the unknowns and s one value per direction
    height = np.maximum(np.bincount(row_block, minlength=n_blocks), width)
    shapes, group = np.unique(height * (n_cols + 1) + width, return_inverse=True)  # (h, w) keys
    entry_block = col_block[cols]
    factors = []
    for g, (h, w) in enumerate(zip(*divmod(shapes, n_cols + 1))):
        if w == 0:
            continue  # rows that no unknown reaches
        blocks = np.flatnonzero(group == g)
        _check_bytes(len(blocks) * w * (2 * h + w) * 16, f"{len(blocks)} blocks of {h} x {w}")
        slot = np.empty(n_blocks, dtype=int)
        slot[blocks] = np.arange(len(blocks))
        mine = group[entry_block] == g
        stack = np.zeros((len(blocks), h, w), dtype=complex)
        np.add.at(stack, (slot[entry_block[mine]], row_local[rows[mine]], col_local[cols[mine]]),
                  vals[mine])
        own = np.flatnonzero(group[col_block] == g)
        block_cols = np.empty((len(blocks), w), dtype=int)
        block_cols[slot[col_block[own]], col_local[own]] = own
        factors.append((block_cols, *_svd(stack)))
    return factors


def h0_solve(conn, radius):
    """C-basis of { xi in (box-truncated A)^m : delta_j(xi) + A_j xi = 0 }.

    The system over the box coefficients, rows (j, output mode, i) against
    unknowns (box mode, l), is assembled as entry arrays and split into its
    connected blocks by _components: mode t couples only to t + supp(A_j).
    Blocks of equal shape share one batched SVD (_svd), and a one-column
    block takes its column norm.  On a constant diagonal connection (every
    coefficient of every A_j at mode 0 on the diagonal: the Grassmannian, a
    constant line bundle) every unknown is its own one-column block, so
    _column_factors reads the columns off the terms with no assembly and no
    split; the basis is the one the split would give, bit for bit.  A
    singular value at most 1e-10 times the largest over all blocks marks a
    null direction, as in a dense null space of the whole system.  Raises
    ValueError when the entries, or one batch of blocks with its SVD factors,
    would take more than MAX_BYTES.

    For a non-constant connection the dimension is that of the box-truncated
    system, and it can depend on the radius: with A_1 = U_2 on n = 2 it is 0
    up to radius 6 and 1 from radius 7 on, once the smallest singular value
    of the truncated chain, about 1/((2 pi)^r r!), falls under the cutoff."""
    theta, m, n = conn.theta, conn.m, conn.theta.n
    half = n // 2
    if radius < 0:
        raise ValueError("radius must be >= 0")
    terms = [(j, i, l, k, c) for j, Aj in enumerate(conn.A) for i, row in enumerate(Aj)
             for l, a in enumerate(row) for k, c in a.coeffs.items()]
    n_box = (2 * radius + 1) ** n
    _check_bytes(n_box * (half * m + len(terms)) * ENTRY_BYTES, "the system's entries")

    diagonal = all(i == l and not any(k) for _, i, l, k, _ in terms)
    box = np.indices((2 * radius + 1,) * n).reshape(n, -1).T - radius  # product order
    ev = [delta_eigenvalue(box.T, j + 1) for j in range(half)]
    terms = [(j, i, i, (0,) * n, ev[j]) for j in range(half) for i in range(m)] + terms
    factors = (_column_factors if diagonal else _block_factors)(theta, m, box, terms)
    cutoff = 1e-10 * max((s.max() for _, s, _ in factors), default=0.0)

    found = []
    for block_cols, s, vh in factors:
        g, k = np.nonzero(s <= cutoff)
        found += zip(block_cols[g, 0].tolist(), k.tolist(), block_cols[g], vh[g, k].conj())
    basis = []
    for _, _, block_cols, vec in sorted(found, key=lambda f: f[:2]):
        xi = [dict() for _ in range(m)]
        for col, v in zip(block_cols.tolist(), vec):
            if abs(v) > 1e-12:
                xi[col % m][tuple(box[col // m].tolist())] = v
        basis.append([TorusElement(theta, x) for x in xi])
    return basis


def morphism_check(phi, c1, c2):
    """Residual of nabla^{(2)} phi = (id tensor phi) nabla^{(1)}, i.e.
    max_j of delta_j(phi) + A_j^{(2)} phi - phi A_j^{(1)};
    phi is an m2 x m1 nested list of torus elements; NaN if a defect entry
    is NaN."""
    if len(phi) != c2.m or any(len(r) != c1.m for r in phi):
        raise DimensionMismatch(
            f"phi must be {c2.m} x {c1.m} for the given connections")
    P = TorusMatrix.from_entries(c1.theta, phi)
    A1, A2 = ([TorusMatrix.from_entries(c.theta, Aj) for Aj in c.A] for c in (c1, c2))
    return float(max_entry(np.array([(delta(P, j + 1) + (a2.matmul(P) - P.matmul(a1))).norm()
                                     for j, (a1, a2) in enumerate(zip(A1, A2))])))


def del_tau(a, tau=1j):
    """The classical complex-torus operator at modulus tau on dimension 2:
    del_tau(U^{(r1,r2)}) = 2 pi i (r1 tau + r2) U^{(r1,r2)}."""
    if a.theta.n != 2:
        raise DimensionMismatch("del_tau lives on the 2-dimensional torus")
    return a.multiplier(lambda m: del_tau_eigenvalue(m, tau))


def del_tau_eigenvalue(m, tau=1j):
    """Eigenvalue of del_tau on U^m."""
    return TWO_PI_I * (m[0] * tau + m[1])


def ps_compare(theta, radius=4):
    """Compare delta_1 with c . del_tau at tau = i on a monomial box, fixing
    the single scalar c by evaluating both sides on U_2; returns the max_entry
    of the difference after that one normalization.  Both are Fourier
    multipliers, so the monomials of the box are one eigenvalue array each.
    The two eigenvalues are one expression, so c = 1 and the difference is
    exactly 0 for every theta."""
    if theta.n != 2:
        raise DimensionMismatch("comparison requires torus dimension 2")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    c = delta_eigenvalue((0, 1), 1) / del_tau_eigenvalue((0, 1))
    box = np.indices((2 * radius + 1,) * 2).reshape(2, -1) - radius
    return float(max_entry(delta_eigenvalue(box, 1) - c * del_tau_eigenvalue(box)))
