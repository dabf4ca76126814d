"""Holomorphic calculus: the delta_j operators, holomorphic elements,
delbar-connections on free modules, flatness, H^0, morphisms, and the
dimension-2 reduction to the classical del_tau operator.

Connections are stored with plain nested lists of torus elements for the
coefficient matrices A_j (these can be rectangular in morphism checks, unlike
the square fiber matrices of the operator calculus).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from .torus import TWO_PI_I, DimensionMismatch, TorusElement

# h0_solve refuses a system it would need more than this many bytes to hold:
# its sparse entries (ENTRY_BYTES each, counting the copies the assembly
# makes), or one batch of equal-shape blocks with their SVD factors.
MAX_BYTES = 1 << 30
ENTRY_BYTES = 200  # tracemalloc peak per entry: 185-201 on n=4 constant connections


def _check_bytes(n_bytes, what):
    if n_bytes > MAX_BYTES:
        raise ValueError(f"{what} needs {n_bytes} bytes, over the dense solver limit "
                         f"of {MAX_BYTES} bytes; reduce the radius or rank")


def delta(a, j):
    """delta_j = del_{2j} + i del_{2j-1} (1-based j up to n/2)."""
    return a.derive(2 * j) + 1j * a.derive(2 * j - 1)


def delta_eigenvalue(m, j):
    """Eigenvalue of delta_j on U^m."""
    return TWO_PI_I * (m[2 * j - 1] + 1j * m[2 * j - 2])


def delbar_tuple(a):
    """(delta_1(a), ..., delta_{n/2}(a)) — a is holomorphic iff all vanish."""
    if a.theta.n % 2 != 0:
        raise DimensionMismatch("holomorphic calculus needs even torus dimension")
    return tuple(delta(a, j) for j in range(1, a.theta.n // 2 + 1))


def holomorphic_kernel(theta, radius, extra_ops=None):
    """C-basis of { a supported in box(radius) : delta_j(a) = 0 for all j }.

    The delta_j are diagonal on monomials, so the kernel is spanned by the
    monomials whose eigenvalue tuple vanishes; contract: only U^0.
    `extra_ops` replaces the eigenvalue functions (for sanity checks)."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    half = theta.n // 2
    eigs = extra_ops or [lambda m, j=j: delta_eigenvalue(m, j)
                         for j in range(1, half + 1)]
    basis = []
    for m in iproduct(range(-radius, radius + 1), repeat=theta.n):
        if all(abs(e(m)) < 1e-12 for e in eigs):
            basis.append(TorusElement.monomial(theta, m))
    return basis


# -- matrices of torus elements (nested lists, possibly rectangular) --------


def zero_matrix(theta, rows, cols):
    return [[TorusElement.zero(theta) for _ in range(cols)] for _ in range(rows)]


def matrix_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def matrix_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def matrix_mul(A, B):
    if A and B and len(A[0]) != len(B):
        raise DimensionMismatch(f"cannot multiply {len(A[0])} columns into {len(B)} rows")
    theta = A[0][0].theta
    out = zero_matrix(theta, len(A), len(B[0]))
    for i, row in enumerate(A):
        for k, a in enumerate(row):
            if a.coeffs:
                for j in range(len(B[0])):
                    out[i][j] = out[i][j] + a * B[k][j]
    return out


def matrix_delta(A, j):
    return [[delta(a, j) for a in row] for row in A]


def matrix_norm(A):
    return max((a.norm() for row in A for a in row), default=0.0)


def matrix_to_json(A):
    return [[a.to_json() for a in row] for row in A]


def matrix_from_json(theta, rows):
    return [[TorusElement.from_json(theta, cell) for cell in row] for row in rows]


@dataclass
class Connection:
    """delbar-connection on the free module A^m: nabla_j = delta_j + A_j."""

    theta: object
    m: int
    A: list  # n/2 matrices, each m x m nested lists of TorusElements

    def __post_init__(self):
        half = self.theta.n // 2
        if len(self.A) != half:
            raise DimensionMismatch(f"need {half} coefficient matrices, got {len(self.A)}")
        for Aj in self.A:
            if len(Aj) != self.m or any(len(r) != self.m for r in Aj):
                raise DimensionMismatch("coefficient matrix is not m x m")

    def apply(self, j, xi):
        """(nabla_j xi)_i = delta_j(xi_i) + sum_l A_j[i][l] xi_l."""
        out = [delta(x, j) for x in xi]
        for i in range(self.m):
            for l in range(self.m):
                out[i] = out[i] + self.A[j - 1][i][l] * xi[l]
        return out

    def to_json(self):
        return {"m": self.m, "A": [matrix_to_json(Aj) for Aj in self.A]}

    @classmethod
    def from_json(cls, theta, obj):
        return cls(theta, int(obj["m"]),
                   [matrix_from_json(theta, Aj) for Aj in obj["A"]])


def grassmannian(theta, m):
    """The flat connection on the free module: all A_j = 0."""
    half = theta.n // 2
    return Connection(theta, m, [zero_matrix(theta, m, m) for _ in range(half)])


def flatness_check(conn):
    """Max curvature residual over l < r:
    delta_l(A_r) - delta_r(A_l) + [A_l, A_r]; zero iff holomorphic structure."""
    half = conn.theta.n // 2
    res = 0.0
    for l in range(1, half + 1):
        for r in range(l + 1, half + 1):
            Al, Ar = conn.A[l - 1], conn.A[r - 1]
            curv = matrix_add(
                matrix_sub(matrix_delta(Ar, l), matrix_delta(Al, r)),
                matrix_sub(matrix_mul(Al, Ar), matrix_mul(Ar, Al)),
            )
            res = max(res, matrix_norm(curv))
    return res


def _position_in_block(block):
    """Each node's index among the nodes of its block, in node order."""
    order = np.argsort(block, kind="stable")
    counts = np.bincount(block)
    local = np.empty_like(block)
    local[order] = np.arange(len(block)) - (np.cumsum(counts) - counts)[block[order]]
    return local


def h0_solve(conn, radius):
    """C-basis of { xi in (box-truncated A)^m : delta_j(xi) + A_j xi = 0 }.

    The system over the box coefficients, rows (j, output mode, i) against
    unknowns (box mode, l), is assembled sparse and split into its connected
    blocks: mode t couples only to t + supp(A_j).  Blocks of equal shape share
    one batched SVD.  A singular value at most 1e-10 times the largest over all
    blocks marks a null direction, as in a dense null space of the whole
    system.  Raises ValueError when the entries, or one batch of blocks with
    its SVD factors, would take more than MAX_BYTES."""
    theta, m, n = conn.theta, conn.m, conn.theta.n
    half = n // 2
    if radius < 0:
        raise ValueError("radius must be >= 0")
    terms = [(j, i, l, k, c) for j, Aj in enumerate(conn.A) for i, row in enumerate(Aj)
             for l, a in enumerate(row) for k, c in a.coeffs.items()]
    n_box = (2 * radius + 1) ** n
    _check_bytes(n_box * (half * m + len(terms)) * ENTRY_BYTES, "the sparse system")

    box = np.indices((2 * radius + 1,) * n).reshape(n, -1).T - radius  # product order
    terms = [(j, i, i, (0,) * n, delta_eigenvalue(box.T, j + 1))
             for j in range(half) for i in range(m)] + terms
    shifts = {k: s for s, k in enumerate(dict.fromkeys(k for *_, k, _ in terms))}
    out_modes = (box[None] + np.array(list(shifts))[:, None]).reshape(-1, n)
    _, out_index = np.unique(out_modes, axis=0, return_inverse=True)
    n_out, out_index = out_index.max() + 1, out_index.reshape(len(shifts), n_box)
    upper = np.triu(theta.entries, k=1)
    rows, cols, vals = [], [], []
    for j, i, l, k, c in terms:
        rows.append((j * n_out + out_index[shifts[k]]) * m + i)
        cols.append(np.arange(n_box) * m + l)
        vals.append(c * np.exp(TWO_PI_I * (box @ (upper @ np.array(k)))))  # theta.phase(k, t)
    rows, cols, vals = (np.concatenate(x, axis=None) for x in (rows, cols, vals))

    # Imported here: scipy.sparse adds 40-100 ms to `import nckahler`.
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    n_rows, n_cols = half * n_out * m, n_box * m
    graph = coo_array((np.ones(len(rows)), (cols, n_cols + rows)), shape=(n_cols + n_rows,) * 2)
    n_blocks, block = connected_components(graph, directed=False)
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
        factors.append((block_cols, *np.linalg.svd(stack, full_matrices=False)[1:]))
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
    phi is an m2 x m1 nested list of torus elements."""
    if len(phi) != c2.m or any(len(r) != c1.m for r in phi):
        raise DimensionMismatch(
            f"phi must be {c2.m} x {c1.m} for the given connections")
    half = c1.theta.n // 2
    res = 0.0
    for j in range(1, half + 1):
        defect = matrix_add(matrix_delta(phi, j),
                            matrix_sub(matrix_mul(c2.A[j - 1], phi),
                                       matrix_mul(phi, c1.A[j - 1])))
        res = max(res, matrix_norm(defect))
    return res


def del_tau(a, tau=1j):
    """The classical complex-torus operator at modulus tau on dimension 2:
    del_tau(U^{(r1,r2)}) = 2 pi i (r1 tau + r2) U^{(r1,r2)}."""
    if a.theta.n != 2:
        raise DimensionMismatch("del_tau lives on the 2-dimensional torus")
    return TorusElement(
        a.theta,
        {m: TWO_PI_I * (m[0] * tau + m[1]) * c for m, c in a.coeffs.items()},
    )


def ps_compare(theta, radius=4):
    """Compare delta_1 with c . del_tau at tau = i on a monomial box, fixing
    the single scalar c by evaluating both sides on U_2; returns the max
    residual after that one normalization."""
    if theta.n != 2:
        raise DimensionMismatch("comparison requires torus dimension 2")
    u2 = TorusElement.generator(theta, 2)
    lhs = delta(u2, 1).coeffs[(0, 1)]
    rhs = del_tau(u2).coeffs[(0, 1)]
    c = lhs / rhs
    res = 0.0
    for m in iproduct(range(-radius, radius + 1), repeat=2):
        a = TorusElement.monomial(theta, m)
        res = max(res, (delta(a, 1) - c * del_tau(a)).norm())
    return res
