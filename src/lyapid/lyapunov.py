"""The continuous Lyapunov equation M Sigma + Sigma M^T + C = 0 and its linearizations.

Given a stable drift matrix M supported on a graph and a positive definite
volatility matrix C, the equation has a unique positive definite solution
Sigma; solving for Sigma is a p(p+1)/2 x p(p+1)/2 linear system in
vech(Sigma).
Solving the *inverse* problem -- recovering M from (Sigma, C) subject to the
sparsity pattern -- is a linear system in vec(M) whose coefficient matrix we
call A(Sigma); its kernel is spanned by the columns of H(Sigma).  This
module builds both matrices, computes solution fibers exactly, and samples
random stable drift matrices for generic rank tests.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import _intkernel
from .graphs import DiGraph, Edge, _closure, _is_int
from .linalg import (
    AFFINE,
    INCONSISTENT,
    UNIQUE,
    RatMatrix,
    SolutionSet,
    _matrix_to_int_rows,
    is_positive_definite,
    matrix_strings,
    solve_linear,
    sym_pairs,
    vech,
)


class NotStableError(ValueError):
    """The drift matrix has an eigenvalue with non-negative real part."""


@dataclass(frozen=True)
class DriftMatrix:
    """A drift matrix together with the graph carrying its support.

    Entry ``m_ji`` belongs to edge ``i -> j``; the support condition
    (``m_ji = 0`` whenever ``i -> j`` is not an edge) is enforced on
    construction.  Stability is decided exactly (by :func:`is_stable`) the
    first time ``stable`` is read, and cached.
    """

    graph: DiGraph
    matrix: RatMatrix

    def __post_init__(self):
        p = self.graph.p
        if self.matrix.shape != (p, p):
            raise ValueError(f"drift matrix must be {p}x{p}")
        for (i, j) in self.graph.non_edges():
            if self.matrix[j - 1, i - 1] != 0:
                raise ValueError(f"entry m[{j},{i}] nonzero but edge {i}->{j} is absent")

    @functools.cached_property
    def stable(self) -> bool:
        """Whether every eigenvalue has negative real part (exact Lyapunov test)."""
        return is_stable(self.matrix)

    @classmethod
    def from_matrix(cls, matrix: RatMatrix) -> "DriftMatrix":
        """Wrap a square matrix, inferring the support graph from its zeros."""
        if not matrix.is_square:
            raise ValueError("drift matrix must be square")
        support = [(i, j) for (i, j) in _all_edges(matrix.rows) if matrix[j - 1, i - 1] != 0]
        return cls(DiGraph(matrix.rows, support), matrix)


@dataclass(frozen=True)
class VolatilityMatrix:
    """A symmetric positive definite volatility matrix, diagonality recorded."""

    matrix: RatMatrix
    diagonal: bool = field(init=False)

    def __post_init__(self):
        if not (self.matrix.is_symmetric() and is_positive_definite(self.matrix)):
            raise ValueError("volatility matrix must be symmetric positive definite")
        n = self.matrix.rows
        diag = all(
            self.matrix[i, j] == 0 for i in range(n) for j in range(n) if i != j
        )
        object.__setattr__(self, "diagonal", diag)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def identity(cls, p: int) -> "VolatilityMatrix":
        """C = I_p, built once per p: the value is immutable."""
        return cls(RatMatrix.identity(p))

    @property
    def p(self) -> int:
        return self.matrix.rows


@dataclass(frozen=True)
class CovMatrix:
    """A symmetric positive definite covariance matrix."""

    matrix: RatMatrix

    def __post_init__(self):
        if not (self.matrix.is_symmetric() and is_positive_definite(self.matrix)):
            raise ValueError("covariance matrix must be symmetric positive definite")

    @property
    def p(self) -> int:
        return self.matrix.rows


@dataclass(frozen=True)
class FiberResult:
    """Exact solution set of the edge-restricted drift recovery system.

    Coordinates of ``particular`` and of the columns of ``kernel_basis``
    follow ``edges`` (the graph's lexicographic edge order).
    """

    kind: str
    edges: tuple[Edge, ...]
    drift: DriftMatrix | None = None
    particular: RatMatrix | None = None
    kernel_basis: RatMatrix | None = None

    @property
    def dim(self) -> int:
        if self.kind == INCONSISTENT:
            return -1
        return 0 if self.kind == UNIQUE else self.kernel_basis.cols

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "edges": [list(e) for e in self.edges]}
        if self.kind == UNIQUE:
            out["drift"] = matrix_strings(self.drift.matrix)
            out["dim"] = 0
        elif self.kind == AFFINE:
            out["particular"] = [str(x) for x in self.particular.col(0)]
            out["kernel_basis"] = matrix_strings(self.kernel_basis.transpose())
            out["dim"] = self.dim
        return out


# ---------------------------------------------------------------------------
# Solving for Sigma
# ---------------------------------------------------------------------------


# Each matrix has one builder (``_vech_system``, ``_a_rows``, ``_h_rows``)
# from nested rows to nested rows, generic over the scalar: ``int``s on the
# sampling path, ``Fraction``s behind the public ``RatMatrix`` adapter, and
# numpy vectors of residues mod q, one entry per graph, in the sweep's
# screen.  ``_a_rows`` backs only ``build_A``, since every sampled rank is
# decided on H.  The full Kronecker-sum system only cross-checks the vech
# system of :func:`_solve_sigma_scaled`, in the tests.


@functools.lru_cache(maxsize=None)
def _vech_positions(p: int) -> tuple[tuple[int, ...], ...]:
    """positions[k][l]: the vech index of the pair (k, l) or (l, k), 0-based."""
    pos = [[0] * p for _ in range(p)]
    n = 0
    for k in range(p):
        for l in range(k, p):
            pos[k][l] = pos[l][k] = n
            n += 1
    return tuple(map(tuple, pos))


def _vech_system(m_rows: list[list], c_rows: list[list]) -> tuple[list[list], list]:
    """Rows K and right side b of vech(M Sigma + Sigma M^T) = -vech(C).

    The unknowns are vech(Sigma), one per pair k <= l.  Linear in M and C,
    so it is built alike from integers and from residue vectors mod q.  It
    never writes into its inputs: a row starts from the int 0, so an entry's
    first ``+=`` makes a new value.  An entry of K sums at most two entries
    of M: from residues it is below 2q, within an int64 before its ``% q``.
    """
    p = len(m_rows)
    index = _vech_positions(p)
    pairs = [(k, l) for k in range(p) for l in range(k, p)]
    system = []
    for (i, j) in pairs:
        row = [0] * len(pairs)
        for t in range(p):
            # (M Sigma)_ij = sum_t m_it s_tj and (Sigma M^T)_ij = sum_t s_it m_jt.
            row[index[t][j]] += m_rows[i][t]
            row[index[i][t]] += m_rows[j][t]
        system.append(row)
    return system, [-c_rows[i][j] for (i, j) in pairs]


def _unvech(x: list, p: int) -> list[list]:
    """The symmetric p x p rows with vech ``x``."""
    index = _vech_positions(p)
    return [[x[index[r][c]] for c in range(p)] for r in range(p)]


@functools.lru_cache(maxsize=None)
def _vech_blocks(ancestors: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The diagonal blocks of the vech system, given the closure of M's pattern.

    Bit t of ``ancestors[w]`` marks a path of nonzero entries from t to w;
    if the system is nonsingular, a zero diagonal entry lies on a cycle (M
    has no eigenvalue 0), so bit w is set.  Nodes with equal masks form a
    strong component, keyed by (popcount, mask): an ancestor component's
    mask is a strict subset, so its key is smaller.  Unknown (k, l) joins
    the block of its sorted key pair, the blocks in lexicographic order.
    Row (k, l) involves only Sigma_tl and Sigma_kt for parents t of k and of
    l, whose pairs sort no later: the system is block lower triangular.
    """
    keys = [(a.bit_count(), a) for a in ancestors]
    blocks: dict[tuple, list[int]] = {}
    for n, pair in enumerate(itertools.combinations_with_replacement(keys, 2)):
        blocks.setdefault(tuple(sorted(pair)), []).append(n)
    return tuple(tuple(block) for _, block in sorted(blocks.items()))


def _solve_sigma_scaled(m_rows: list[list[int]], c_rows: list[list[int]], p: int):
    """Exact Sigma for integer (M, C): returns (numerators N, denominator D).

    Sigma = N / D with N an integer symmetric p x p matrix, D > 0 and
    gcd(D, N) = 1, solved on the vech system of :func:`_vech_system`.  On
    symmetric matrices the Lyapunov operator has the eigenvalues
    lambda_i + lambda_j for i <= j -- every pairwise sum -- so this system
    is singular exactly when the Kronecker sum is.  Raises ValueError when
    it is singular (two eigenvalues of M summing to zero).

    It runs block by block along the strong components of M's graph
    (:func:`_vech_blocks`: Bartels and Stewart's block-triangular solve with
    M's Frobenius form for its Schur form); (N, D) is reduced, so it is the
    dense solve's.  A closure of M's p masks finds the blocks for less than
    a scan of the p(p+1)/2-square system would cost.
    """
    parents = [sum([1 << t for t, v in enumerate(row) if v]) for row in m_rows]
    blocks = _vech_blocks(tuple(_closure(parents)))
    x, den = _intkernel.solve_square_int(*_vech_system(m_rows, c_rows), blocks)
    return _unvech(x, p), den


def is_stable(m: RatMatrix) -> bool:
    """Exact test that every eigenvalue of ``m`` has negative real part.

    Lyapunov's theorem: for C positive definite, M is stable exactly when
    M Sigma + Sigma M^T + C = 0 has a unique solution and it is positive
    definite.  (If M^T v = lambda v, then 2 Re(lambda) v* Sigma v = -v* C v;
    a singular system means two eigenvalues sum to zero.)  Decided with
    C = I on integer-scaled M, by the leading principal minors of the
    numerator N of Sigma = N / D, D > 0.
    """
    if not m.is_square:
        raise ValueError("stability of a non-square matrix")
    p = m.rows
    m_rows, _ = _matrix_to_int_rows(m)
    eye = [[int(i == j) for j in range(p)] for i in range(p)]
    try:
        n_mat, _ = _solve_sigma_scaled(m_rows, eye, p)
    except ValueError:
        return False
    return _intkernel.leading_minors_positive(n_mat)


def solve_for_sigma(drift: DriftMatrix, vol: VolatilityMatrix) -> CovMatrix:
    """The unique positive definite Sigma with M Sigma + Sigma M^T + C = 0.

    One solve decides stability too (see :func:`is_stable`; C is positive
    definite by construction of ``vol``).

    Raises:
        NotStableError: if the system is singular or its solution is not
            positive definite, i.e. the drift matrix is not stable.
    """
    m, c = drift.matrix, vol.matrix
    p = m.rows
    if c.rows != p:
        raise ValueError("drift and volatility dimensions differ")
    m_rows, alpha = _matrix_to_int_rows(m)
    c_rows, gamma = _matrix_to_int_rows(c)
    try:
        # Sigma(alpha M, gamma C) = (gamma / alpha) Sigma(M, C).
        n_mat, den = _solve_sigma_scaled(m_rows, c_rows, p)
        scale = Fraction(alpha, den * gamma)
        return CovMatrix(
            RatMatrix(p, p, [n_mat[r][c2] * scale for r in range(p) for c2 in range(p)])
        )
    except ValueError as exc:
        raise NotStableError("drift matrix is not stable") from exc


# ---------------------------------------------------------------------------
# The coefficient matrix A(Sigma) and kernel basis H(Sigma)
# ---------------------------------------------------------------------------


def _unwrap(sigma) -> RatMatrix:
    return sigma.matrix if isinstance(sigma, CovMatrix) else sigma


def _all_edges(p: int) -> list[Edge]:
    """Every potential edge i -> j in vec order."""
    return [(i, j) for i in range(1, p + 1) for j in range(1, p + 1)]


def _a_rows(s_rows: list[list], edges: list[Edge]) -> list[list]:
    """Rows of A(Sigma), one column per edge of ``edges`` (see :func:`build_A`)."""
    out = []
    for (k, l) in sym_pairs(len(s_rows)):
        row = []
        for (i, j) in edges:
            if j != k and j != l:
                row.append(0)
            elif j == k and k != l:
                row.append(s_rows[l - 1][i - 1])
            elif j == l and l != k:
                row.append(s_rows[k - 1][i - 1])
            else:
                row.append(2 * s_rows[j - 1][i - 1])
        out.append(row)
    return out


def build_A(sigma) -> RatMatrix:
    """The p(p+1)/2 x p^2 coefficient matrix of the half-vectorized equation.

    Rows are indexed by pairs (k, l), k <= l, lexicographically; columns by
    potential edges i -> j in vec order.  The entry in row (k, l) and
    column i -> j is 0 unless j is k or l; it is Sigma_li if j = k != l,
    Sigma_ki if j = l != k, and 2 Sigma_ji if j = k = l.
    """
    s = _unwrap(sigma)
    if not s.is_symmetric():
        raise ValueError("A(Sigma) requires a symmetric Sigma")
    return RatMatrix.from_rows(_a_rows(s.to_lists(), _all_edges(s.rows)))


def restrict_A(a: RatMatrix, g: DiGraph) -> RatMatrix:
    """Columns of A(Sigma) for the edges of ``g``, in lexicographic edge order."""
    p = g.p
    if a.cols != p * p:
        raise ValueError(f"expected {p * p} columns, got {a.cols}")
    cols = [(i - 1) * p + (j - 1) for (i, j) in g.edge_index()]
    return a.select_columns(cols)


def _h_rows(s_rows: list[list], edges: list[Edge]) -> list[list]:
    """Rows of H(Sigma), one per edge of ``edges`` (see :func:`build_H`); never
    writes into ``s_rows``: each entry is 0, an entry of Sigma or a negated one."""
    p = len(s_rows)
    pairs = [(k, l) for k in range(1, p + 1) for l in range(k + 1, p + 1)]
    out = []
    for (i, j) in edges:
        row = []
        for (k, l) in pairs:
            if i == k:
                row.append(-s_rows[l - 1][j - 1])
            elif i == l:
                row.append(s_rows[k - 1][j - 1])
            else:
                row.append(0)
        out.append(row)
    return out


def build_H(sigma) -> RatMatrix:
    """The p^2 x p(p-1)/2 kernel basis of A(Sigma).

    Column (k, l), k < l, is vec(Sigma K) for the skew-symmetric K with +1
    in place (k, l) and -1 in place (l, k); rows follow the vec order of
    potential edges i -> j.  For invertible Sigma the columns form a basis
    of the kernel of A(Sigma).
    """
    s = _unwrap(sigma)
    if not s.is_symmetric():
        raise ValueError("H(Sigma) requires a symmetric Sigma")
    return RatMatrix.from_rows(_h_rows(s.to_lists(), _all_edges(s.rows)))


def restrict_H(h: RatMatrix, g: DiGraph) -> RatMatrix:
    """Rows of H(Sigma) for the non-edges of ``g``, in lexicographic order."""
    p = g.p
    if h.rows != p * p:
        raise ValueError(f"expected {p * p} rows, got {h.rows}")
    rows = [(i - 1) * p + (j - 1) for (i, j) in g.non_edges()]
    return h.select_rows(rows)


# ---------------------------------------------------------------------------
# Fibers
# ---------------------------------------------------------------------------


def fiber(sigma: CovMatrix, g: DiGraph, vol: VolatilityMatrix) -> FiberResult:
    """Exact solution set of the restricted system A(Sigma)_E vec(M)_E = -vech(C).

    Unique exactly when the restriction has full column rank; an affine
    result carries an explicit kernel basis, making non-uniqueness a
    checkable artifact.

    Raises:
        ValueError: unless ``sigma`` and ``vol`` are p x p for the graph's p.
    """
    if sigma.p != g.p or vol.p != g.p:
        raise ValueError(f"sigma is {sigma.p}x{sigma.p} and the volatility matrix "
                         f"{vol.p}x{vol.p}, but the graph has p = {g.p}")
    edges = tuple(g.edge_index())
    a_res = restrict_A(build_A(sigma), g)
    rhs = -vech(vol.matrix)
    sol: SolutionSet = solve_linear(a_res, rhs)
    if sol.kind == INCONSISTENT:
        return FiberResult(INCONSISTENT, edges)
    if sol.kind == UNIQUE:
        return FiberResult(
            UNIQUE, edges, drift=DriftMatrix(g, _edge_vector_to_matrix(sol.particular, g))
        )
    return FiberResult(AFFINE, edges, particular=sol.particular, kernel_basis=sol.kernel)


def _edge_vector_to_matrix(x: RatMatrix, g: DiGraph) -> RatMatrix:
    p = g.p
    ent = [Fraction(0)] * (p * p)
    for pos, (i, j) in enumerate(g.edge_index()):
        ent[(j - 1) * p + (i - 1)] = x[pos, 0]
    return RatMatrix(p, p, ent)


def _draw_drift_rows(g: DiGraph, rng: random.Random, bound: int) -> list[list[int]]:
    """The integer rows of a random drift matrix supported on ``g``.

    Off-diagonal entries are uniform integers in [-bound, bound]; each
    diagonal entry is -(row absolute sum + 1 + uniform in [0, bound]), so
    strict diagonal dominance puts every Gershgorin disc in the open left
    half-plane.  Each draw takes getrandbits(k) for the bit length k of the
    range's size and rejects values past the range, as ``rng.randint`` does
    in CPython, so the stream and the entries are those of ``randint``.
    """
    p = g.p
    getrandbits = rng.getrandbits
    rows = [[0] * p for _ in range(p)]
    width = 2 * bound + 1
    bits = width.bit_length()
    for (i, j) in g.arcs:
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        rows[j - 1][i - 1] = r - bound
    width = bound + 1
    bits = width.bit_length()
    for i in range(p):
        row = rows[i]
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        row[i] = -(sum(map(abs, row)) + 1 + r)
    return rows


def sample_stable_drift(g: DiGraph, rng_seed, bound: int = 2**20) -> DriftMatrix:
    """A random integer drift matrix supported on ``g``, stable by construction.

    The entries are those of :func:`_draw_drift_rows`.

    Raises:
        ValueError: unless ``bound`` is an ``int`` >= 1 (a ``bool`` is not).
    """
    if not (_is_int(bound) and bound >= 1):
        raise ValueError(f"bound must be an integer >= 1, got {bound!r}")
    rng = rng_seed if isinstance(rng_seed, random.Random) else random.Random(rng_seed)
    return DriftMatrix(g, RatMatrix.from_rows(_draw_drift_rows(g, rng, bound)))
