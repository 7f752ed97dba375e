"""The tests' random instances and cross-check constructions.

Seeded generators of exact positive definite matrices, volatilities and the
complete graph; the named graphs that only tests use (``two_cycle``,
``two_cycle_two_sources``, ``simple_cyclic_5a``, ``simple_cyclic_5b``); the
graph operations that only tests use (``has_trek``, ``relabel``,
``subgraph``) and the per-graph trek oracles (``ancestor_sets``,
``trek_free_pairs``, ``has_two_cycle``); the matrix helpers that only tests
use (``diagonal_matrix``, ``scale``, ``sub``, ``trace``, ``hstack``); and the
textbook Kronecker form of the coefficient matrix: ``vec``, ``kron``, the
commutation matrix K_p, the square form ``atilde`` and the product form
``build_A_product`` of A(Sigma).  The package builds A(Sigma) entry by entry instead, so a test
that compares the two compares two different constructions.
``dag_determinant_identity`` and ``cycle3_determinant_identity`` are the
paper's closed-form determinant factorizations for the complete DAGs and
the 3-cycle, evaluated on the package's ``build_A``.
``to_floats`` hands an exact matrix to numpy.
``skew_to_drift`` parametrizes the fiber of a Sigma by skew matrices, and
``positivity_sample`` checks the simple-graph theorem's claim that the
restricted kernel determinant never vanishes on the positive definite cone.
``mask_arcs`` reads a graph's arcs off its mask one set bit at a time, the
reference for the package's per-byte views, and ``view_masks`` gives the
masks they are compared on.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from lyapid import _intkernel
from lyapid.catalog import complete_dag, three_cycle
from lyapid.graphs import DiGraph, Edge, _candidate_masks, is_simple
from lyapid.identifiability import _derive_rng
from lyapid.linalg import RatMatrix, Rational, det, rat, sym_pairs
from lyapid.lyapunov import CovMatrix, VolatilityMatrix, _h_rows, build_A, restrict_A

from _rref import rref_inverse


def random_pd_matrix(p: int, rng: random.Random) -> RatMatrix:
    """A random rational positive definite matrix L L^T, L lower-triangular
    with entries n / d, |n| <= 6 (n >= 1 on the diagonal) and 1 <= d <= 3."""
    low = [[Fraction(0)] * p for _ in range(p)]
    for i in range(p):
        low[i][i] = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        for j in range(i):
            low[i][j] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    ent = [
        sum(low[i][t] * low[j][t] for t in range(p)) for i in range(p) for j in range(p)
    ]
    return RatMatrix(p, p, ent)


def diagonal_matrix(values: Sequence) -> RatMatrix:
    """The square matrix with ``values`` on its diagonal."""
    n = len(values)
    ent = [Fraction(0)] * (n * n)
    for i, v in enumerate(values):
        ent[i * n + i] = rat(v)
    return RatMatrix(n, n, ent)


def scale(m: RatMatrix, factor) -> RatMatrix:
    """``factor`` times ``m``."""
    f = rat(factor)
    return RatMatrix(m.rows, m.cols, [f * x for x in m.entries])


def sub(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """a - b; a ValueError unless the shapes agree."""
    return a + scale(b, -1)


def trace(m: RatMatrix) -> Rational:
    if not m.is_square:
        raise ValueError("trace of a non-square matrix")
    n = m.rows
    return sum((m.entries[i * n + i] for i in range(n)), Fraction(0))


def hstack(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """[a | b]: the columns of ``a`` followed by those of ``b``."""
    if a.rows != b.rows:
        raise ValueError("row count mismatch in hstack")
    out = []
    for i in range(a.rows):
        out.extend(a.row(i))
        out.extend(b.row(i))
    return RatMatrix(a.rows, a.cols + b.cols, out)


def random_volatility(p: int, rng: random.Random, diagonal: bool = False) -> VolatilityMatrix:
    if diagonal:
        return VolatilityMatrix(
            diagonal_matrix([Fraction(rng.randint(1, 9)) for _ in range(p)])
        )
    return VolatilityMatrix(random_pd_matrix(p, rng))


def complete_graph(p: int) -> DiGraph:
    return DiGraph(
        p, frozenset((i, j) for i in range(1, p + 1) for j in range(1, p + 1))
    )


def two_cycle(p: int = 2) -> DiGraph:
    """The 2-cycle on nodes {1, 2}; further nodes, if any, stay isolated.

    With p = 3 this is also the smallest graph whose identifiability flips
    with the off-diagonal fill of the volatility matrix.
    """
    return DiGraph(p, frozenset({(1, 2), (2, 1)}))


def two_cycle_two_sources() -> DiGraph:
    """Two source nodes 1 and 4 feeding a 2-cycle on {2, 3} (non-identifiable)."""
    return DiGraph(4, frozenset({(2, 3), (3, 2), (1, 2), (1, 3), (4, 2), (4, 3)}))


def simple_cyclic_5a() -> DiGraph:
    """First of two simple cyclic 5-node graphs with a hard positivity analysis.

    The restricted-kernel determinant of this graph resists closed-form
    certification, which makes it a good stress case for sampling checks.
    """
    return DiGraph(
        5,
        frozenset(
            {(1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 4), (3, 5), (4, 2), (5, 1), (5, 4)}
        ),
    )


def simple_cyclic_5b() -> DiGraph:
    """Second simple cyclic 5-node graph with a hard positivity analysis."""
    return DiGraph(
        5,
        frozenset(
            {(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 1), (4, 5), (5, 1), (5, 2)}
        ),
    )


def has_trek(g: DiGraph, i: int, j: int) -> bool:
    """True iff some top node reaches both i and j by directed paths.

    Trivial paths count, so single nodes and directed paths are treks;
    self-loops are ignored for reachability.
    """
    if not (1 <= i <= g.p and 1 <= j <= g.p):
        raise ValueError(f"nodes must lie in 1..{g.p}")
    ancestors = ancestor_sets(g)
    return bool(ancestors[i - 1] & ancestors[j - 1])


def ancestor_sets(g: DiGraph) -> list[set[int]]:
    """Reflexive ancestor sets of nodes 1..p, grown along ``g.arcs`` to a
    fixed point: the oracle of the package's mask closure."""
    ancestors = [{v} for v in range(1, g.p + 1)]
    grown = True
    while grown:
        grown = False
        for (i, j) in g.arcs:
            if not ancestors[i - 1] <= ancestors[j - 1]:
                ancestors[j - 1] |= ancestors[i - 1]
                grown = True
    return ancestors


def trek_free_pairs(g: DiGraph) -> int:
    """Unordered pairs of distinct nodes with no common ancestor."""
    ancestors = ancestor_sets(g)
    return sum(not a & b for k, a in enumerate(ancestors) for b in ancestors[k + 1:])


def has_two_cycle(g: DiGraph) -> bool:
    """True iff some pair of distinct nodes carries arcs both ways."""
    return any((j, i) in g.offdiag_edges for (i, j) in g.arcs)


def relabel(g: DiGraph, perm: dict[int, int]) -> DiGraph:
    """Relabel nodes by a bijection {1..p} -> {1..p}."""
    if sorted(perm) != list(range(1, g.p + 1)) or sorted(perm.values()) != list(
        range(1, g.p + 1)
    ):
        raise ValueError("perm must be a bijection of 1..p")
    return DiGraph(g.p, frozenset((perm[i], perm[j]) for (i, j) in g.edges))


def subgraph(g: DiGraph, keep_edges: Iterable[Edge]) -> DiGraph:
    """Restrict to a subset of the edges; self-loops can never be removed.

    Raises:
        ValueError: if keep_edges is not a subset of g.edges, or if it
            attempts to drop a self-loop.
    """
    keep = {(i, j) for (i, j) in keep_edges}
    if not keep <= g.edges:
        raise ValueError("keep_edges must be a subset of the graph's edges")
    for i in range(1, g.p + 1):
        if (i, i) in g.edges and (i, i) not in keep:
            raise ValueError(f"cannot remove self-loop {i}->{i}")
    return DiGraph(g.p, frozenset(keep))


def mask_arcs(p: int, mask: int) -> tuple[Edge, ...]:
    """The sorted edges whose ``_arc_bit`` is set in ``mask``, one set bit at a time."""
    arcs = []
    while mask:
        bit = mask.bit_length() - 1
        mask ^= 1 << bit
        i, c = divmod(p * (p - 1) - 1 - bit, p - 1)  # row i + 1, off-diagonal column c
        arcs.append((i + 1, c + 1 + (c >= i)))
    return tuple(arcs)


def view_masks(p: int) -> Iterable[int]:
    """Every mask up to p = 4, every candidate's at p = 5 and, beyond, 100
    masks seeded by p, of 0 up to all p(p-1) arcs."""
    if p <= 4:
        return range(1 << p * (p - 1))
    if p == 5:
        return _candidate_masks(5)
    rng, q = random.Random(p), p * (p - 1)
    return [sum(1 << b for b in rng.sample(range(q), rng.randint(0, q))) for _ in range(100)]


def vec(m: RatMatrix) -> RatMatrix:
    """Columnwise vectorization as a column vector.

    Position ``c*rows + r`` (0-based) holds entry ``m[r, c]``; for a p x p
    drift matrix this places entry ``m_ji`` (edge i -> j) at 0-based
    position ``(i-1)*p + (j-1)``.
    """
    return RatMatrix.column([m[r, c] for c in range(m.cols) for r in range(m.rows)])


def to_floats(m: RatMatrix) -> list[list[float]]:
    return [[float(x) for x in row] for row in m.to_lists()]


def kron(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Kronecker product, shape (a.rows*b.rows) x (a.cols*b.cols)."""
    out = []
    for i in range(a.rows):
        for r in range(b.rows):
            brow = b.row(r)
            for j in range(a.cols):
                aij = a[i, j]
                out.extend(aij * x for x in brow)
    return RatMatrix(a.rows * b.rows, a.cols * b.cols, out)


def commutation_matrix(p: int) -> RatMatrix:
    """The p^2 x p^2 permutation K_p with K_p vec(M) = vec(M^T)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    n = p * p
    ent = [Fraction(0)] * (n * n)
    for r in range(p):
        for c in range(p):
            # vec(M^T) position of M[r, c] is r*p + c; vec(M) position is c*p + r.
            ent[(r * p + c) * n + (c * p + r)] = Fraction(1)
    return RatMatrix(n, n, ent)


def atilde(sigma: RatMatrix) -> RatMatrix:
    """The square p^2 x p^2 form Sigma (x) I + (I (x) Sigma) K_p."""
    p = sigma.rows
    eye = RatMatrix.identity(p)
    return kron(sigma, eye) + kron(eye, sigma) @ commutation_matrix(p)


def build_A_product(sigma: RatMatrix) -> RatMatrix:
    """A(Sigma) from the product form: the k <= l rows of atilde(Sigma)."""
    p = sigma.rows
    rows = [(l - 1) * p + (k - 1) for (k, l) in sym_pairs(p)]
    return atilde(sigma).select_rows(rows)


def dag_determinant_identity(sigma: CovMatrix) -> tuple[Rational, Rational]:
    """(|det| of the restriction, 2^p times the product of trailing principal minors).

    The restriction is to ``complete_dag(p)``, the complete acyclic graph
    with edges i -> j, i >= j, where p is the size of ``sigma``; the two
    components agree for every symmetric positive definite sigma.
    """
    p = sigma.p
    s = sigma.matrix
    lhs = abs(det(restrict_A(build_A(sigma), complete_dag(p))))
    product = Fraction(2) ** p
    for i in range(p):
        idx = list(range(i, p))
        product *= det(s.select_rows(idx).select_columns(idx))
    return lhs, product


def cycle3_determinant_identity(sigma: CovMatrix) -> tuple[Rational, Rational]:
    """(det of the 3-cycle restriction, its closed-form factorization).

    The restriction determinant equals
    8 det(Sigma) (S11 S22 S33 - S12 S13 S23); the second factor is positive
    whenever Sigma is positive definite.

    Raises:
        ValueError: unless sigma is 3 x 3.
    """
    s = sigma.matrix
    if s.rows != 3:
        raise ValueError("the 3-cycle identity needs a 3 x 3 sigma")
    lhs = det(restrict_A(build_A(sigma), three_cycle()))
    factor = s[0, 0] * s[1, 1] * s[2, 2] - s[0, 1] * s[0, 2] * s[1, 2]
    return lhs, 8 * det(s) * factor


def skew_to_drift(k: RatMatrix, sigma: CovMatrix, vol: VolatilityMatrix) -> RatMatrix:
    """The Lyapunov solution M = (K - C/2) Sigma^{-1} for skew-symmetric K.

    Raises:
        ValueError: if ``k`` is not skew-symmetric.
    """
    if k.transpose() != -k:
        raise ValueError("K must be skew-symmetric")
    return sub(k, scale(vol.matrix, Fraction(1, 2))) @ rref_inverse(sigma.matrix)


@dataclass(frozen=True)
class PositivityReport:
    """Sign statistics of the restricted-kernel determinant over PD samples."""

    trials: int
    positive: int
    negative: int
    zero: int
    square: bool  # determinant when square, full-column-rank check otherwise

    @property
    def all_nonzero(self) -> bool:
        return self.zero == 0


# Entries of the sampled Cholesky factors lie in [-9, 9], the diagonal in [1, 9].
_POSITIVITY_ENTRY_BOUND = 9


def positivity_sample(g: DiGraph, trials: int, seed: int = 0) -> PositivityReport:
    """Evaluate the restricted kernel determinant at Cholesky-sampled PD points.

    Draws Sigma = L L^T for random rational lower-triangular L with positive
    diagonal and reports the sign statistics of det of the non-edge row
    restriction of H(Sigma) (full-column-rank counts as nonzero when the
    restriction is not square).  For a simple graph the value must never
    vanish on the positive definite cone.

    Raises:
        ValueError: if ``g`` is not simple.
    """
    if not is_simple(g):
        raise ValueError("positivity sampling applies to simple graphs")
    rng = _derive_rng(seed, salt=0x9E3779B9 ^ g.p)
    p = g.p
    non_edges = g.non_edges()
    cols = p * (p - 1) // 2
    square = len(non_edges) == cols
    pos = neg = zero = 0
    for _ in range(trials):
        low = [[0] * p for _ in range(p)]
        for i in range(p):
            low[i][i] = rng.randint(1, _POSITIVITY_ENTRY_BOUND)
            for j in range(i):
                low[i][j] = rng.randint(-_POSITIVITY_ENTRY_BOUND, _POSITIVITY_ENTRY_BOUND)
        sig = [
            [sum(low[i][t] * low[j][t] for t in range(p)) for j in range(p)]
            for i in range(p)
        ]
        restricted = _h_rows(sig, non_edges)
        if square:
            value = _intkernel.int_det(restricted)
        else:  # never wide: a simple graph has at least p(p-1)/2 non-edges
            value = int(_intkernel.rank_and_kernel(restricted, cols)[0] == cols)
        pos += value > 0
        neg += value < 0
        zero += value == 0
    return PositivityReport(trials=trials, positive=pos, negative=neg, zero=zero, square=square)
