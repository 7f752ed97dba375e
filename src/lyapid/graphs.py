"""Directed graphs with mandatory self-loops and the candidate enumeration.

Nodes are labelled 1..p.  An edge ``i -> j`` addresses drift-matrix entry
``m_ji``; the self-loops ``i -> i`` are always present (they carry the
diagonal of the drift matrix) and are inserted automatically on
construction.  Treks, the structural predicates, canonical forms under node
relabelling, and the enumeration of non-simple candidate graphs for the
classification sweep all live here.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Iterator

from . import _intkernel

Edge = tuple[int, int]

# The enumeration's one connectivity filter, as reports name it: only it gives
# the paper's totals of 2 / 80 / 4,862 at p = 3, 4, 5.
CONNECTIVITY = "weakly-connected"
_MAX_P = 5  # the largest p the enumeration, and so the sweep, supports


@dataclass(frozen=True)
class DiGraph:
    """Directed graph on nodes 1..p whose edge set includes all self-loops.

    ``edges`` always contains every ``(i, i)``; missing self-loops are
    inserted on construction, so ``num_edges`` counts self-loops plus
    off-diagonal edges.
    """

    p: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if not _is_int(self.p) or self.p < 1:
            raise ValueError(f"node count must be an integer >= 1, got {self.p!r}")
        normalized = set()
        for (i, j) in self.edges:
            if not (_is_int(i) and _is_int(j) and 1 <= i <= self.p and 1 <= j <= self.p):
                raise ValueError(f"edge {(i, j)!r} is not a pair of integer nodes in 1..{self.p}")
            normalized.add((i, j))
        normalized.update((i, i) for i in range(1, self.p + 1))
        object.__setattr__(self, "edges", frozenset(normalized))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def offdiag_edges(self) -> frozenset:
        return frozenset((i, j) for (i, j) in self.edges if i != j)

    def edge_index(self) -> list[Edge]:
        """Edges sorted lexicographically by (i, j).

        This order is consistent with columnwise vectorization: the edge
        ``i -> j`` (drift entry ``m_ji``) sits at 0-based position
        ``(i-1)*p + (j-1)`` of vec(M), and lexicographic order on (i, j) is
        increasing in that position.
        """
        return sorted(self.edges)

    def non_edges(self) -> list[Edge]:
        """Absent ordered pairs, sorted lexicographically (never self-loops)."""
        return sorted(
            (i, j)
            for i in range(1, self.p + 1)
            for j in range(1, self.p + 1)
            if (i, j) not in self.edges
        )

    def __repr__(self) -> str:
        off = ",".join(f"{i}->{j}" for (i, j) in sorted(self.offdiag_edges))
        return f"DiGraph(p={self.p}, [{off}])"


@dataclass(frozen=True)
class EnumPolicy:
    """Edge bound of the candidate enumeration.

    max_edges bounds the total edge count including self-loops and defaults
    to p(p+1)/2 (the dimension bound beyond which every model is
    non-identifiable).  Candidates are always weakly connected; the
    ``connectivity`` argument exists only so that ``EnumPolicy(**to_json())``
    reads a report's policy back, and any value but :data:`CONNECTIVITY`
    raises ``ValueError``.
    """

    max_edges: int | None = None
    connectivity: InitVar[str] = CONNECTIVITY

    def __post_init__(self, connectivity):
        if connectivity != CONNECTIVITY:
            raise ValueError(f"candidates are {CONNECTIVITY} only, got {connectivity!r}")

    def resolved_max_edges(self, p: int) -> int:
        return self.max_edges if self.max_edges is not None else p * (p + 1) // 2

    def to_json(self) -> dict:
        return {"max_edges": self.max_edges, "connectivity": CONNECTIVITY}


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------


def is_simple(g: DiGraph) -> bool:
    """True iff no pair of distinct nodes carries edges both ways."""
    off = g.offdiag_edges
    return not any((j, i) in off for (i, j) in off if i < j)


def is_dag(g: DiGraph) -> bool:
    """True iff the off-diagonal edge relation is acyclic (self-loops ignored):
    no two distinct nodes are each an ancestor of the other."""
    masks = _ancestor_masks(g)
    return not any(masks[w] >> v & 1 and masks[v] >> w & 1
                   for w in range(g.p) for v in range(w))


def _ancestor_masks(g: DiGraph) -> list[int]:
    """Reflexive ancestor bitmasks: bit v - 1 of ``masks[w - 1]`` is set iff
    there is a directed path (possibly trivial) from v to w that uses no
    self-loops.
    """
    masks = [1 << v for v in range(g.p)]
    for (i, j) in g.edges:
        masks[j - 1] |= 1 << (i - 1)
    return _closure(masks)


def _closure(masks: list[int]) -> list[int]:
    """Parent bitmasks (bit v of ``masks[w]``: v -> w) closed in place into
    ancestor masks, one pivot node at a time (Warshall)."""
    p = len(masks)
    for k in range(p):
        bit = 1 << k
        through = masks[k]
        for w in range(p):
            if masks[w] & bit:
                masks[w] |= through
    return masks


def has_trek(g: DiGraph, i: int, j: int) -> bool:
    """True iff some top node reaches both i and j by directed paths.

    Trivial paths count, so single nodes and directed paths are treks;
    self-loops are ignored for reachability.
    """
    if not (1 <= i <= g.p and 1 <= j <= g.p):
        raise ValueError(f"nodes must lie in 1..{g.p}")
    masks = _ancestor_masks(g)
    return bool(masks[i - 1] & masks[j - 1])


def no_trek_pairs(g: DiGraph) -> int:
    """Number of unordered pairs {i, j}, i != j, with no trek between them."""
    masks = _ancestor_masks(g)
    return sum(not a & b for i, a in enumerate(masks) for b in masks[i + 1:])


def necessary_criterion(g: DiGraph) -> bool:
    """Trek-based necessary condition for generic identifiability (diagonal C).

    Checks |E| <= p(p+1)/2 - #{unordered pairs with no trek}.  A False
    return certifies non-identifiability whenever the volatility matrix is
    diagonal.
    """
    return g.num_edges <= g.p * (g.p + 1) // 2 - no_trek_pairs(g)


# ---------------------------------------------------------------------------
# Relabelling and canonical forms
# ---------------------------------------------------------------------------


def relabel(g: DiGraph, perm: dict[int, int]) -> DiGraph:
    """Relabel nodes by a bijection {1..p} -> {1..p}."""
    if sorted(perm) != list(range(1, g.p + 1)) or sorted(perm.values()) != list(
        range(1, g.p + 1)
    ):
        raise ValueError("perm must be a bijection of 1..p")
    return DiGraph(g.p, frozenset((perm[i], perm[j]) for (i, j) in g.edges))


def canonical_form(g: DiGraph) -> DiGraph:
    """Lexicographically minimal edge set over all p! node relabellings.

    Two graphs are isomorphic iff their canonical forms are equal.  Brute
    force over permutations; intended for p <= 7.
    """
    if g.p > 7:
        raise ValueError("canonical_form is brute force; p <= 7 only")
    off = g.offdiag_edges
    best = None
    for perm in itertools.permutations(range(1, g.p + 1)):
        candidate = sorted((perm[i - 1], perm[j - 1]) for (i, j) in off)
        if best is None or candidate < best:
            best = candidate
    return DiGraph(g.p, frozenset(best))


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


# ---------------------------------------------------------------------------
# Candidate enumeration for the classification sweep
# ---------------------------------------------------------------------------


def _offdiag_pairs(p: int) -> list[Edge]:
    return [(i, j) for i in range(1, p + 1) for j in range(1, p + 1) if i != j]


def _permutation_mask_tables(p: int):
    """Per-permutation lookup tables mapping edge bitmasks to permuted masks.

    Masks use bit ``q-1-r`` for the edge of lexicographic rank r, so that a
    numerically larger mask corresponds to a lexicographically smaller
    sorted edge list (all masks compared have equal popcount).  Returns
    (pairs, q, half, lo, hi): row k of ``lo`` (``hi``) maps the low
    ``half`` bits (the high ``q - half`` bits) of a mask to their image
    under the k-th node relabelling, so an image is ``lo[k][low] | hi[k][high]``.
    """
    np = _intkernel.numpy()
    pairs = _offdiag_pairs(p)
    q = len(pairs)
    index = {e: k for k, e in enumerate(pairs)}
    half = q // 2
    # dest[k, t]: the bit that bit t (the edge of rank q-1-t) moves to
    dest = np.array(
        [[q - 1 - index[(perm[i - 1], perm[j - 1])] for (i, j) in reversed(pairs)]
         for perm in itertools.permutations(range(1, p + 1))],
        dtype=np.int64,
    )

    def table(first: int, width: int) -> np.ndarray:
        v = np.arange(1 << width, dtype=np.int64)
        out = np.zeros((len(dest), 1 << width), dtype=np.int64)
        for t in range(width):
            out |= ((v >> t) & 1) << dest[:, first + t, None]
        return out

    return pairs, q, half, table(0, half), table(half, q - half)


def _candidate_masks(p: int, policy: EnumPolicy | None = None) -> list[int]:
    """The canonical mask of every candidate, ascending; see :func:`_mask_edges`.

    The canonical masks are built by orderly generation (Read 1978; McKay
    1998), one edge count at a time: each canonical parent is extended only
    by a bit below its lowest set bit, and a child is kept only if no
    relabelling maps it to a larger mask.  The 2-cycle and weak connectivity
    filters run afterwards, so parents that are not candidates still extend.

    This reaches every canonical mask exactly once.  Lemma: removing the
    lowest set bit b of a canonical mask m leaves a canonical mask m - b.
    So every canonical child has a canonical parent, and only the one that
    drops its lowest bit.  Proof: a relabelling pi permutes bits, so
    suppose pi(m') > m' for m' = m - b, and let t be the first (highest)
    bit where the two differ, set in pi(m') only.  Every bit of m' lies
    above b, so t <= b would leave pi(m') with all of m' and bit t besides;
    hence t > b.  Above t, m agrees with m', and so does
    pi(m) = pi(m') + pi(b) unless pi(b) > t adds a bit there.  Either way
    the first difference between pi(m) and m is a bit of pi(m) (pi(b) or
    t): pi(m) > m, and m is not canonical.

    Raises:
        ValueError: unless 2 <= p <= ``_MAX_P`` = 5 (the sweep range).
    """
    if not 2 <= p <= _MAX_P:
        raise ValueError(f"enumeration supports 2 <= p <= {_MAX_P}")
    np = _intkernel.numpy()
    policy = policy or EnumPolicy()
    pairs, q, half, lo, hi = _permutation_mask_tables(p)
    levels = [np.array([1 << (q - 1)], dtype=np.int64)]  # the canonical 1-arc mask
    # one level per arc count; no level lies past the complete graph's q arcs
    for _ in range(min(policy.resolved_max_edges(p) - p, q) - 1):
        parents = levels[-1]
        low = parents & -parents
        masks = np.concatenate([parents[low > (1 << t)] | (1 << t) for t in range(q)])
        for lo_k, hi_k in zip(lo, hi):
            masks = masks[(lo_k[masks & ((1 << half) - 1)] | hi_k[masks >> half]) <= masks]
        levels.append(masks)
    masks = np.concatenate(levels)

    # (node pair, arc pair) bitmasks of every unordered pair i < j
    bit = {e: 1 << (q - 1 - r) for r, e in enumerate(pairs)}
    links = [((1 << i - 1) | (1 << j - 1), bit[i, j] | bit[j, i])
             for (i, j) in pairs if i < j]
    keep = np.zeros(len(masks), dtype=bool)
    for _, arcs in links:
        keep |= (masks & arcs) == arcs
    reach = np.ones_like(masks)  # node 1, then its undirected neighbours
    for _ in range(p - 1):
        for nodes, arcs in links:
            reach[((masks & arcs) != 0) & ((reach & nodes) != 0)] |= nodes
    keep &= reach == (1 << p) - 1
    return np.sort(masks[keep]).tolist()


def _mask_edges(mask: int, pairs: list[Edge]) -> tuple[Edge, ...]:
    """Sorted off-diagonal edges of ``mask``, where ``pairs = _offdiag_pairs(p)``.

    Bit ``q-1-r`` of the mask is the edge ``pairs[r]`` of lexicographic
    rank r, as in :func:`_permutation_mask_tables`.
    """
    return tuple(e for e, b in zip(pairs, format(mask, f"0{len(pairs)}b")) if b == "1")


def enumerate_candidates(p: int, policy: EnumPolicy | None = None) -> Iterator[DiGraph]:
    """All weakly connected non-simple graphs on [p] within the edge bound, one
    per isomorphism class.

    Graphs are yielded as canonical representatives in ascending order of
    their canonical masks (the largest mask of each relabelling class; see
    :func:`_permutation_mask_tables` and :func:`_candidate_masks`).  Every
    graph contains at least one 2-cycle, is weakly connected and satisfies
    ``num_edges <= policy.max_edges`` (self-loops included).

    Raises:
        ValueError: unless 2 <= p <= ``_MAX_P`` = 5 (the sweep range).
    """
    pairs = _offdiag_pairs(p)
    for mask in _candidate_masks(p, policy):
        yield DiGraph(p, frozenset(_mask_edges(mask, pairs)))


# ---------------------------------------------------------------------------
# JSON graph format
# ---------------------------------------------------------------------------


def graph_to_json(g: DiGraph) -> dict:
    """The wire format {"p": p, "edges": [[i, j], ...]} with self-loops included."""
    return {"p": g.p, "edges": [[i, j] for (i, j) in g.edge_index()]}


def graph_from_json(data) -> DiGraph:
    """Parse the JSON graph format; self-loops may be omitted in the input.

    Raises:
        ValueError: on malformed input.
    """
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except RecursionError as exc:  # nested past the interpreter's limit
            raise ValueError(f"graph JSON nested too deeply: {exc}") from exc
    if not isinstance(data, dict) or "p" not in data:
        raise ValueError('graph JSON must be an object with keys "p" and "edges"')
    p = data["p"]
    if not _is_int(p):
        raise ValueError(f'"p" must be an integer, got {p!r}')
    raw = data.get("edges", [])
    if not isinstance(raw, list):
        raise ValueError(f'"edges" must be a list of [i, j] pairs, got {raw!r}')
    for e in raw:
        if not (isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))):
            raise ValueError(f"bad edge {e!r}: expected a pair of integer nodes")
    return DiGraph(p, frozenset(tuple(e) for e in raw))


def _is_int(x) -> bool:
    """True for an exact int; a bool, a float or an int subclass is not a label."""
    return type(x) is int
