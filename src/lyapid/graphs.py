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
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

Edge = tuple[int, int]

CONNECTIVITY_CHOICES = ("none", "no-isolated-nodes", "weakly-connected")


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
        if self.p < 1:
            raise ValueError("node count must be >= 1")
        normalized = set()
        for e in self.edges:
            i, j = int(e[0]), int(e[1])
            if not (1 <= i <= self.p and 1 <= j <= self.p):
                raise ValueError(f"edge {(i, j)} out of range for p={self.p}")
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

    def parents(self, j: int) -> set[int]:
        """Nodes i with an off-diagonal edge i -> j."""
        return {i for (i, jj) in self.edges if jj == j and i != j}

    def __repr__(self) -> str:
        off = ",".join(f"{i}->{j}" for (i, j) in sorted(self.offdiag_edges))
        return f"DiGraph(p={self.p}, [{off}])"


@dataclass(frozen=True)
class EnumPolicy:
    """Filter policy for the candidate enumeration.

    max_edges bounds the total edge count including self-loops and defaults
    to p(p+1)/2 (the dimension bound beyond which every model is
    non-identifiable).  connectivity is one of "none", "no-isolated-nodes"
    or "weakly-connected".
    """

    max_edges: int | None = None
    connectivity: str = "weakly-connected"

    def __post_init__(self):
        if self.connectivity not in CONNECTIVITY_CHOICES:
            raise ValueError(
                f"connectivity must be one of {CONNECTIVITY_CHOICES}, got {self.connectivity!r}"
            )

    def resolved_max_edges(self, p: int) -> int:
        return self.max_edges if self.max_edges is not None else p * (p + 1) // 2

    def to_json(self) -> dict:
        return {"max_edges": self.max_edges, "connectivity": self.connectivity}


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------


def is_simple(g: DiGraph) -> bool:
    """True iff no pair of distinct nodes carries edges both ways."""
    off = g.offdiag_edges
    return not any((j, i) in off for (i, j) in off if i < j)


def is_dag(g: DiGraph) -> bool:
    """True iff the off-diagonal edge relation is acyclic (self-loops ignored)."""
    children: dict[int, list[int]] = {v: [] for v in range(1, g.p + 1)}
    indeg = {v: 0 for v in range(1, g.p + 1)}
    for (i, j) in g.offdiag_edges:
        children[i].append(j)
        indeg[j] += 1
    queue = [v for v in indeg if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in children[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == g.p


def _ancestor_masks(g: DiGraph) -> list[int]:
    """Reflexive ancestor bitmasks: bit v - 1 of ``masks[w - 1]`` is set iff
    v is an ancestor of w (see :func:`ancestor_sets`).

    The transitive closure of the parent masks, one pivot node at a time
    (Warshall).
    """
    p = g.p
    masks = [1 << v for v in range(p)]
    for (i, j) in g.edges:
        masks[j - 1] |= 1 << (i - 1)
    for k in range(p):
        bit = 1 << k
        through = masks[k]
        for w in range(p):
            if masks[w] & bit:
                masks[w] |= through
    return masks


def ancestor_sets(g: DiGraph) -> dict[int, set[int]]:
    """Reflexive ancestor sets over the off-diagonal edge relation.

    ``v in ancestor_sets(g)[w]`` iff there is a directed path (possibly
    trivial) from v to w that uses no self-loops.
    """
    return {
        w: {v for v in range(1, g.p + 1) if mask >> (v - 1) & 1}
        for w, mask in enumerate(_ancestor_masks(g), start=1)
    }


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
    keep = {(int(i), int(j)) for (i, j) in keep_edges}
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


def _is_weakly_connected(p: int, offdiag: Iterable[Edge]) -> bool:
    adj: dict[int, set[int]] = {v: set() for v in range(1, p + 1)}
    for (i, j) in offdiag:
        adj[i].add(j)
        adj[j].add(i)
    seen = {1}
    stack = [1]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == p


def _passes_connectivity(p: int, offdiag: list[Edge], connectivity: str) -> bool:
    if connectivity == "none":
        return True
    touched = {v for e in offdiag for v in e}
    if len(touched) < p:
        return False
    if connectivity == "no-isolated-nodes":
        return True
    return _is_weakly_connected(p, offdiag)


def _permutation_mask_tables(p: int):
    """Per-permutation lookup tables mapping edge bitmasks to permuted masks.

    Masks use bit ``q-1-r`` for the edge of lexicographic rank r, so that a
    numerically larger mask corresponds to a lexicographically smaller
    sorted edge list (all masks compared have equal popcount).  Returns
    (pairs, q, half, lo, hi): row k of ``lo`` (``hi``) maps the low
    ``half`` bits (the high ``q - half`` bits) of a mask to their image
    under the k-th node relabelling, so an image is ``lo[k][low] | hi[k][high]``.
    """
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


def _mask_to_edges(mask: int, pairs: list[Edge], q: int) -> frozenset:
    return frozenset(pairs[q - 1 - t] for t in range(q) if (mask >> t) & 1)


def enumerate_candidates(p: int, policy: EnumPolicy | None = None) -> Iterator[DiGraph]:
    """All non-simple graphs on [p] passing the policy, one per isomorphism class.

    Graphs are yielded as canonical representatives in ascending order of
    their canonical masks (the largest mask of each relabelling class; see
    :func:`_permutation_mask_tables`).  Every graph contains at least one
    2-cycle, satisfies ``num_edges <= policy.max_edges`` (self-loops
    included) and the policy's connectivity filter.

    Raises:
        ValueError: unless 2 <= p <= 5 (the intended sweep range).
    """
    if not (2 <= p <= 5):
        raise ValueError("enumeration supports 2 <= p <= 5")
    policy = policy or EnumPolicy()
    max_off = policy.resolved_max_edges(p) - p
    pairs, q, half, lo, hi = _permutation_mask_tables(p)
    index = {e: k for k, e in enumerate(pairs)}

    # edges[m] is the popcount of m: the second half of 0..2^(t+1)-1 has one
    # more bit than the first
    edges = np.zeros(1, dtype=np.int8)
    for _ in range(q):
        edges = np.concatenate([edges, edges + 1])
    masks = np.flatnonzero((edges >= 2) & (edges <= max_off))
    # Keep graphs containing at least one 2-cycle.
    nonsimple = np.zeros(len(masks), dtype=bool)
    for i in range(1, p + 1):
        for j in range(i + 1, p + 1):
            t = (1 << (q - 1 - index[(i, j)])) | (1 << (q - 1 - index[(j, i)]))
            nonsimple |= (masks & t) == t
    masks = masks[nonsimple]

    # Canonicalize: the maximal mask over all relabellings encodes the
    # lexicographically minimal edge set (equal popcount throughout), so a
    # mask that some relabelling maps higher is not canonical.
    for lo_k, hi_k in zip(lo, hi):
        masks = masks[(lo_k[masks & ((1 << half) - 1)] | hi_k[masks >> half]) <= masks]
    for mask in masks.tolist():
        offdiag = sorted(_mask_to_edges(mask, pairs, q))
        if _passes_connectivity(p, offdiag, policy.connectivity):
            yield DiGraph(p, frozenset(offdiag))


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
        data = json.loads(data)
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
    return isinstance(x, int) and not isinstance(x, bool)
