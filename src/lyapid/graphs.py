"""Directed graphs with mandatory self-loops and the candidate enumeration.

Nodes are labelled 1..p.  An edge ``i -> j`` addresses drift-matrix entry
``m_ji``; the self-loops ``i -> i`` are always present (they carry the
diagonal of the drift matrix), so a graph is p and a mask of its
off-diagonal edges.  Treks, the structural predicates, canonical forms under
node relabelling, and the enumeration of non-simple candidate graphs for the
classification sweep all live here.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import InitVar, dataclass
from typing import Iterable, Iterator

Edge = tuple[int, int]

# The enumeration's one connectivity filter, as reports name it: only it gives
# the paper's totals of 2 / 80 / 4,862 at p = 3, 4, 5.
CONNECTIVITY = "weakly-connected"
_MAX_P = 5  # the largest p the enumeration, and so the sweep, supports


@dataclass(frozen=True, init=False)
class DiGraph:
    """Directed graph on nodes 1..p whose edge set includes all self-loops.

    The value (p, mask): bit :func:`_arc_bit` ``(p, i, j)`` of ``mask`` is
    the off-diagonal edge ``i -> j``, and every self-loop is implied, so
    ``edges`` holds each ``(i, i)`` and ``num_edges`` counts them.  Equality
    and hash compare (p, mask); each edge view is read off the mask once.
    """

    p: int
    mask: int

    def __init__(self, p: int, edges: Iterable[Edge] = frozenset()):
        if not _is_int(p) or p < 1:
            raise ValueError(f"node count must be an integer >= 1, got {p!r}")
        mask = 0
        for (i, j) in edges:
            if not (_is_int(i) and _is_int(j) and 1 <= i <= p and 1 <= j <= p):
                raise ValueError(f"edge {(i, j)!r} is not a pair of integer nodes in 1..{p}")
            if i != j:
                mask |= 1 << _arc_bit(p, i, j)
        vars(self).update(p=p, mask=mask)

    @classmethod
    def _from_mask(cls, p: int, mask: int) -> DiGraph:
        """The graph of an arc mask on p nodes, unchecked."""
        g = cls.__new__(cls)
        vars(g).update(p=p, mask=mask)
        return g

    @property
    def num_edges(self) -> int:
        return self.p + self.mask.bit_count()

    @functools.cached_property
    def arcs(self) -> tuple[Edge, ...]:
        """The off-diagonal edges, sorted lexicographically."""
        return _mask_arcs(self.p, self.mask)

    @functools.cached_property
    def offdiag_edges(self) -> frozenset:
        return frozenset(self.arcs)

    @functools.cached_property
    def edges(self) -> frozenset:
        return frozenset(self._edge_index)

    @functools.cached_property
    def _edge_index(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.arcs + _loops(self.p)))

    @functools.cached_property
    def _non_edges(self) -> tuple[Edge, ...]:
        return _mask_arcs(self.p, ~self.mask & (1 << self.p * (self.p - 1)) - 1)

    def edge_index(self) -> list[Edge]:
        """Edges sorted lexicographically by (i, j): the vec order, in which
        edge ``i -> j`` (drift entry ``m_ji``) sits at 0-based position
        ``(i-1)*p + (j-1)`` of vec(M)."""
        return list(self._edge_index)

    def non_edges(self) -> list[Edge]:
        """Absent ordered pairs, sorted lexicographically (never self-loops)."""
        return list(self._non_edges)

    def __repr__(self) -> str:
        off = ",".join(f"{i}->{j}" for (i, j) in self.arcs)
        return f"DiGraph(p={self.p}, [{off}])"


def _arc_bit(p: int, i: int, j: int) -> int:
    """The mask bit of edge ``i -> j``, i != j: bit q-1-r for the edge of
    lexicographic rank r among the q = p(p-1) off-diagonal pairs.

    Among masks of equal popcount, the larger has the lexicographically
    smaller sorted edge list.  :func:`_mask_arcs` inverts this function.
    """
    rank = (i - 1) * (p - 1) + j - 1 - (j > i)
    return p * (p - 1) - 1 - rank


def _mask_arcs(p: int, mask: int) -> tuple[Edge, ...]:
    """The sorted edges whose :func:`_arc_bit` is set in ``mask``."""
    return tuple(itertools.chain.from_iterable(_mask_views(p, mask, 0)))


def _mask_views(p: int, mask: int, part: int) -> list:
    """The :func:`_byte_view` ``part`` of each nonzero byte of ``mask``, top
    byte first (arcs order), at a cost in its nonzero bytes, not its bits."""
    views = []
    while mask:
        shift = mask.bit_length() - 1 & -8
        byte = mask >> shift
        mask ^= byte << shift
        views.append(_byte_view(p, shift, byte, part))
    return views


@functools.lru_cache(maxsize=None)
def _byte_view(p: int, shift: int, byte: int, part: int):
    """A view of the mask ``byte << shift`` on p nodes, built on first use: its
    sorted arcs (part 0), or their text in ``repr(list(arcs))`` (1) or
    ``json.dumps(arcs)`` (2), brackets aside."""
    if part:
        arcs = list(_byte_view(p, shift, byte, 0))
        return (repr(arcs) if part == 1 else json.dumps(arcs))[1:-1]
    arcs, mask = [], byte << shift
    while mask:
        bit = mask.bit_length() - 1
        mask ^= 1 << bit
        i, c = divmod(p * (p - 1) - 1 - bit, p - 1)  # row i + 1, off-diagonal column c
        arcs.append(_edge(i + 1, c + 1 + (c >= i)))
    return tuple(arcs)


@functools.lru_cache(maxsize=None)
def _edge(i: int, j: int) -> Edge:
    """The one tuple ``(i, j)`` that every graph's edge views share."""
    return (i, j)


@functools.lru_cache(maxsize=None)
def _loops(p: int) -> tuple[Edge, ...]:
    """The p self-loops, one tuple for every graph on p nodes."""
    return tuple(_edge(i, i) for i in range(1, p + 1))


@dataclass(frozen=True)
class EnumPolicy:
    """Edge bound of the candidate enumeration.

    max_edges bounds the total edge count including self-loops and defaults
    to p(p+1)/2 (the dimension bound beyond which every model is
    non-identifiable).  Candidates are always weakly connected; the
    ``connectivity`` argument exists only so that ``EnumPolicy(**to_json())``
    reads a report's policy back.

    Raises:
        ValueError: unless ``max_edges`` is None or an ``int`` (a ``bool``
            is not), or if ``connectivity`` is not :data:`CONNECTIVITY`.
    """

    max_edges: int | None = None
    connectivity: InitVar[str] = CONNECTIVITY

    def __post_init__(self, connectivity):
        if self.max_edges is not None and not _is_int(self.max_edges):
            raise ValueError(f"max_edges must be None or an integer, got {self.max_edges!r}")
        if connectivity != CONNECTIVITY:
            raise ValueError(f"candidates are {CONNECTIVITY} only, got {connectivity!r}")

    def resolved_max_edges(self, p: int) -> int:
        return self.max_edges if self.max_edges is not None else p * (p + 1) // 2

    def to_json(self) -> dict:
        return {"max_edges": self.max_edges, "connectivity": CONNECTIVITY}


def _as_policy(policy: EnumPolicy | None) -> EnumPolicy:
    """``policy``, or ``EnumPolicy()`` for None; anything else is a ValueError."""
    if not isinstance(policy, EnumPolicy | None):
        raise ValueError(f"policy must be an EnumPolicy, got {policy!r}")
    return EnumPolicy() if policy is None else policy


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------


def is_simple(g: DiGraph) -> bool:
    """True iff no pair of distinct nodes carries edges both ways."""
    _require("g", g, DiGraph)
    return not any(g.mask >> _arc_bit(g.p, j, i) & 1 for (i, j) in g.arcs if i < j)


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
    _require("g", g, DiGraph)
    masks = [1 << v for v in range(g.p)]
    for (i, j) in g.arcs:
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
    # trek count first: its _ancestor_masks refuses a g that is not a DiGraph
    return no_trek_pairs(g) <= g.p * (g.p + 1) // 2 - g.num_edges


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


def canonical_form(g: DiGraph) -> DiGraph:
    """The relabelling of ``g`` with the largest mask, over all p! of them.

    This is the enumeration's canonical form, and so the relabelling with
    the lexicographically smallest sorted edge list (see :func:`_arc_bit`).
    Two graphs are isomorphic iff their canonical forms are equal.  Brute
    force over permutations; intended for p <= 7.
    """
    _require("g", g, DiGraph)
    if g.p > 7:
        raise ValueError("canonical_form is brute force; p <= 7 only")
    best = max(sum(1 << _arc_bit(g.p, perm[i - 1], perm[j - 1]) for (i, j) in g.arcs)
               for perm in itertools.permutations(range(1, g.p + 1)))
    return DiGraph._from_mask(g.p, best)


# ---------------------------------------------------------------------------
# Candidate enumeration for the classification sweep
# ---------------------------------------------------------------------------


def _field_tables(images: list[int]) -> list[tuple[int, int, list[int]]]:
    """(shift, width mask, table) for each of the ⌈q/10⌉ fields of at most
    10 bits of a q-bit mask: ``table[mask >> shift & width]`` is the OR of
    ``images[t]`` over the field's set bits t."""
    q, k = len(images), -(-len(images) // 10)
    fields = []
    for first, stop in ((f * q // k, (f + 1) * q // k) for f in range(k)):
        table = [0]
        for image in images[first:stop]:
            table += [x | image for x in table]
        fields.append((first, (1 << stop - first) - 1, table))
    return fields


def _permutation_mask_tables(p: int) -> tuple[int, list[tuple[int, int, list[int]]]]:
    """(ones, fields): the :func:`_field_tables` of a mask's images under
    every non-identity node relabelling, packed in one int (two fields at
    p = 4 and 5, three at p = 6).  Slot k, bits [k w, k w + q) with w = q + 1
    for the q = p(p-1) bits of :func:`_arc_bit`, holds the k-th image, and
    ``ones`` has bit k w set for every slot; bit q of a slot, its guard bit,
    stays clear."""
    q = p * (p - 1)
    perms = list(itertools.permutations(range(1, p + 1)))[1:]
    images = [sum(1 << k * (q + 1) + _arc_bit(p, perm[i - 1], perm[j - 1])
                  for k, perm in enumerate(perms))
              for (i, j) in _mask_arcs(p, (1 << q) - 1)[::-1]]  # edges by bit, bit 0 first
    return sum(1 << k * (q + 1) for k in range(len(perms))), _field_tables(images)


def _candidate_masks(p: int, policy: EnumPolicy | None = None) -> list[int]:
    """The canonical mask of every candidate, ascending; see :func:`_arc_bit`.

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

    A child c is canonical iff ``((img | guard) - (c + 1) * ones) & guard``
    is 0, for img its packed images and guard bit q of every slot: a slot
    holding s reads s + 2^q - (c + 1), in [0, 2^(q+1)) as s, c < 2^q, so no
    borrow crosses a slot, and its guard bit survives exactly when s > c.

    Raises:
        ValueError: unless p is an ``int`` with 2 <= p <= ``_MAX_P`` = 5, or
            if ``policy`` is neither None nor an ``EnumPolicy``.
    """
    if not (_is_int(p) and 2 <= p <= _MAX_P):
        raise ValueError(f"enumeration supports integer 2 <= p <= {_MAX_P}, got {p!r}")
    policy = _as_policy(policy)
    q = p * (p - 1)
    ones, fields = _permutation_mask_tables(p)
    guard = ones << q
    level = [1 << _arc_bit(p, 1, 2)]  # the canonical 1-arc mask
    masks = list(level)
    # one level per arc count; no level lies past the complete graph's q arcs
    for _ in range(min(policy.resolved_max_edges(p) - p, q) - 1):
        children = []
        for parent in level:
            for t in range((parent & -parent).bit_length() - 1):
                child = parent | 1 << t
                img = guard
                for shift, width, table in fields:
                    img |= table[child >> shift & width]
                if not (img - (child + 1) * ones) & guard:
                    children.append(child)
        level = children
        masks += level

    # The filters.  Bit k (m + k) of x is the k-th node pair i < j if i -> j
    # (j -> i) is an arc: a 2-cycle is a pair in both halves, and the pairs u
    # in either connect the nodes iff u crosses every cut (by node 1's side).
    pairs = list(itertools.combinations(range(1, p + 1), 2))
    m = len(pairs)
    pair_fields = _field_tables([1 << pairs.index((min(e), max(e))) + m * (e[0] > e[1])
                                 for e in _mask_arcs(p, (1 << q) - 1)[::-1]])
    sides = [{1, *rest} for r in range(p - 1)
             for rest in itertools.combinations(range(2, p + 1), r)]
    cuts = [sum(1 << k for k, (i, j) in enumerate(pairs) if (i in side) != (j in side))
            for side in sides]
    connected = [all(u & cut for cut in cuts) for u in range(1 << m)]
    candidates = []
    for mask in masks:
        x = 0
        for shift, width, table in pair_fields:
            x |= table[mask >> shift & width]
        if x & x >> m and connected[(x | x >> m) & (1 << m) - 1]:
            candidates.append(mask)
    return sorted(candidates)


def enumerate_candidates(p: int, policy: EnumPolicy | None = None) -> Iterator[DiGraph]:
    """All weakly connected non-simple graphs on [p] within the edge bound, one
    per isomorphism class.

    Each graph is its class's :func:`canonical_form`, yielded in ascending
    order of ``mask`` (see :func:`_candidate_masks`).  Every graph contains
    at least one 2-cycle, is weakly connected and satisfies
    ``num_edges <= policy.max_edges`` (self-loops included).

    Raises:
        ValueError: unless p is an ``int`` with 2 <= p <= ``_MAX_P`` = 5, or
            if ``policy`` is neither None nor an ``EnumPolicy``.
    """
    for mask in _candidate_masks(p, policy):
        yield DiGraph._from_mask(p, mask)


# ---------------------------------------------------------------------------
# JSON graph format
# ---------------------------------------------------------------------------


def graph_to_json(g: DiGraph) -> dict:
    """The wire format {"p": p, "edges": [[i, j], ...]} with self-loops included."""
    _require("g", g, DiGraph)
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


def _require(name: str, value, kind: type) -> None:
    """Refuse ``value`` unless it is a ``kind``, with a ValueError naming ``kind``."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
