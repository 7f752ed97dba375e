"""Tests for graphs: predicates, treks, canonical forms, enumeration."""

import functools
import hashlib
import itertools
import json
import math
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapid.catalog import (
    complete_dag,
    fan_in_two_cycle,
    many_parents_two_cycle,
    three_cycle,
    two_cycle_out_edge,
    two_cycle_two_sinks,
)
from lyapid.graphs import (
    DiGraph,
    EnumPolicy,
    _arc_bit,
    _candidate_masks,
    _mask_arcs,
    _permutation_mask_tables,
    canonical_form,
    enumerate_candidates,
    graph_from_json,
    graph_to_json,
    is_dag,
    is_simple,
    necessary_criterion,
    no_trek_pairs,
)

from _oracles import (
    has_trek,
    mask_arcs,
    relabel,
    subgraph,
    two_cycle,
    two_cycle_two_sources,
    view_masks,
)


def _random_digraph(rng, p, density=0.3) -> DiGraph:
    edges = {
        (i, j)
        for i in range(1, p + 1)
        for j in range(1, p + 1)
        if i != j and rng.random() < density
    }
    return DiGraph(p, frozenset(edges))


class TestDiGraph:
    def test_self_loops_auto_inserted(self):
        g = DiGraph(3, frozenset({(1, 2)}))
        assert (1, 1) in g.edges and (2, 2) in g.edges and (3, 3) in g.edges
        assert g.num_edges == 4

    def test_edge_count_includes_self_loops(self):
        assert three_cycle().num_edges == 6

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DiGraph(2, frozenset({(1, 3)}))

    # Labels are rejected, not coerced: int(1.7) would silently make node 1.
    @pytest.mark.parametrize("p, edges", [
        (3, {(1.7, 2)}),
        (3, {("3", 1)}),
        (3, {(1, 2.0)}),
        (3, {(True, 2)}),
        (3.0, set()),
        ("3", set()),
        (True, set()),
    ], ids=["float-node", "str-node", "integral-float-node", "bool-node",
            "float-p", "str-p", "bool-p"])
    def test_rejects_non_int_labels(self, p, edges):
        with pytest.raises(ValueError):
            DiGraph(p, frozenset(edges))

    def test_subgraph_does_not_coerce_labels(self):
        g = two_cycle_out_edge()
        with pytest.raises(ValueError):
            subgraph(g, (g.edges - {(1, 2)}) | {(1.7, 2)})

    def test_edge_index_is_vec_order(self):
        g = three_cycle()
        index = g.edge_index()
        assert index == sorted(index)
        # position (i-1)*p + (j-1) is increasing along the index
        positions = [(i - 1) * g.p + (j - 1) for (i, j) in index]
        assert positions == sorted(positions)

    def test_non_edges_complement(self):
        g = two_cycle_out_edge()
        assert set(g.non_edges()) == {(1, 3), (3, 1), (3, 2)}


def _kahn_is_dag(g: DiGraph) -> bool:
    """The oracle for ``is_dag``: Kahn's walk removes every node iff the
    off-diagonal relation is acyclic."""
    children = {v: [] for v in range(1, g.p + 1)}
    indeg = dict.fromkeys(children, 0)
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


class TestPredicates:
    def test_three_cycle_simple(self):
        assert is_simple(three_cycle())

    def test_two_cycle_not_simple(self):
        assert not is_simple(two_cycle())

    def test_self_loops_only_simple(self):
        assert is_simple(DiGraph(4))

    def test_complete_dag_is_dag(self):
        assert is_dag(complete_dag(3))

    def test_three_cycle_not_dag(self):
        assert not is_dag(three_cycle())

    def test_self_loops_only_dag(self):
        assert is_dag(DiGraph(3))

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_is_dag_matches_kahns_walk_on_every_digraph(self, p):
        pairs = [(i, j) for i in range(1, p + 1) for j in range(1, p + 1) if i != j]
        for mask in range(1 << len(pairs)):
            g = DiGraph(p, frozenset(e for k, e in enumerate(pairs) if mask >> k & 1))
            assert is_dag(g) == _kahn_is_dag(g)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.data())
    def test_dag_implies_simple(self, p, data):
        edges = data.draw(
            st.sets(
                st.tuples(st.integers(1, p), st.integers(1, p)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=p * (p - 1),
            )
        )
        g = DiGraph(p, frozenset(edges))
        if is_dag(g):
            assert is_simple(g)


class TestTreks:
    def test_fan_in_no_treks_to_outsider(self):
        g = fan_in_two_cycle()
        assert not has_trek(g, 2, 4)
        assert not has_trek(g, 3, 4)
        assert has_trek(g, 1, 4)

    def test_trivial_trek_to_self(self):
        g = DiGraph(3)
        for i in range(1, 4):
            assert has_trek(g, i, i)

    def test_two_sources_no_trek_between_sources(self):
        assert not has_trek(two_cycle_two_sources(), 1, 4)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.data())
    def test_symmetry(self, p, data):
        edges = data.draw(
            st.sets(
                st.tuples(st.integers(1, p), st.integers(1, p)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=p * (p - 1),
            )
        )
        g = DiGraph(p, frozenset(edges))
        for i in range(1, p + 1):
            for j in range(1, p + 1):
                assert has_trek(g, i, j) == has_trek(g, j, i)

    def test_rooted_dag_all_pairs_trekked(self):
        rng = random.Random(7)
        for _ in range(20):
            p = rng.randint(2, 5)
            # every node > 1 gets a parent among lower-numbered nodes
            edges = {(rng.randint(1, j - 1), j) for j in range(2, p + 1)}
            g = DiGraph(p, frozenset(edges))
            assert is_dag(g)
            for i in range(1, p + 1):
                for j in range(1, p + 1):
                    assert has_trek(g, i, j)

    def test_no_trek_pair_counts(self):
        assert no_trek_pairs(fan_in_two_cycle()) == 2
        complete_simple = complete_dag(4)
        assert no_trek_pairs(complete_simple) == 0
        for p in (4, 5, 6):
            g = many_parents_two_cycle(p)
            assert no_trek_pairs(g) == math.comb(p - 1, 2) - 1

    def test_no_trek_pairs_match_set_based_count_on_candidates(self):
        # the reference: reflexive ancestor sets by search, then pairwise intersections
        def set_based(g):
            parents = {v: [i for (i, j) in g.offdiag_edges if j == v] for v in range(1, g.p + 1)}
            anc = {}
            for v in range(1, g.p + 1):
                reached, stack = {v}, [v]
                while stack:
                    for w in parents[stack.pop()]:
                        if w not in reached:
                            reached.add(w)
                            stack.append(w)
                anc[v] = reached
            return sum(not anc[i] & anc[j]
                       for i in range(1, g.p + 1) for j in range(i + 1, g.p + 1))

        # every non-simple class up to p = 4, disconnected ones included,
        # then the p = 5 candidates
        graphs = [g for p in range(2, 5) for g in _nonsimple_classes(p)]
        graphs += enumerate_candidates(5)
        assert len(graphs) > 4862
        assert any(not _weakly_connected(g) for g in graphs)
        for g in graphs:
            assert no_trek_pairs(g) == set_based(g)

    def test_necessary_criterion_cases(self):
        # 2p+1 edges against a trek-adjusted bound of 2p
        for p in (4, 5, 6):
            assert not necessary_criterion(many_parents_two_cycle(p))
        # 10 edges, all pairs trek-connected: bound met with equality
        assert necessary_criterion(two_cycle_two_sinks())
        # 9 edges against a bound of 8
        assert not necessary_criterion(fan_in_two_cycle())
        assert not necessary_criterion(two_cycle_two_sources())


class TestCanonicalForm:
    def test_orbit_invariance(self):
        rng = random.Random(13)
        g = two_cycle_two_sinks()
        base = canonical_form(g)
        for _ in range(50):
            perm_values = list(range(1, 5))
            rng.shuffle(perm_values)
            perm = {i + 1: perm_values[i] for i in range(4)}
            assert canonical_form(relabel(g, perm)) == base

    def test_isomorphic_two_cycle_attachments(self):
        # 2-cycle {1,2} + 2->3 vs + 1->3: swapping nodes 1 and 2 maps one
        # onto the other, so the canonical forms agree.  Brute-force orbit
        # check as the independent oracle.
        g1 = DiGraph(3, frozenset({(1, 2), (2, 1), (2, 3)}))
        g2 = DiGraph(3, frozenset({(1, 2), (2, 1), (1, 3)}))
        orbit1 = {
            frozenset(
                (perm[i - 1], perm[j - 1]) for (i, j) in g1.offdiag_edges
            )
            for perm in itertools.permutations([1, 2, 3])
        }
        assert g2.offdiag_edges in orbit1
        assert canonical_form(g1) == canonical_form(g2)

    def test_non_isomorphic_attachments_differ(self):
        outgoing = DiGraph(3, frozenset({(1, 2), (2, 1), (2, 3)}))
        incoming = DiGraph(3, frozenset({(1, 2), (2, 1), (3, 2)}))
        assert canonical_form(outgoing) != canonical_form(incoming)

    def test_self_loops_only_fixed_point(self):
        g = DiGraph(4)
        assert canonical_form(g) == g

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_is_the_lexicographic_minimum_on_every_digraph(self, p):
        # by brute force: the smallest sorted edge list over all relabellings
        pairs = [(i, j) for i in range(1, p + 1) for j in range(1, p + 1) if i != j]
        perms = list(itertools.permutations(range(1, p + 1)))
        for bits in range(1 << len(pairs)):
            off = [e for k, e in enumerate(pairs) if bits >> k & 1]
            least = min(sorted((perm[i - 1], perm[j - 1]) for (i, j) in off) for perm in perms)
            assert canonical_form(DiGraph(p, off)) == DiGraph(p, least)

    def test_relabel_requires_bijection(self):
        with pytest.raises(ValueError):
            relabel(DiGraph(2), {1: 1, 2: 1})


class TestSubgraph:
    def test_remove_all_offdiagonal(self):
        g = three_cycle()
        loops = {(i, i) for i in range(1, 4)}
        assert subgraph(g, loops) == DiGraph(3)

    def test_removing_return_edge_gives_fan_in(self):
        g1 = DiGraph(
            4, frozenset({(2, 3), (3, 2), (2, 1), (3, 1), (4, 1), (1, 4)})
        )
        kept = g1.edges - {(1, 4)}
        assert subgraph(g1, kept) == fan_in_two_cycle()

    def test_idempotent_on_full_edge_set(self):
        g = two_cycle_out_edge()
        assert subgraph(g, g.edges) == g

    def test_rejects_self_loop_removal(self):
        g = DiGraph(2)
        with pytest.raises(ValueError):
            subgraph(g, {(1, 1)})

    def test_rejects_non_subset(self):
        with pytest.raises(ValueError):
            subgraph(DiGraph(2), {(1, 2), (1, 1), (2, 2)})


@functools.lru_cache(maxsize=None)
def _nonsimple_classes(p):
    """Canonical forms of every non-simple graph on p nodes, by brute force."""
    pairs = [(i, j) for i in range(1, p + 1) for j in range(1, p + 1) if i != j]
    classes = set()
    for r in range(len(pairs) + 1):
        for combo in itertools.combinations(pairs, r):
            g = DiGraph(p, frozenset(combo))
            if not is_simple(g):
                classes.add(canonical_form(g))
    return classes


def _weakly_connected(g):
    adj = {v: set() for v in range(1, g.p + 1)}
    for (i, j) in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    stack, comp = [1], {1}
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in comp:
                comp.add(v)
                stack.append(v)
    return len(comp) == g.p


def _brute_force_classes(p, max_edges, connectivity):
    """Independent orbit enumeration oracle (tiny p only), in no set order."""
    keep = {
        "none": lambda g: True,
        "no-isolated-nodes": lambda g: {v for e in g.offdiag_edges for v in e}
        == set(range(1, p + 1)),
        "weakly-connected": _weakly_connected,
    }[connectivity]
    return [g for g in _nonsimple_classes(p) if g.num_edges <= max_edges and keep(g)]


def _mask(g):
    """The enumeration's sort key: bit q-1-r set for the edge of rank r."""
    pairs = [(i, j) for i in range(1, g.p + 1) for j in range(1, g.p + 1) if i != j]
    return sum(1 << (len(pairs) - 1 - pairs.index(e)) for e in g.offdiag_edges)


# sha256 of json.dumps([sorted(g.offdiag_edges) for g in enumerate_candidates(5)]):
# the p = 5 candidates in yield order.
P5_ENUMERATION_SHA256 = "c438457fa0d93a5997cdaf502228e46c1a7e53679902590fd2b0b961bd0a79eb"
# sha256 of json.dumps(_candidate_masks(5)): the p = 5 masks, ascending.
P5_MASKS_SHA256 = "0b0c3125645851b3ec846d418423da1162c53005b45faaaefb9efe33e06db7fb"
# p = 5 candidates within each edge bound, from 10 (the smallest, 2p) to the default 15
P5_COUNTS_BY_EDGE_BOUND = {10: 40, 11: 239, 12: 762, 13: 1782, 14: 3209, 15: 4862}


_tables = functools.lru_cache(maxsize=None)(_permutation_mask_tables)


def _packed_test_accepts(p, mask):
    """The enumeration's canonicity test of ``mask``, on the packed images of
    every non-identity relabelling, as ``_candidate_masks`` runs it."""
    ones, fields = _tables(p)
    guard = ones << p * (p - 1)
    img = guard
    for shift, width, table in fields:
        img |= table[mask >> shift & width]
    return not (img - (mask + 1) * ones) & guard


class TestEnumeration:
    def test_p3_default_count(self):
        graphs = list(enumerate_candidates(3))
        assert len(graphs) == 2

    def test_p3_matches_brute_force(self):
        ours = {g.edges for g in enumerate_candidates(3)}
        oracle = {g.edges for g in _brute_force_classes(3, 6, "weakly-connected")}
        assert ours == oracle

    def test_p3_drops_the_one_disconnected_class(self):
        # a 2-cycle plus an isolated node is the third non-simple class
        unrestricted = {g.edges for g in _brute_force_classes(3, 6, "none")}
        assert len(unrestricted) == 3
        ours = {g.edges for g in enumerate_candidates(3)}
        assert unrestricted - ours == {two_cycle(3).edges}

    def test_p4_default_count(self):
        assert sum(1 for _ in enumerate_candidates(4)) == 80

    def test_p4_counts_of_the_other_connectivity_variants(self):
        # the record in docs/table1_reproduction.md: no isolated node gives 82
        # classes, no filter at all 91; the enumeration keeps the connected 80
        assert len(_brute_force_classes(4, 10, "no-isolated-nodes")) == 82
        assert len(_brute_force_classes(4, 10, "none")) == 91

    def test_p4_matches_brute_force(self):
        ours = {g.edges for g in enumerate_candidates(4)}
        oracle = {g.edges for g in _brute_force_classes(4, 10, "weakly-connected")}
        assert ours == oracle

    def test_pairwise_non_isomorphic(self):
        graphs = list(enumerate_candidates(4))
        canons = {canonical_form(g).edges for g in graphs}
        assert len(canons) == len(graphs)

    def test_output_graphs_are_canonical(self):
        for g in enumerate_candidates(4):
            assert canonical_form(g) == g

    def test_every_candidate_nonsimple_and_bounded(self):
        for g in enumerate_candidates(4):
            assert not is_simple(g)
            assert g.num_edges <= 10

    def test_rejects_out_of_range_p(self):
        with pytest.raises(ValueError):
            list(enumerate_candidates(6))
        with pytest.raises(ValueError):
            list(enumerate_candidates(1))

    @pytest.mark.parametrize("p", [2.0, 3.5, True])
    def test_rejects_a_p_that_is_not_an_int(self, p):
        with pytest.raises(ValueError, match="enumeration supports integer 2 <= p <= 5"):
            list(enumerate_candidates(p))

    @pytest.mark.parametrize("policy", [0, 6, {"max_edges": 6}])
    def test_rejects_a_policy_that_is_not_an_enum_policy(self, policy):
        with pytest.raises(ValueError, match="policy must be an EnumPolicy"):
            _candidate_masks(3, policy)
        with pytest.raises(ValueError, match="policy must be an EnumPolicy"):
            list(enumerate_candidates(3, policy))

    def test_p2_is_empty(self):
        # the only non-simple 2-node graph has 4 > 3 edges
        assert list(enumerate_candidates(2)) == []

    def test_p5_yield_order_pinned(self):
        edges = [sorted(g.offdiag_edges) for g in enumerate_candidates(5)]
        assert len(edges) == 4862
        assert hashlib.sha256(json.dumps(edges).encode()).hexdigest() == P5_ENUMERATION_SHA256

    def test_p5_masks_pinned(self):
        masks = _candidate_masks(5)
        assert hashlib.sha256(json.dumps(masks).encode()).hexdigest() == P5_MASKS_SHA256

    @pytest.mark.parametrize("max_edges", sorted(P5_COUNTS_BY_EDGE_BOUND))
    def test_p5_counts_by_edge_bound(self, max_edges):
        masks = _candidate_masks(5, EnumPolicy(max_edges=max_edges))
        assert len(masks) == P5_COUNTS_BY_EDGE_BOUND[max_edges]

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([3, 4, 5]), st.data())
    def test_packed_test_accepts_exactly_the_canonical_masks(self, p, data):
        drawn = data.draw(st.integers(0, (1 << p * (p - 1)) - 1))
        # a drawn mask is rarely canonical, so its class's canonical mask is tested too
        for mask in (drawn, canonical_form(DiGraph._from_mask(p, drawn)).mask):
            canonical = canonical_form(DiGraph._from_mask(p, mask)).mask == mask
            assert _packed_test_accepts(p, mask) == canonical

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_matches_brute_force_in_mask_order(self, p):
        # a bound past the complete graph's p * p edges costs what p * p does
        for max_edges in sorted({p, p + 2, p * (p + 1) // 2, p * p, 10**4}):
            policy = EnumPolicy(max_edges=max_edges)
            oracle = sorted(_brute_force_classes(p, max_edges, "weakly-connected"), key=_mask)
            assert list(enumerate_candidates(p, policy)) == oracle

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_edge_bound_past_the_complete_graph_adds_nothing(self, p):
        # growth stops at the complete graph, so this returns at once
        far = enumerate_candidates(p, EnumPolicy(max_edges=10**9))
        assert list(far) == list(enumerate_candidates(p, EnumPolicy(max_edges=p * p)))

    def test_policy_reads_its_json_back(self):
        policy = EnumPolicy(max_edges=7)
        assert policy.to_json() == {"max_edges": 7, "connectivity": "weakly-connected"}
        assert EnumPolicy(**policy.to_json()) == policy

    @pytest.mark.parametrize("max_edges", [1.5, True, "7", 7.0])
    def test_policy_rejects_an_edge_bound_that_is_not_an_int(self, max_edges):
        with pytest.raises(ValueError, match="max_edges must be None or an integer"):
            EnumPolicy(max_edges=max_edges)

    @pytest.mark.parametrize("connectivity", ["none", "no-isolated-nodes"])
    def test_policy_rejects_other_connectivity(self, connectivity):
        with pytest.raises(ValueError):
            EnumPolicy(connectivity=connectivity)

    def test_simple_graphs_respect_dimension_bound(self):
        rng = random.Random(19)
        for _ in range(100):
            p = rng.randint(2, 5)
            g = _random_digraph(rng, p)
            if is_simple(g):
                assert g.num_edges <= p * (p + 1) // 2


class TestRepresentation:
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_the_bit_order_is_the_enumeration_sort_key(self, p):
        for i, j in itertools.permutations(range(1, p + 1), 2):
            g = DiGraph(p, {(i, j)})
            assert g.mask == 1 << _arc_bit(p, i, j) == _mask(g)
            assert _mask_arcs(p, g.mask) == ((i, j),)

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_every_candidate_is_its_mask(self, p):
        masks = _candidate_masks(p)
        graphs = list(enumerate_candidates(p))
        assert [g.mask for g in graphs] == masks
        for g in graphs:
            rebuilt = DiGraph(p, g.edges)
            assert rebuilt == g and hash(rebuilt) == hash(g)
            assert rebuilt.edge_index() == g.edge_index()
            assert _mask(g) == g.mask

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_equality_and_hash_follow_the_edge_sets(self, p, data):
        pair = st.tuples(st.integers(1, p), st.integers(1, p))
        first = data.draw(st.sets(pair, max_size=p * p))
        # half the time the same edges up to self-loops, so equal graphs occur
        second = data.draw(st.one_of(
            st.sets(pair, max_size=p * p),
            st.sets(st.integers(1, p)).map(lambda loops: first | {(v, v) for v in loops}),
        ))
        g, h = DiGraph(p, first), DiGraph(p, second)
        loops = {(v, v) for v in range(1, p + 1)}
        assert g.edges == frozenset(first) | loops
        assert (g == h) == (g.edges == h.edges)
        if g == h:
            assert hash(g) == hash(h)

    def test_pickles_equal_after_a_view_was_read(self):
        g = two_cycle_two_sinks()
        index = g.edge_index()
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and hash(copy) == hash(g)
        assert copy.edge_index() == index and copy.non_edges() == g.non_edges()

    def test_views_are_copies(self):
        g = two_cycle_out_edge()
        g.edge_index().clear()
        g.non_edges().clear()
        assert len(g.edge_index()) == g.num_edges == 6
        assert g.non_edges() == [(1, 3), (3, 1), (3, 2)]

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 9, 40])
    def test_the_byte_views_match_the_bit_walk(self, p):
        loops = tuple((v, v) for v in range(1, p + 1))
        full = (1 << p * (p - 1)) - 1
        for mask in view_masks(p):
            g, arcs = DiGraph._from_mask(p, mask), mask_arcs(p, mask)
            assert g.arcs == arcs
            assert g.edge_index() == sorted(arcs + loops)
            assert g.non_edges() == list(mask_arcs(p, full ^ mask))

    def test_a_large_sparse_graph_costs_what_its_edges_do(self):
        # the mask grows with p * p bits, but no view or predicate walks them
        tracemalloc.start()
        try:
            g = graph_from_json({"p": 200, "edges": [[1, 2], [2, 1]]})
            assert g.num_edges == 202 and len(g.edge_index()) == 202
            assert not is_simple(g) and not is_dag(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestJsonFormat:
    def test_roundtrip(self):
        g = two_cycle_out_edge()
        assert graph_from_json(graph_to_json(g)) == g

    def test_self_loops_optional_on_input(self):
        g = graph_from_json({"p": 3, "edges": [[1, 2], [2, 1]]})
        assert g == two_cycle(3)

    def test_output_includes_self_loops(self):
        data = graph_to_json(DiGraph(2))
        assert [1, 1] in data["edges"] and [2, 2] in data["edges"]

    def test_parse_string(self):
        g = graph_from_json(json.dumps({"p": 2, "edges": [[1, 2]]}))
        assert (1, 2) in g.edges

    def test_reject_malformed(self):
        with pytest.raises(ValueError):
            graph_from_json({"edges": []})
        with pytest.raises(ValueError):
            graph_from_json({"p": 2, "edges": [[1]]})
        with pytest.raises(ValueError):
            graph_from_json({"p": 2, "edges": [[1, 5]]})
