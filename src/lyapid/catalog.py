"""A small catalog of named graphs with interesting identifiability behaviour.

These fixed graphs are the demos' examples, and the tests check them too;
graphs that only the tests use live in the tests.  Names describe structure,
not provenance.
"""

from __future__ import annotations

from .graphs import DiGraph


def three_cycle() -> DiGraph:
    """The directed 3-cycle 1 -> 2 -> 3 -> 1 (globally identifiable)."""
    return DiGraph(3, frozenset({(1, 2), (2, 3), (3, 1)}))


def two_cycle_out_edge() -> DiGraph:
    """2-cycle on {1, 2} plus 2 -> 3: generically but not globally identifiable."""
    return DiGraph(3, frozenset({(1, 2), (2, 1), (2, 3)}))


def complete_dag(p: int) -> DiGraph:
    """The complete acyclic graph with every edge i -> j for i >= j."""
    return DiGraph(
        p, frozenset((i, j) for i in range(1, p + 1) for j in range(1, i + 1))
    )


def completed_four_cycle() -> DiGraph:
    """The 4-cycle 1->2->3->4->1 completed with chords 1->3 and 2->4 (simple)."""
    return DiGraph(4, frozenset({(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (2, 4)}))


def fan_in_two_cycle() -> DiGraph:
    """Nodes 2, 3 in a 2-cycle; 2, 3 and 4 all point into node 1.

    Non-identifiable: nodes 2 and 4 (and 3 and 4) share no trek, so the
    edge count exceeds the trek-adjusted dimension bound.
    """
    return DiGraph(4, frozenset({(2, 3), (3, 2), (2, 1), (3, 1), (4, 1)}))


def fan_in_two_cycle_with_return() -> DiGraph:
    """fan_in_two_cycle plus the back edge 1 -> 4: generically identifiable."""
    return DiGraph(4, frozenset({(2, 3), (3, 2), (2, 1), (3, 1), (4, 1), (1, 4)}))


def two_cycle_two_sinks() -> DiGraph:
    """A 2-cycle on {2, 3} feeding two sink nodes 1 and 4.

    Every node pair is trek-connected, yet the model is non-identifiable:
    the edge-restricted coefficient matrix is rank-deficient at every
    covariance in the model.
    """
    return DiGraph(4, frozenset({(2, 3), (3, 2), (2, 1), (3, 1), (2, 4), (3, 4)}))


def many_parents_two_cycle(p: int) -> DiGraph:
    """Nodes 2..p all point into node 1, with a 2-cycle on {2, 3}.

    For every p >= 4 this graph has 2p+1 edges but trek-adjusted dimension
    bound 2p, so the model is non-identifiable for any diagonal volatility
    matrix despite having fewer than p(p+1)/2 edges.
    """
    if p < 4:
        raise ValueError("needs p >= 4")
    edges = {(2, 3), (3, 2)} | {(i, 1) for i in range(2, p + 1)}
    return DiGraph(p, frozenset(edges))
