"""Tests for the classifiers, certificates, and determinant identities."""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lyapid import _intkernel, identifiability, lyapunov, sweep
from lyapid.catalog import (
    complete_dag,
    completed_four_cycle,
    fan_in_two_cycle,
    fan_in_two_cycle_with_return,
    many_parents_two_cycle,
    three_cycle,
    two_cycle_out_edge,
    two_cycle_two_sinks,
)
from lyapid.graphs import (
    DiGraph,
    EnumPolicy,
    _candidate_masks,
    enumerate_candidates,
    is_dag,
    is_simple,
    no_trek_pairs,
)
from lyapid.identifiability import (
    EDGE_COUNT_BOUND,
    FULL_RANK_WITNESS,
    RANK_DEFICIT_WITNESS,
    THEOREM_DAG,
    THEOREM_SIMPLE,
    TREK_BOUND,
    ClassifyConfig,
    IdentClass,
    classify,
)
from lyapid.linalg import AFFINE, RatMatrix, det, matrix_strings, rank, rat, vech
from lyapid.lyapunov import (
    CovMatrix,
    DriftMatrix,
    NotStableError,
    VolatilityMatrix,
    build_A,
    build_H,
    restrict_A,
    restrict_H,
    sample_stable_drift,
    solve_for_sigma,
)
from lyapid.sweep import derive_graph_seed

from _oracles import (
    complete_graph,
    cycle3_determinant_identity,
    dag_determinant_identity,
    diagonal_matrix,
    positivity_sample,
    random_pd_matrix,
    random_volatility,
    relabel,
    scale,
    two_cycle,
    two_cycle_two_sources,
)
from _rref import rref_solve

IDENTITY3 = VolatilityMatrix.identity(3)
IDENTITY4 = VolatilityMatrix.identity(4)

# the non-simple catalog graphs; a counting stage decides five of them
# before sampling, so tests sample these through _sampled
SAMPLED_CATALOG_GRAPHS = {
    "two_cycle": two_cycle(),
    "two_cycle_p3": two_cycle(3),
    "two_cycle_out_edge": two_cycle_out_edge(),
    "fan_in_two_cycle": fan_in_two_cycle(),
    "fan_in_two_cycle_with_return": fan_in_two_cycle_with_return(),
    "two_cycle_two_sinks": two_cycle_two_sinks(),
    "two_cycle_two_sources": two_cycle_two_sources(),
    "many_parents_two_cycle_4": many_parents_two_cycle(4),
    "many_parents_two_cycle_5": many_parents_two_cycle(5),
}


def _sampled(g: DiGraph, vol: VolatilityMatrix, cfg: ClassifyConfig = ClassifyConfig()):
    """The verdict of the sampling stage alone, also for a graph that a
    counting stage of :func:`classify` decides first."""
    return identifiability._rank_by_sampling(
        g, vol, cfg.seed, *identifiability._sampling_volatility(vol))


class TestTheoremVerdicts:
    def test_three_cycle_global_any_volatility(self):
        rng = random.Random(1)
        for _ in range(5):
            vol = random_volatility(3, rng)
            verdict = classify(three_cycle(), vol)
            assert verdict.classification is IdentClass.GLOBALLY_IDENTIFIABLE
            assert verdict.certificate.kind == THEOREM_SIMPLE

    def test_dag_gets_dag_certificate(self):
        verdict = classify(complete_dag(4), IDENTITY4)
        assert verdict.classification is IdentClass.GLOBALLY_IDENTIFIABLE
        assert verdict.certificate.kind == THEOREM_DAG


def _simple_graphs(p: int):
    """Every labelled simple graph on p nodes: each pair of distinct nodes
    carries no edge, i -> j or j -> i."""
    pairs = [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)]
    for code in range(3 ** len(pairs)):
        edges = set()
        for (i, j) in pairs:
            code, choice = divmod(code, 3)
            if choice:
                edges.add((i, j) if choice == 1 else (j, i))
        yield DiGraph(p, frozenset(edges))


class TestOneVerdictEntryPoint:
    """classify decides every graph; folding the theorem and the sampling
    stage into it moves no byte."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_every_simple_graph_gets_the_theorem_verdict(self, p):
        vol = VolatilityMatrix.identity(p)
        graphs = list(_simple_graphs(p))
        assert len(graphs) == 3 ** (p * (p - 1) // 2)
        for g in graphs:
            assert is_simple(g)
            assert identifiability._bound_verdict(g, vol) is None
            kind = THEOREM_DAG if is_dag(g) else THEOREM_SIMPLE
            assert classify(g, vol).to_json() == {
                "class": IdentClass.GLOBALLY_IDENTIFIABLE.value,
                "certificate": {"kind": kind},
            }

    @pytest.mark.parametrize("seed", [0, 5])
    def test_sampled_candidates_get_the_sampling_stage_bytes(self, seed):
        vol, cfg = IDENTITY4, ClassifyConfig(seed=seed)
        sampled = [g for g in enumerate_candidates(4)
                   if identifiability._bound_verdict(g, vol) is None]
        assert len(sampled) > 50 and not any(is_simple(g) for g in sampled)
        for g in sampled:
            assert _verdict_bytes(classify(g, vol, cfg)) == _verdict_bytes(_sampled(g, vol, cfg))


class TestSamplingStage:
    def test_two_cycle_out_edge_generic(self):
        verdict = classify(two_cycle_out_edge(), IDENTITY3, ClassifyConfig(seed=5))
        assert (
            verdict.classification is IdentClass.GENERICALLY_IDENTIFIABLE_NOT_GLOBAL
        )
        cert = verdict.certificate
        assert cert.kind == FULL_RANK_WITNESS
        # replayability: the stored sigma reproduces full column rank |E|
        g = two_cycle_out_edge()
        a_res = restrict_A(build_A(cert.witness.sigma), g)
        assert rank(a_res) == g.num_edges == cert.witness.rank

    def test_two_sinks_rank_deficit(self):
        g = two_cycle_two_sinks()
        verdict = classify(g, IDENTITY4, ClassifyConfig(seed=7))
        assert verdict.classification is IdentClass.NON_IDENTIFIABLE
        cert = verdict.certificate
        assert cert.kind == RANK_DEFICIT_WITNESS
        assert len(cert.samples) == ClassifyConfig.trials
        assert cert.failure_bound < 2**-40
        for sample in cert.samples:
            assert sample.rank < g.num_edges
            a_res = restrict_A(build_A(sample.sigma), g)
            v = RatMatrix.column(list(sample.kernel_vector))
            assert any(x != 0 for x in v.entries)
            assert all(x == 0 for x in (a_res @ v).entries)

    def test_two_sinks_kernel_vector_matches_covariance_pattern(self):
        # the kernel combination has coefficients read off Sigma itself:
        # (S13, S23, S33, S34) on the edges out of node 2 and
        # (-S12, -S22, -S23, -S24) on the edges out of node 3
        g = two_cycle_two_sinks()
        verdict = classify(g, IDENTITY4, ClassifyConfig(seed=11))
        sample = verdict.certificate.samples[0]
        s = sample.sigma
        edges = list(verdict.certificate.edges)
        expected = {
            (2, 1): s[0, 2], (2, 2): s[1, 2], (2, 3): s[2, 2], (2, 4): s[2, 3],
            (3, 1): -s[0, 1], (3, 2): -s[1, 1], (3, 3): -s[1, 2], (3, 4): -s[1, 3],
            (1, 1): Fraction(0), (4, 4): Fraction(0),
        }
        expected_vec = [expected[e] for e in edges]
        got = list(sample.kernel_vector)
        # proportionality: cross products vanish
        for a, b in zip(expected_vec, got):
            for c, d in zip(expected_vec, got):
                assert a * d == c * b

    def test_fan_in_with_return_generic_but_subgraph_not(self):
        cfg = ClassifyConfig(seed=13)
        verdict = classify(fan_in_two_cycle_with_return(), IDENTITY4, cfg)
        assert (
            verdict.classification is IdentClass.GENERICALLY_IDENTIFIABLE_NOT_GLOBAL
        )
        # the trek bound decides the subgraph; sampled anyway, it is deficient too
        subverdict = _sampled(fan_in_two_cycle(), IDENTITY4, cfg)
        assert subverdict.classification is IdentClass.NON_IDENTIFIABLE

    def test_witness_fiber_is_infinite(self):
        # adding any multiple of the kernel vector to a particular solution
        # keeps solving the restricted system exactly
        g = two_cycle_two_sinks()
        verdict = classify(g, IDENTITY4, ClassifyConfig(seed=17))
        sample = verdict.certificate.samples[0]
        a_res = restrict_A(build_A(sample.sigma), g)
        rhs = -vech(RatMatrix.identity(4))
        x0 = RatMatrix.column(
            [sample.drift[j - 1, i - 1] for (i, j) in g.edge_index()]
        )
        assert a_res @ x0 == rhs
        v = RatMatrix.column(list(sample.kernel_vector))
        for t in (Fraction(1), Fraction(-2), Fraction(5, 3)):
            assert a_res @ (x0 + scale(v, t)) == rhs


class TestKernelRoute:
    def test_three_cycle_full_kernel_rank_at_model_points(self):
        rng = random.Random(19)
        g = three_cycle()
        vol = IDENTITY3
        for _ in range(10):
            drift = sample_stable_drift(g, rng, bound=9)
            sigma = solve_for_sigma(drift, vol)
            assert rank(restrict_H(build_H(sigma), g)) == 3

    def test_rank_drop_locus_of_two_cycle_out_edge(self):
        # rank of the non-edge restriction of H drops exactly on S23 = 0,
        # which happens exactly when the drift entry for edge 2 -> 3 is 0
        g = two_cycle_out_edge()
        vol = IDENTITY3
        with_edge = DriftMatrix(
            g, RatMatrix.from_rows([[-3, 1, 0], [2, -4, 0], [0, 1, -2]])
        )
        sigma = solve_for_sigma(with_edge, vol)
        res = restrict_H(build_H(sigma), g)
        assert rank(res) == 3
        zeroed = DriftMatrix(
            g, RatMatrix.from_rows([[-3, 1, 0], [2, -4, 0], [0, 0, -2]])
        )
        sigma0 = solve_for_sigma(zeroed, vol)
        assert sigma0.matrix[1, 2] == 0
        res0 = restrict_H(build_H(sigma0), g)
        assert rank(res0) < 3

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", sorted(SAMPLED_CATALOG_GRAPHS))
    def test_sample_ranks_match_the_fraction_rank(self, name, seed):
        # the rank decided on H_nonE is the Fraction rank of A(Sigma)_E
        g = SAMPLED_CATALOG_GRAPHS[name]
        cert = _sampled(g, VolatilityMatrix.identity(g.p), ClassifyConfig(seed=seed)).certificate
        assert cert.kind in (FULL_RANK_WITNESS, RANK_DEFICIT_WITNESS)
        if cert.witness is not None:
            assert cert.witness.rank == g.num_edges
        for sample in cert.samples:
            assert sample.rank == rank(restrict_A(build_A(sample.sigma), g)) < g.num_edges


class TestClassify:
    def test_complete_simple_graph_global(self):
        g = completed_four_cycle()
        verdict = classify(g, IDENTITY4)
        assert verdict.classification is IdentClass.GLOBALLY_IDENTIFIABLE
        assert verdict.certificate.kind == THEOREM_SIMPLE

    def test_family_graph_trek_bound_no_sampling(self):
        g = many_parents_two_cycle(6)
        vol = VolatilityMatrix(
            diagonal_matrix([rat(k + 1) for k in range(6)])
        )
        verdict = classify(g, vol)
        assert verdict.classification is IdentClass.NON_IDENTIFIABLE
        assert verdict.certificate.kind == TREK_BOUND

    def test_edge_count_bound(self):
        g = complete_graph(3)  # 9 edges > 6
        verdict = classify(g, IDENTITY3)
        assert verdict.classification is IdentClass.NON_IDENTIFIABLE
        assert verdict.certificate.kind == EDGE_COUNT_BOUND

    def test_two_cycle_cascade(self):
        # p = 2: 4 edges > 3, so the edge count bound decides already
        verdict = classify(two_cycle(), VolatilityMatrix.identity(2))
        assert verdict.classification is IdentClass.NON_IDENTIFIABLE
        assert verdict.certificate.kind == EDGE_COUNT_BOUND

    def test_relabelling_invariance(self):
        rng = random.Random(29)
        graphs = [
            two_cycle_out_edge(),
            fan_in_two_cycle(),
            two_cycle_two_sinks(),
            completed_four_cycle(),
        ]
        for g in graphs:
            base = classify(g, VolatilityMatrix.identity(g.p)).classification
            for _ in range(5):
                values = list(range(1, g.p + 1))
                rng.shuffle(values)
                perm = {i + 1: values[i] for i in range(g.p)}
                relabelled = classify(
                    relabel(g, perm), VolatilityMatrix.identity(g.p)
                ).classification
                assert relabelled == base

    def test_diagonal_volatility_matches_identity(self):
        diag = VolatilityMatrix(diagonal_matrix([1, 4, 9, 16]))
        for g in (
            fan_in_two_cycle(),
            two_cycle_two_sinks(),
            two_cycle_two_sources(),
            fan_in_two_cycle_with_return(),
        ):
            assert (
                classify(g, diag).classification
                == classify(g, IDENTITY4).classification
            )

    def test_non_diagonal_upgrade_of_two_cycle_plus_node(self):
        # with off-diagonal volatility the 2-cycle-plus-isolated-node model
        # becomes (at least) generically identifiable
        g = two_cycle(3)
        vol = VolatilityMatrix(RatMatrix.from_rows([[2, 0, 1], [0, 2, 0], [1, 0, 2]]))
        verdict = classify(g, vol, ClassifyConfig(seed=31))
        assert (
            verdict.classification is IdentClass.GENERICALLY_IDENTIFIABLE_NOT_GLOBAL
        )
        assert verdict.certificate.kind == FULL_RANK_WITNESS
        # with diagonal volatility the same graph fails the trek bound
        verdict_diag = classify(g, IDENTITY3)
        assert verdict_diag.classification is IdentClass.NON_IDENTIFIABLE
        assert verdict_diag.certificate.kind == TREK_BOUND

    def test_verdict_json_shape(self):
        verdict = classify(two_cycle_out_edge(), IDENTITY3, ClassifyConfig())
        data = verdict.to_json()
        assert data["class"] == "generically-identifiable-not-global"
        assert data["certificate"]["kind"] == FULL_RANK_WITNESS
        assert "witness" in data["certificate"]


class TestDeterminantIdentities:
    def test_dag_identity_p3_display(self):
        rng = random.Random(37)
        for _ in range(20):
            sigma = CovMatrix(random_pd_matrix(3, rng))
            s = sigma.matrix
            lhs, rhs = dag_determinant_identity(sigma)
            assert lhs == rhs
            explicit = (
                8
                * det(s)
                * (s[1, 1] * s[2, 2] - s[1, 2] * s[1, 2])
                * s[2, 2]
            )
            assert lhs == explicit

    def test_dag_identity_identity_sigma(self):
        for p in range(2, 6):
            lhs, rhs = dag_determinant_identity(CovMatrix(RatMatrix.identity(p)))
            assert lhs == rhs == Fraction(2) ** p

    def test_dag_identity_random(self):
        rng = random.Random(41)
        for p in range(2, 6):
            for _ in range(25):
                sigma = CovMatrix(random_pd_matrix(p, rng))
                lhs, rhs = dag_determinant_identity(sigma)
                assert lhs == rhs > 0

    def test_cycle3_identity_sigma_identity(self):
        lhs, rhs = cycle3_determinant_identity(CovMatrix(RatMatrix.identity(3)))
        assert lhs == rhs == 8

    def test_cycle3_identity_random(self):
        rng = random.Random(43)
        for _ in range(100):
            sigma = CovMatrix(random_pd_matrix(3, rng))
            lhs, rhs = cycle3_determinant_identity(sigma)
            assert lhs == rhs
            s = sigma.matrix
            assert s[0, 0] * s[1, 1] * s[2, 2] - s[0, 1] * s[0, 2] * s[1, 2] > 0

    def test_cycle3_factor_positive_at_1000_points(self):
        rng = random.Random(45)
        for _ in range(1000):
            s = random_pd_matrix(3, rng)
            assert s[0, 0] * s[1, 1] * s[2, 2] - s[0, 1] * s[0, 2] * s[1, 2] > 0

    def test_cycle3_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            cycle3_determinant_identity(CovMatrix(RatMatrix.identity(4)))


class TestPositivitySample:
    def test_completed_four_cycle_never_vanishes(self):
        report = positivity_sample(completed_four_cycle(), trials=200, seed=3)
        assert report.square
        assert report.all_nonzero

    def test_dag_values_match_minor_product(self):
        rng = random.Random(47)
        g = complete_dag(3)
        for _ in range(20):
            s = random_pd_matrix(3, rng)
            value = det(restrict_H(build_H(s), g))
            assert abs(value) == s[2, 2] * (s[1, 1] * s[2, 2] - s[1, 2] * s[1, 2])
            assert value != 0

    def test_non_complete_simple_graph_uses_rank(self):
        g = three_cycle()  # |E| = 6 = p(p+1)/2, square restriction
        report = positivity_sample(g, trials=50, seed=5)
        assert report.square and report.all_nonzero
        sparse = DiGraph(3, frozenset({(1, 2)}))  # 4 edges, 5 non-edges
        report2 = positivity_sample(sparse, trials=50, seed=7)
        assert not report2.square
        assert report2.all_nonzero

    def test_rejects_non_simple(self):
        with pytest.raises(ValueError):
            positivity_sample(two_cycle(), trials=1)


def _scaled_rows(m: RatMatrix, d: int) -> list[list]:
    return [[d * x for x in row] for row in m.to_lists()]


class TestIntegerHotPath:
    """The sampling path's integer rows against the public Fraction builders."""

    @pytest.mark.parametrize(
        "graph_fn", [two_cycle_out_edge, fan_in_two_cycle, two_cycle_two_sinks,
                     two_cycle_two_sources]
    )
    def test_rank_tested_rows_are_scaled_restrictions(self, monkeypatch, graph_fn):
        g = graph_fn()
        tested = []
        # every sample ranks the non-edge rows of H through rank_and_kernel
        ranker = _intkernel.rank_and_kernel

        def capture(rows, cols):
            tested.append([row[:] for row in rows])
            return ranker(rows, cols)

        monkeypatch.setattr(_intkernel, "rank_and_kernel", capture)
        # two of the graphs are decided by the trek bound: sample them anyway
        cfg = ClassifyConfig(seed=11)
        cert = _sampled(g, VolatilityMatrix.identity(g.p), cfg).certificate
        samples = [cert.witness] if cert.witness is not None else list(cert.samples)
        assert len(tested) == len(samples) >= 1
        for rows, sample in zip(tested, samples):
            # the sampling path solves Sigma = N / D with D the lcm denominator
            _, d = _intkernel.common_denominator(sample.sigma.entries)
            expected = restrict_H(build_H(sample.sigma), g)
            assert rows == _scaled_rows(expected, d)

    @pytest.mark.parametrize(
        "graph_fn", [three_cycle, two_cycle_out_edge, fan_in_two_cycle,
                     two_cycle_two_sources, completed_four_cycle]
    )
    def test_builders_on_numerators_match_fraction_builders(self, graph_fn):
        g = graph_fn()
        rng = random.Random(2024 + g.num_edges)
        for _ in range(10):
            sigma = random_pd_matrix(g.p, rng)
            nums, d = _intkernel.common_denominator(sigma.entries)
            n_rows = [nums[i * g.p : (i + 1) * g.p] for i in range(g.p)]
            assert lyapunov._a_rows(n_rows, g.edge_index()) == _scaled_rows(
                restrict_A(build_A(sigma), g), d
            )
            assert identifiability._h_rows(n_rows, g.non_edges()) == _scaled_rows(
                restrict_H(build_H(sigma), g), d
            )

    def test_int_det_matches_fraction_det(self):
        rng = random.Random(5)
        for n in range(7):
            for _ in range(15):
                rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
                if n > 1 and rng.random() < 0.3:  # force some singular matrices
                    rows[-1] = [2 * x for x in rows[0]]
                expected = det(RatMatrix(n, n, [x for row in rows for x in row]))
                assert _intkernel.int_det([row[:] for row in rows]) == expected


def _rref_kernel_vector(g: DiGraph, sigma: RatMatrix) -> tuple:
    """The first kernel basis vector of the Fraction RREF of the restricted A."""
    a_res = restrict_A(build_A(sigma), g)
    sol = rref_solve(a_res, RatMatrix.zeros(a_res.rows, 1))
    return tuple(sol.kernel.col(0)) if sol.kind == AFFINE else ()


# the p = 5 rank-deficit graph of TestLazyStability
P5_DEFICIT = DiGraph(5, frozenset({(1, 2), (2, 1), (1, 3), (2, 3), (4, 3), (4, 5)}))
# P5_DEFICIT with the arc 6 -> 5: rank-deficit at every sample too
P6_DEFICIT = DiGraph(6, P5_DEFICIT.offdiag_edges | {(6, 5)})


class TestKernelVectorOracle:
    """Kernel vectors from the Bareiss echelon equal the Fraction RREF ones."""

    @pytest.mark.parametrize("g", [two_cycle_two_sinks(), P5_DEFICIT],
                             ids=["two_cycle_two_sinks", "p5_deficit"])
    def test_every_deficit_sample_matches_rref(self, g):
        vol = VolatilityMatrix.identity(g.p)
        for seed in range(5):
            cert = classify(g, vol, ClassifyConfig(seed=seed)).certificate
            assert cert.kind == RANK_DEFICIT_WITNESS
            for sample in cert.samples:
                assert sample.kernel_vector
                assert sample.kernel_vector == _rref_kernel_vector(g, sample.sigma)

    @pytest.mark.parametrize("q", [_intkernel.MOD_PRIME, 3])
    def test_p6_deficit_samples_match_rref(self, monkeypatch, q):
        # mod 3 most kernel vectors come from the full Bareiss pass instead
        # of the pivot-row solve; both must give the RREF vector
        monkeypatch.setattr(_intkernel, "MOD_PRIME", q)
        cert = classify(P6_DEFICIT, VolatilityMatrix.identity(6)).certificate
        assert cert.kind == RANK_DEFICIT_WITNESS
        assert len(cert.samples) == ClassifyConfig().trials
        for sample in cert.samples:
            assert sample.rank == P6_DEFICIT.num_edges - 1
            assert sample.kernel_vector
            assert sample.kernel_vector == _rref_kernel_vector(P6_DEFICIT, sample.sigma)


# the sampled catalog graphs, the p = 5 deficit graph, and a p = 3 graph with
# 8 edges, whose 6 x 8 restricted A has a kernel of dimension 2 or more at
# every sample
P3_EIGHT_EDGES = DiGraph(3, frozenset({(1, 2), (2, 1), (1, 3), (3, 1), (2, 3)}))
# two disjoint copies of two_cycle_two_sinks, the second on nodes 5..8: 20
# edges, within the edge-count bound 36 and the trek bound 36 - 16, and A_E
# has rank 18 at every sample, a kernel of dimension two
P8_TWO_DEFICITS = DiGraph(8, two_cycle_two_sinks().offdiag_edges
                          | {(i + 4, j + 4) for (i, j) in two_cycle_two_sinks().offdiag_edges})
# P3_EIGHT_EDGES with 3 -> 2 in place of 2 -> 3: at every sample of seeds
# 0-2, the stored vector of its two-dimensional kernel is not A_E's first
# RREF kernel vector
P3_EIGHT_EDGES_FLIPPED = DiGraph(3, frozenset({(1, 2), (1, 3), (2, 1), (3, 1), (3, 2)}))
H_ROUTE_GRAPHS = {
    **SAMPLED_CATALOG_GRAPHS,
    "p5_deficit": P5_DEFICIT,
    "p3_eight_edges": P3_EIGHT_EDGES,
}

# sha256 of the verdict JSON (sort_keys) of the sampling stage at seed 0 for
# the complete graphs, which have no non-edge rows of H
COMPLETE_GRAPH_VERDICT_SHA256 = {
    2: "ae52fe5d2fcfb8a0a2bc0774d77bf8b21b578e40abb4cf5e93b4f8030dc9cb73",
    3: "6829bc84efb5b009b099c83d7590025b7419f54398ca5f2255641d587c91c5ac",
}


def _count_h_route(monkeypatch) -> dict:
    """Count kernel vectors taken from H_nonE."""
    counts = {"from_h": 0}
    from_h = identifiability._kernel_from_h

    def counted_from_h(*args):
        counts["from_h"] += 1
        return from_h(*args)

    monkeypatch.setattr(identifiability, "_kernel_from_h", counted_from_h)
    return counts


class TestKernelRestrictionRanks:
    """Every rank is decided on H(N) restricted to the non-edges."""

    @pytest.mark.parametrize("name", sorted(H_ROUTE_GRAPHS))
    def test_matches_the_a_route_rank_and_kernel(self, name):
        g = H_ROUTE_GRAPHS[name]
        volatility, _ = identifiability._sampling_volatility(VolatilityMatrix.identity(g.p))
        for seed in range(3):
            rng = identifiability._derive_rng(seed, salt=g.p)
            for _ in range(3):
                m_rows = lyapunov._draw_drift_rows(g, rng, 2**20)
                sample = identifiability._rank_test_at_sample(g, m_rows, volatility)
                n_mat, _ = lyapunov._solve_sigma_scaled(m_rows, [list(r) for r in volatility[0]],
                                                        g.p)
                rank, kernel = _intkernel.rank_and_kernel(
                    lyapunov._a_rows(n_mat, g.edge_index()), g.num_edges)
                assert sample.rank == rank
                expected = () if kernel is None else tuple(
                    Fraction(v, kernel[1]) for v in kernel[0])
                assert sample.kernel_vector == expected

    def test_classify_past_both_bounds_takes_kernel_vectors_from_h(self, monkeypatch):
        g = P8_TWO_DEFICITS
        assert (g.num_edges, no_trek_pairs(g)) == (20, 16)
        counts = _count_h_route(monkeypatch)
        cert = classify(g, VolatilityMatrix.identity(8)).certificate
        assert cert.kind == RANK_DEFICIT_WITNESS
        assert counts == {"from_h": 5}
        assert [sample.rank for sample in cert.samples] == [18] * 5
        for sample in cert.samples:
            assert sample.kernel_vector == _rref_kernel_vector(g, sample.sigma)

    def test_kernel_of_dimension_two_comes_from_h(self, monkeypatch):
        counts = _count_h_route(monkeypatch)
        cert = _sampled(P3_EIGHT_EDGES, IDENTITY3, ClassifyConfig(seed=1)).certificate
        assert cert.kind == RANK_DEFICIT_WITNESS
        assert counts == {"from_h": len(cert.samples)}
        for sample in cert.samples:
            assert sample.rank <= 6
            assert sample.kernel_vector == _rref_kernel_vector(P3_EIGHT_EDGES, sample.sigma)

    @pytest.mark.parametrize("seed", range(3))
    def test_kernel_of_dimension_two_stores_the_image_of_h(self, seed):
        # past one dimension the kernel vector is x = H_E c over its last
        # nonzero entry, c the first RREF kernel vector of H_nonE: exactly in
        # the kernel of A_E, but not always A_E's own first RREF vector
        g = P3_EIGHT_EDGES_FLIPPED
        cert = _sampled(g, IDENTITY3, ClassifyConfig(seed=seed)).certificate
        assert cert.kind == RANK_DEFICIT_WITNESS
        assert len(cert.samples) == ClassifyConfig.trials
        edge_rows = [(i - 1) * g.p + j - 1 for (i, j) in g.edge_index()]
        for sample in cert.samples:
            a_e = restrict_A(build_A(sample.sigma), g)
            assert (g.num_edges, sample.rank) == (8, 6)
            assert sample.rank == rank(a_e)
            x = RatMatrix.column(sample.kernel_vector)
            assert any(x.entries)
            assert a_e @ x == RatMatrix.zeros(a_e.rows, 1)
            h = build_H(sample.sigma)
            h_non_e = restrict_H(h, g)
            c = rref_solve(h_non_e, RatMatrix.zeros(h_non_e.rows, 1)).kernel.col(0)
            h_e_c = (h.select_rows(edge_rows) @ RatMatrix.column(c)).entries
            last = next(v for v in reversed(h_e_c) if v)
            assert sample.kernel_vector == tuple(v / last for v in h_e_c)
            assert sample.kernel_vector != _rref_kernel_vector(g, sample.sigma)

    @pytest.mark.parametrize("p", [2, 3])
    def test_complete_graph_classifies_as_pinned(self, monkeypatch, p):
        # H_nonE has no rows, so rank 0 of its p(p-1)/2 columns: the kernel
        # of A_E is one-dimensional at p = 2 and three-dimensional at p = 3,
        # and every sample's kernel vector comes from H
        counts = _count_h_route(monkeypatch)
        verdict = _sampled(complete_graph(p), VolatilityMatrix.identity(p))
        body = json.dumps(verdict.to_json(), sort_keys=True).encode()
        assert hashlib.sha256(body).hexdigest() == COMPLETE_GRAPH_VERDICT_SHA256[p]
        assert counts == {"from_h": 5}

    def test_one_dimensional_kernels_come_from_h(self, monkeypatch):
        counts = _count_h_route(monkeypatch)
        cert = classify(P5_DEFICIT, VolatilityMatrix.identity(5)).certificate
        assert counts == {"from_h": 5}
        for sample in cert.samples:
            assert sample.kernel_vector == _rref_kernel_vector(P5_DEFICIT, sample.sigma)

    @pytest.mark.parametrize("p, stride", [(4, 1), (5, 11)])
    def test_screen_proofs_are_exact_full_ranks(self, p, stride):
        graphs, drifts, eye = _screen_batch(p, stride)
        proved = identifiability._screen_full_rank([g.mask for g in graphs], drifts, eye)
        assert sum(proved) > len(graphs) // 2
        for g, m_rows, full in zip(graphs, drifts, proved):
            if full:
                n_mat, _ = lyapunov._solve_sigma_scaled(m_rows, eye, p)
                a_rows = lyapunov._a_rows(n_mat, g.edge_index())
                assert _intkernel.rank_and_kernel(a_rows, g.num_edges)[0] == g.num_edges

    @pytest.mark.parametrize("q", [_intkernel.MOD_PRIME, 5, 3])
    @pytest.mark.parametrize("p, stride", [(4, 1), (5, 23)])
    def test_screen_flags_are_the_ranks_mod_q_graph_by_graph(self, monkeypatch, p, stride, q):
        # complete as well as sound: a flag is False only where K or H_nonE
        # loses rank mod q, so no graph goes to the exact path for nothing
        monkeypatch.setattr(_intkernel, "MOD_PRIME", q)
        graphs, drifts, eye = _screen_batch(p, stride)
        proved = identifiability._screen_full_rank([g.mask for g in graphs], drifts, eye)
        n, m = p * (p + 1) // 2, p * (p - 1) // 2
        expected, expected_k = [], []
        for g, m_rows in zip(graphs, drifts):
            k_rows, _ = lyapunov._vech_system(m_rows, eye)
            full = len(_intkernel.mod_echelon(k_rows)[0]) == n
            expected_k.append(full)
            if full:
                n_mat, d = lyapunov._solve_sigma_scaled(m_rows, eye, p)
                inv = pow(d, -1, q)  # d divides det K, a unit mod q
                sigma = [[x * inv % q for x in row] for row in n_mat]
                h_rows = lyapunov._h_rows(sigma, g.non_edges())
                full = len(_intkernel.mod_echelon(h_rows)[0]) == m
            expected.append(full)
        assert proved == expected
        assert {g.num_edges for g in graphs} == {
            g.num_edges for g in _screen_batch(p, 1)[0]}  # every sampled |E|
        if q == 5:
            # both flags, from both stages; mod 3 no p = 4 K here is nonsingular
            assert 0 < sum(proved) < sum(expected_k) < len(proved)

    def test_screen_of_zero_drifts_proves_nothing(self):
        graphs, drifts, eye = _screen_batch(5, 23)
        zeros = [[[0] * 5 for _ in range(5)] for _ in drifts]
        proved = identifiability._screen_full_rank([g.mask for g in graphs], zeros, eye)
        assert proved == [False] * len(graphs)

    def test_screen_makes_one_elimination_for_k_and_one_for_h(self, monkeypatch):
        calls = []
        gauss = _intkernel.mod_gauss

        def counted(stack, *args, **kwargs):
            calls.append(stack.shape)
            return gauss(stack, *args, **kwargs)

        monkeypatch.setattr(_intkernel, "mod_gauss", counted)
        graphs, drifts, eye = _screen_batch(5, 11)
        identifiability._screen_full_rank([g.mask for g in graphs], drifts, eye)
        # K is 15 x 16 with its right side, H has one row per off-diagonal arc
        assert calls == [(15, 16, len(graphs)), (20, 10, len(graphs))]


class TestClassifyConfig:
    def test_the_seed_is_the_only_setting(self):
        # a weak failure bound cannot be asked for: trials = 1 and bound = 1
        # gave p = 4 deficit verdicts stating a bound of 1.0, almost all wrong
        assert [f.name for f in dataclasses.fields(ClassifyConfig)] == ["seed"]
        for field in ("trials", "bound"):
            with pytest.raises(TypeError):
                ClassifyConfig(**{field: 1})

    @pytest.mark.parametrize("seed", [1.5, "7", True, None])
    def test_a_seed_that_is_not_an_int_is_refused(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            ClassifyConfig(seed=seed)

    @pytest.mark.parametrize("g, vol, cfg, refused", [
        *[(two_cycle_two_sinks(), IDENTITY4, cfg, "cfg must be a ClassifyConfig")
          for cfg in (0, 7, {"seed": 7})],
        (two_cycle_two_sinks(), RatMatrix.identity(4), None, "vol must be a VolatilityMatrix"),
        (two_cycle_two_sinks(), None, None, "vol must be a VolatilityMatrix"),
        (RatMatrix.identity(4), IDENTITY4, None, "g must be a DiGraph"),
    ], ids=["0", "7", "cfg2", "vol-RatMatrix", "vol-None", "g-RatMatrix"])
    def test_an_argument_of_the_wrong_type_is_refused(self, monkeypatch, g, vol, cfg, refused):
        # 0 is not read as "no cfg", nor 7 as a seed; refused before any work
        def refuse(*args):
            raise AssertionError("the cascade ran")

        monkeypatch.setattr(identifiability, "_classify_batch", refuse)
        with pytest.raises(ValueError, match=refused):
            classify(g, vol, cfg)

    @pytest.mark.parametrize("p", range(3, 11))
    def test_the_stated_bound_is_below_2_to_the_minus_40_up_to_p_9(self, p):
        degree = p**3 * (p + 1) // 2  # the largest sampled |E| times p^2
        bound = identifiability._failure_bound(degree, ClassifyConfig.bound,
                                               ClassifyConfig.trials)
        assert (bound < 2**-40) == (p <= 9)


class TestLazyStability:
    """Sampled drifts are stable by construction; nothing re-proves it."""

    def test_sampling_never_decides_stability(self, monkeypatch):
        # a 2-cycle on {1, 2} feeding the path 2 -> 3 -> 4 -> 5 is generically
        # identifiable; the 2-cycle and node 4 both feeding sink 3, plus
        # 4 -> 5, is rank-deficient at every sample
        graphs = [
            DiGraph(5, frozenset({(1, 2), (2, 1), (2, 3), (3, 4), (4, 5)})),
            DiGraph(5, frozenset({(1, 2), (2, 1), (1, 3), (2, 3), (4, 3), (4, 5)})),
        ]
        vol = VolatilityMatrix.identity(5)
        cfg = ClassifyConfig(seed=4)
        expected = [classify(g, vol, cfg).to_json() for g in graphs]

        def refuse(m):
            raise AssertionError("the sampling path decided stability")

        monkeypatch.setattr(lyapunov, "is_stable", refuse)
        assert [classify(g, vol, cfg).to_json() for g in graphs] == expected
        assert expected[0]["certificate"]["kind"] == FULL_RANK_WITNESS
        assert expected[1]["certificate"]["kind"] == RANK_DEFICIT_WITNESS

    def test_stability_is_decided_on_read(self):
        unstable = DriftMatrix(DiGraph(1), RatMatrix.from_rows([[1]]))
        assert unstable.stable is False
        with pytest.raises(NotStableError):
            solve_for_sigma(unstable, VolatilityMatrix.identity(1))


# Volatilities of the wrong size for p = 3: too small, non-diagonal, and diagonal.
WRONG_SIZE_VOLATILITIES = {
    "2x2": VolatilityMatrix(RatMatrix.from_rows([[2, 1], [1, 2]])),
    "4x4": VolatilityMatrix(RatMatrix.from_rows(
        [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]])),
    "identity4": IDENTITY4,
}


class TestVolatilitySize:
    """A volatility that is not p x p is refused, never truncated or read past."""

    @pytest.mark.parametrize("entry", [
        classify,
        lambda g, vol: identifiability._classify_batch([g], vol, [ClassifyConfig.seed]),
    ], ids=["classify", "_classify_batch"])
    # one graph for each stage that could decide first at p = 3: the
    # edge-count bound, the trek bound or sampling, and both theorem kinds
    @pytest.mark.parametrize("graph", [
        two_cycle(3), three_cycle(), complete_dag(3), complete_graph(3),
    ], ids=["non-simple", "simple", "dag", "over-bound"])
    @pytest.mark.parametrize("name", sorted(WRONG_SIZE_VOLATILITIES))
    def test_every_entry_point_raises(self, entry, graph, name):
        vol = WRONG_SIZE_VOLATILITIES[name]
        n = vol.p
        with pytest.raises(ValueError, match=f"volatility matrix is {n}x{n}, .* p = 3"):
            entry(graph, vol)

    def test_a_batch_with_one_graph_of_another_p_raises(self):
        graphs = [fan_in_two_cycle(), two_cycle_out_edge()]
        with pytest.raises(ValueError, match="volatility matrix is 4x4, .* p = 3"):
            identifiability._classify_batch(graphs, IDENTITY4, [ClassifyConfig.seed] * 2)


def _verdict_bytes(verdict) -> bytes:
    return json.dumps(verdict.to_json(), sort_keys=True).encode()


# Graphs per batch that reach sampling, the fewest for which the screen runs
SCREENED = identifiability._SCREEN_MIN_GRAPHS


def _screen_batch(p: int, stride: int):
    """Every stride-th p-node candidate that the counting bounds leave to
    sampling, with a drift for each and the identity volatility rows."""
    vol = VolatilityMatrix.identity(p)
    graphs = [g for g in enumerate_candidates(p)
              if identifiability._bound_verdict(g, vol) is None][::stride]
    drifts = [lyapunov._draw_drift_rows(g, identifiability._derive_rng(0, salt=p), 2**20)
              for g in graphs]
    eye = [[int(i == j) for j in range(p)] for i in range(p)]
    return graphs, drifts, eye


def _count_screens(monkeypatch) -> list[int]:
    """The number of graphs of each call of the screen, as it runs."""
    sizes = []
    screen = identifiability._screen_full_rank

    def counted(masks, *args):
        sizes.append(len(masks))
        return screen(masks, *args)

    monkeypatch.setattr(identifiability, "_screen_full_rank", counted)
    return sizes


class TestClassifyBatch:
    """The batched entry point with its modular screen against classify, byte for byte."""

    @pytest.mark.parametrize("p, stride", [(4, 1), (5, 16)])
    def test_matches_classify_on_sweep_candidates(self, p, stride):
        graphs = list(enumerate_candidates(p))[::stride]
        graphs *= -(-SCREENED // len(graphs))  # the p = 4 candidates over, so they screen
        vol = VolatilityMatrix.identity(p)
        cfgs = [ClassifyConfig(seed=derive_graph_seed(0, g)) for g in graphs]
        elapsed = []
        batch = identifiability._classify_batch(graphs, vol, [c.seed for c in cfgs], elapsed)
        assert len(elapsed) == len(graphs) and min(elapsed) >= 0
        screened = 0
        for g, cfg, verdict in zip(graphs, cfgs, batch):
            witness = verdict.certificate.witness
            screened += witness is not None and witness.solved is None
            assert _verdict_bytes(verdict) == _verdict_bytes(classify(g, vol, cfg))
        # every full-rank first sample but a handful is proved by the screen
        assert screened > 0.9 * len(graphs)

    def test_every_cascade_branch_alone_and_mixed(self, monkeypatch):
        rng = random.Random(3)
        diag = VolatilityMatrix(diagonal_matrix([2, 3, Fraction(1, 5)]))
        full = VolatilityMatrix(random_pd_matrix(3, rng))
        cases = [
            (two_cycle_out_edge(), IDENTITY3, ClassifyConfig(seed=1)),
            (two_cycle_out_edge(), IDENTITY3, ClassifyConfig(seed=2)),
            (two_cycle_out_edge(), diag, ClassifyConfig(seed=3)),
            (two_cycle_out_edge(), full, ClassifyConfig(seed=4)),
            (three_cycle(), full, ClassifyConfig()),
            (two_cycle(), VolatilityMatrix.identity(2), ClassifyConfig()),
            (fan_in_two_cycle(), IDENTITY4, ClassifyConfig()),
            (two_cycle_two_sinks(), IDENTITY4, ClassifyConfig(seed=5)),
        ]
        expected = [_verdict_bytes(classify(g, vol, cfg)) for g, vol, cfg in cases]
        screened = _count_screens(monkeypatch)
        # each case SCREENED times over, so every case that samples is screened
        for (g, vol, cfg), want in zip(cases, expected):
            batch = identifiability._classify_batch([g] * SCREENED, vol, [cfg.seed] * SCREENED)
            assert [_verdict_bytes(v) for v in batch] == [want] * SCREENED
        sampling = sum(1 for g, vol, cfg in cases if classify(g, vol, cfg).certificate.kind
                       in (FULL_RANK_WITNESS, RANK_DEFICIT_WITNESS))
        assert sampling >= 5 and screened == [SCREENED] * sampling
        # one volatility and one p per batch: mixed configurations under the identity
        for p in (2, 3, 4):
            vol = VolatilityMatrix.identity(p)
            mixed = [(g, cfg) for g, c, cfg in cases if g.p == p and c.matrix == vol.matrix]
            batch = identifiability._classify_batch(
                [g for g, _ in mixed], vol, [cfg.seed for _, cfg in mixed]
            )
            assert [_verdict_bytes(v) for v in batch] == [
                _verdict_bytes(classify(g, vol, cfg)) for g, cfg in mixed
            ]

    def test_the_screen_runs_from_the_minimum_of_sampled_graphs(self, monkeypatch):
        # p = 5, since the 78 sampled p = 4 candidates are fewer than SCREENED
        vol = VolatilityMatrix.identity(5)
        sampled = [g for g in enumerate_candidates(5)
                   if identifiability._bound_verdict(g, vol) is None][:SCREENED]
        seeds = [derive_graph_seed(0, g) for g in sampled]
        expected = [_verdict_bytes(classify(g, vol, ClassifyConfig(seed)))
                    for g, seed in zip(sampled, seeds)]
        simple = complete_dag(5)
        simple_bytes = _verdict_bytes(classify(simple, vol))

        def refuse(*args):
            raise AssertionError(f"the screen ran on fewer than {SCREENED} sampled graphs")

        # SCREENED graphs, of which all but one reach sampling: no screen
        monkeypatch.setattr(identifiability, "_screen_full_rank", refuse)
        batch = identifiability._classify_batch(
            sampled[:-1] + [simple], vol, seeds[:-1] + [ClassifyConfig.seed])
        assert [_verdict_bytes(v) for v in batch] == expected[:-1] + [simple_bytes]
        monkeypatch.undo()
        # SCREENED sampled graphs: one screen over all of them
        screened = _count_screens(monkeypatch)
        batch = identifiability._classify_batch(sampled, vol, seeds)
        assert screened == [SCREENED]
        assert [_verdict_bytes(v) for v in batch] == expected
        assert any(v.certificate.witness is not None and v.certificate.witness.solved is None
                   for v in batch)

    def test_empty_batch(self):
        assert identifiability._classify_batch([], IDENTITY3, []) == []

    def test_screened_witness_solves_sigma_once_on_read(self, monkeypatch):
        g, cfg = two_cycle_out_edge(), ClassifyConfig(seed=2)
        verdict = identifiability._classify_batch([g] * SCREENED, IDENTITY3,
                                                  [cfg.seed] * SCREENED)[0]
        witness = verdict.certificate.witness
        assert witness.solved is None
        solve = identifiability._solve_sigma_scaled
        calls = []

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(identifiability, "_solve_sigma_scaled", counted)
        sigma = witness.sigma
        assert witness.sigma is sigma and len(calls) == 1
        assert sigma == solve_for_sigma(DriftMatrix(g, witness.drift), IDENTITY3).matrix
        assert witness == classify(g, IDENTITY3, cfg).certificate.witness

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_the_builders_run_on_residue_vectors(self, p):
        """The screen's stacks of K and H, built from residue vectors, graph by
        graph against the scalar builders' integer rows reduced mod q."""
        q = _intkernel.MOD_PRIME
        n = p * (p + 1) // 2
        rng = random.Random(p)
        common = [0, 0, 1, -1, 2**20, -(2**20)]  # zero and repeated entries
        drifts = [[[rng.choice(common) if rng.random() < 0.4 else rng.randint(-(2**20), 2**20)
                    for _ in range(p)] for _ in range(p)] for _ in range(9)]
        drifts += [drifts[0], [[0] * p for _ in range(p)]]
        batch = len(drifts)
        eye = [[int(i == j) for j in range(p)] for i in range(p)]
        # non-diagonal, with entries past int64 that the stack reduces
        wide = [[2**70 + i if i == j else (i + j) % 3 - 1 for j in range(p)] for i in range(p)]
        s = np.array([[rng.randrange(q) for _ in range(batch)] for _ in range(n)])
        h_stack = identifiability._residue_stack(
            lyapunov._h_rows(lyapunov._unvech(s, p), lyapunov._all_edges(p)), batch)
        for c_rows in (eye, wide):
            drift_mod = np.array(drifts, dtype=np.int64).transpose(1, 2, 0) % q
            before = drift_mod.copy()
            k_rows, rhs = lyapunov._vech_system(drift_mod, c_rows)
            k_stack = identifiability._residue_stack(
                [row + [b] for row, b in zip(k_rows, rhs)], batch)
            assert (drift_mod == before).all()  # the builder wrote into no input
            for g, m in enumerate(drifts):
                k, b = lyapunov._vech_system(m, c_rows)
                assert k_stack[:, :, g].tolist() == [[x % q for x in row + [y]]
                                                     for row, y in zip(k, b)]
                h = lyapunov._h_rows(lyapunov._unvech(s[:, g].tolist(), p),
                                     lyapunov._all_edges(p))
                assert h_stack[:, :, g].tolist() == [[x % q for x in row] for row in h]


# P5_DEFICIT with the arc 3 -> 4: a full-rank witness at its first sample
P5_FULL_RANK = DiGraph(5, P5_DEFICIT.offdiag_edges | {(3, 4)})
_BITS_300 = 2**300


@st.composite
def _fraction_parts(draw):
    """(n, d), d > 0: zero, negative, multiples of d, d = 1 and 300-bit values."""
    d = draw(st.one_of(st.just(1), st.integers(1, 2**20), st.integers(1, _BITS_300)))
    n = draw(st.one_of(st.just(0), st.integers(-2**20, 2**20),
                       st.integers(-_BITS_300, _BITS_300),
                       st.integers(-2**20, 2**20).map(lambda k: k * d)))
    return n, d


def _sample_cases():
    """(name, sample) for every sample of the two deficit graphs and a p = 5
    full-rank witness, solved exactly and proved by the screen."""
    vol5 = VolatilityMatrix.identity(5)
    for name, g, vol in (("p5_deficit", P5_DEFICIT, vol5),
                         ("p4_deficit", two_cycle_two_sinks(), IDENTITY4)):
        for k, sample in enumerate(classify(g, vol).certificate.samples):
            yield f"{name}[{k}]", sample
    yield "exact_witness", classify(P5_FULL_RANK, vol5).certificate.witness
    batch = identifiability._classify_batch([P5_FULL_RANK] * SCREENED, vol5,
                                            [ClassifyConfig.seed] * SCREENED)
    yield "screened_witness", batch[0].certificate.witness


def _count_fraction_and_ratmatrix(monkeypatch) -> dict:
    """Count every Fraction and RatMatrix built while the patches hold."""
    counts = {"Fraction": 0, "RatMatrix": 0}
    new, init = Fraction.__new__, RatMatrix.__init__

    def counted_new(cls, *args, **kwargs):
        counts["Fraction"] += 1
        return new(cls, *args, **kwargs)

    def counted_init(self, *args):
        counts["RatMatrix"] += 1
        init(self, *args)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    monkeypatch.setattr(RatMatrix, "__init__", counted_init)
    return counts


class TestIntegerCertificates:
    """Certificates are written from integers; the Fraction views are read on demand."""

    @settings(max_examples=300, deadline=None)
    @given(_fraction_parts())
    @example((0, 1))
    @example((0, 7))
    @example((-12, 1))
    @example((-12, 4))
    @example((-(2**300) + 1, 2**299 + 3))
    @example((3 * (2**300 + 1), 2**300 + 1))
    def test_fraction_str_is_str_of_the_fraction(self, parts):
        n, d = parts
        assert identifiability._fraction_str(n, d) == str(Fraction(n, d))

    @pytest.mark.parametrize("name, sample", list(_sample_cases()),
                             ids=[name for name, _ in _sample_cases()])
    def test_to_json_writes_the_fraction_strings(self, name, sample):
        got = sample.to_json()
        if name == "screened_witness":
            assert sample.solved is None
        expected = {"drift": matrix_strings(sample.drift), "sigma": matrix_strings(sample.sigma),
                    "rank": sample.rank}
        if sample.kernel_vector:
            expected["kernel_vector"] = [str(x) for x in sample.kernel_vector]
        assert ("kernel_vector" in got) == name.endswith("]")
        assert got == expected

    @pytest.mark.parametrize("g", [P5_DEFICIT, P5_FULL_RANK], ids=["deficit", "full_rank"])
    def test_classify_to_json_builds_no_fraction(self, monkeypatch, g):
        vol, cfg = VolatilityMatrix.identity(5), ClassifyConfig(seed=3)
        counts = _count_fraction_and_ratmatrix(monkeypatch)
        verdict = classify(g, vol, cfg)
        verdict.to_json()
        assert counts == {"Fraction": 0, "RatMatrix": 0}
        monkeypatch.undo()
        cert = verdict.certificate
        samples = cert.samples or (cert.witness,)
        for sample in samples:
            assert [list(r) for r in sample.drift_rows] == sample.drift.to_lists()
            drift = DriftMatrix(g, sample.drift)
            assert sample.sigma == solve_for_sigma(drift, vol).matrix
            assert sample.kernel_vector == _rref_kernel_vector(g, sample.sigma)
        # equality follows the value, whichever views were read
        again = classify(g, vol, cfg).certificate
        assert again == cert and hash(again) == hash(cert)
        if cert.samples:
            first = cert.samples[0]
            nums, den = first.kernel
            assert dataclasses.replace(first, solved=None) == first
            assert dataclasses.replace(first, kernel=((-nums[0], *nums[1:]), den)) != first

    def test_a_sweep_chunk_builds_no_fraction(self, monkeypatch):
        # the sweep's identity volatility is built once per p and cached
        VolatilityMatrix.identity(4)
        chunk = (4, 0, _candidate_masks(4, EnumPolicy()))
        counts = _count_fraction_and_ratmatrix(monkeypatch)
        rows = sweep._classify_chunk(chunk)
        assert counts == {"Fraction": 0, "RatMatrix": 0}
        assert sum(row.witness_sigma is not None for row in rows) == 1

