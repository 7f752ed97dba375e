"""Tests for the Lyapunov solver, the A/H builders, fibers, and sampling."""

import math
import random
from fractions import Fraction

import pytest

from lyapid import _intkernel, lyapunov
from lyapid.catalog import (
    complete_dag,
    fan_in_two_cycle,
    three_cycle,
    two_cycle_out_edge,
)
from lyapid.graphs import DiGraph
from lyapid.linalg import RatMatrix, det, is_positive_definite, rank, vech
from lyapid.lyapunov import (
    CovMatrix,
    DriftMatrix,
    NotStableError,
    VolatilityMatrix,
    _solve_sigma_scaled,
    build_A,
    build_H,
    is_stable,
    fiber,
    restrict_A,
    restrict_H,
    sample_stable_drift,
    solve_for_sigma,
)

from _oracles import (
    atilde,
    build_A_product,
    complete_graph,
    has_trek,
    hstack,
    random_pd_matrix,
    random_volatility,
    scale,
    skew_to_drift,
    sub,
    trace,
    two_cycle,
    vec,
)
from _rref import rref_solve


def _kron_sum_rows(m_rows: list[list]) -> list[list]:
    """Rows of I (x) M + M (x) I in vec ordering."""
    p = len(m_rows)
    n = p * p
    rows = [[0] * n for _ in range(n)]
    for c in range(p):
        base = c * p
        for r in range(p):
            row = rows[base + r]
            for r2 in range(p):
                row[base + r2] += m_rows[r][r2]
            for c2 in range(p):
                row[c2 * p + r] += m_rows[c][c2]
    return rows


def kronecker_sum(m: RatMatrix) -> RatMatrix:
    """I_p (x) M + M (x) I_p, the coefficient matrix of vec(Sigma)."""
    n = m.rows * m.rows
    return RatMatrix(n, n, [x for row in _kron_sum_rows(m.to_lists()) for x in row])

# A symmetric 3x3 with distinct entries; the builders are entrywise linear
# in Sigma, so checking them at one such point checks the formulas.
S = RatMatrix.from_rows([[2, 3, 5], [3, 7, 11], [5, 11, 13]])
s11, s12, s13, s22, s23, s33 = 2, 3, 5, 7, 11, 13


class TestModelTypes:
    def test_drift_support_enforced(self):
        # edge 1->2 addresses m_21: a nonzero m_12 needs edge 2->1
        m = RatMatrix.from_rows([[-1, 1], [0, -1]])
        with pytest.raises(ValueError):
            DriftMatrix(DiGraph(2), m)
        d = DriftMatrix(DiGraph(2, frozenset({(2, 1)})), m)
        assert d.stable

    def test_from_matrix_infers_support(self):
        m = RatMatrix.from_rows([[-2, 0], [3, -4]])
        d = DriftMatrix.from_matrix(m)
        assert d.graph.offdiag_edges == frozenset({(1, 2)})

    def test_volatility_requires_pd(self):
        with pytest.raises(ValueError):
            VolatilityMatrix(RatMatrix.from_rows([[1, 2], [2, 1]]))

    def test_volatility_diagonal_flag(self):
        assert VolatilityMatrix.identity(3).diagonal
        assert not VolatilityMatrix(RatMatrix.from_rows([[2, 1], [1, 2]])).diagonal

    def test_cov_requires_pd(self):
        with pytest.raises(ValueError):
            CovMatrix(RatMatrix.from_rows([[0, 0], [0, 1]]))

    @pytest.mark.parametrize("cls, name", [(VolatilityMatrix, "volatility"),
                                           (CovMatrix, "covariance")])
    @pytest.mark.parametrize("rows", [[[2, 1], [0, 2]], [[1, 0]]],
                             ids=["non-symmetric", "non-square"])
    def test_a_non_symmetric_matrix_is_refused_by_name(self, cls, name, rows):
        with pytest.raises(ValueError, match=f"^{name} matrix must be symmetric positive"):
            cls(RatMatrix.from_rows(rows))

    # a size is an identity matrix of that size
    @pytest.mark.parametrize("sigma, g, vol, refused", [
        (3, DiGraph(2), 2, "sigma is 3x3 .* p = 2"),
        (2, DiGraph(2), 3, "sigma is 2x2 .* p = 2"),
        (3, DiGraph(2), 3, "sigma is 3x3 .* p = 2"),
        (RatMatrix.identity(3), three_cycle(), 3, "sigma must be a CovMatrix"),
        (3, RatMatrix.identity(3), 3, "g must be a DiGraph"),
        (3, three_cycle(), None, "vol must be a VolatilityMatrix"),
    ], ids=["3-2", "2-3", "3-3", "sigma-RatMatrix", "g-RatMatrix", "vol-None"])
    def test_fiber_refuses_arguments_of_another_size_or_type(self, sigma, g, vol, refused):
        if isinstance(sigma, int):
            sigma = CovMatrix(RatMatrix.identity(sigma))
        if isinstance(vol, int):
            vol = VolatilityMatrix.identity(vol)
        with pytest.raises(ValueError, match=refused):
            fiber(sigma, g, vol)


class TestSolveForSigma:
    def test_scalar(self):
        d = DriftMatrix.from_matrix(RatMatrix.from_rows([[-1]]))
        vol = VolatilityMatrix(RatMatrix.from_rows([[2]]))
        assert solve_for_sigma(d, vol).matrix == RatMatrix.from_rows([[1]])

    def test_negated_identity_halves_volatility(self):
        rng = random.Random(2)
        for p in (2, 3, 4):
            sigma0 = random_pd_matrix(p, rng)
            d = DriftMatrix.from_matrix(-RatMatrix.identity(p))
            vol = VolatilityMatrix(scale(sigma0, 2))
            assert solve_for_sigma(d, vol).matrix == sigma0

    def test_isolated_node_row(self):
        # isolated node p: Sigma_pp = -1/(2 m_pp), rest of row/column zero
        g = two_cycle(3)
        rng = random.Random(4)
        for _ in range(20):
            d = sample_stable_drift(g, rng, bound=7)
            sigma = solve_for_sigma(d, VolatilityMatrix.identity(3)).matrix
            m_pp = d.matrix[2, 2]
            assert sigma[2, 2] == Fraction(-1, 2) / m_pp
            assert sigma[0, 2] == sigma[1, 2] == 0

    def test_exact_residual_zero(self):
        rng = random.Random(6)
        for _ in range(30):
            p = rng.choice([2, 3, 4, 5])
            d = sample_stable_drift(complete_graph(p), rng, bound=9)
            vol = random_volatility(p, rng)
            sigma = solve_for_sigma(d, vol).matrix
            m = d.matrix
            residual = m @ sigma + sigma @ m.transpose() + vol.matrix
            assert all(x == 0 for x in residual.entries)

    def test_rejects_unstable(self):
        g = DiGraph(1)
        m = RatMatrix.from_rows([[1]])
        d = DriftMatrix(g, m)
        with pytest.raises(NotStableError):
            solve_for_sigma(d, VolatilityMatrix.identity(1))

    def test_solution_is_positive_definite(self):
        # CovMatrix construction validates positive definiteness exactly
        rng = random.Random(8)
        for _ in range(20):
            p = rng.choice([2, 3, 4])
            d = sample_stable_drift(complete_graph(p), rng, bound=5)
            vol = random_volatility(p, rng, diagonal=rng.random() < 0.5)
            assert isinstance(solve_for_sigma(d, vol), CovMatrix)


# Drifts at the edge of the stable region: (rows, stable).  The unstable
# ones with two eigenvalues summing to zero make the Lyapunov system
# singular; "fractions-unstable" has a nonsingular system whose solution is
# not positive definite.
BORDERLINE_DRIFTS = {
    "nilpotent": ([[0, 1], [0, 0]], False),
    "imaginary-pair": ([[0, 1], [-1, 0]], False),
    "eigenvalues-sum-to-zero": ([[1, 0], [0, -1]], False),
    "zero-scalar": ([[0]], False),
    "stable-non-normal": ([[-1, 1000], [0, -1]], True),
    "stable-complex-pair": ([[-1, 5], [-5, -1]], True),
    "fractions-stable": (
        [[Fraction(-1, 2), Fraction(1, 3)], [Fraction(-7, 4), Fraction(-2, 5)]],
        True,
    ),
    "fractions-unstable": ([[Fraction(1, 2), Fraction(1, 3)], [0, Fraction(-1, 3)]], False),
}


class TestStabilityDecidedBySolve:
    """is_stable and solve_for_sigma make the same decision."""

    @pytest.mark.parametrize("name", sorted(BORDERLINE_DRIFTS))
    def test_borderline_drifts(self, name):
        rows, stable = BORDERLINE_DRIFTS[name]
        m = RatMatrix.from_rows(rows)
        drift = DriftMatrix.from_matrix(m)
        assert is_stable(m) is stable
        assert drift.stable is stable
        p = m.rows
        for vol in (VolatilityMatrix.identity(p), random_volatility(p, random.Random(p))):
            if stable:
                sigma = solve_for_sigma(drift, vol).matrix
                residual = m @ sigma + sigma @ m.transpose() + vol.matrix
                assert all(x == 0 for x in residual.entries)
            else:
                with pytest.raises(NotStableError):
                    solve_for_sigma(drift, vol)

    def test_agree_on_small_integer_drifts(self):
        # Entries in [-2, 2] hit singular systems and non-PD solutions often.
        rng = random.Random(57)
        outcomes = set()
        for _ in range(300):
            p = rng.randint(1, 3)
            m = RatMatrix(p, p, [Fraction(rng.randint(-2, 2)) for _ in range(p * p)])
            vol = random_volatility(p, rng)
            try:
                solve_for_sigma(DriftMatrix.from_matrix(m), vol)
                solved = True
            except NotStableError:
                solved = False
            assert is_stable(m) is solved
            outcomes.add(solved)
        assert outcomes == {True, False}

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            is_stable(RatMatrix.zeros(2, 3))


class TestBuildA:
    def test_three_node_display(self):
        expected = RatMatrix.from_rows(
            [
                [2 * s11, 0, 0, 2 * s12, 0, 0, 2 * s13, 0, 0],
                [s12, s11, 0, s22, s12, 0, s23, s13, 0],
                [s13, 0, s11, s23, 0, s12, s33, 0, s13],
                [0, 2 * s12, 0, 0, 2 * s22, 0, 0, 2 * s23, 0],
                [0, s13, s12, 0, s23, s22, 0, s33, s23],
                [0, 0, 2 * s13, 0, 0, 2 * s23, 0, 0, 2 * s33],
            ]
        )
        assert build_A(S) == expected

    def test_identity_case_gives_symmetrized_vech(self):
        rng = random.Random(10)
        for p in (2, 3, 4):
            eye = RatMatrix.identity(p)
            a = build_A(eye)
            for _ in range(20):
                m = RatMatrix(
                    p, p, [Fraction(rng.randint(-9, 9)) for _ in range(p * p)]
                )
                assert a @ vec(m) == vech(m + m.transpose())

    def test_linearizes_the_equation(self):
        rng = random.Random(12)
        for _ in range(100):
            p = rng.choice([2, 3, 4, 5])
            sigma = random_pd_matrix(p, rng)
            m = RatMatrix(p, p, [Fraction(rng.randint(-9, 9)) for _ in range(p * p)])
            lhs = build_A(sigma) @ vec(m)
            rhs = vech(m @ sigma + sigma @ m.transpose())
            assert lhs == rhs

    def test_matches_product_construction(self):
        rng = random.Random(14)
        for _ in range(50):
            p = rng.choice([2, 3, 4, 5])
            sigma = random_pd_matrix(p, rng)
            assert build_A(sigma) == build_A_product(sigma)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            build_A(RatMatrix.from_rows([[1, 2], [0, 1]]))


class TestOracles:
    """The tests' own generators and cross-check constructions."""

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_random_pd_matrix_is_positive_definite(self, p):
        rng = random.Random(16 + p)
        for _ in range(50):
            s = random_pd_matrix(p, rng)
            assert s.is_symmetric() and is_positive_definite(s)

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_random_volatility_is_positive_definite(self, diagonal):
        rng = random.Random(17)
        for p in range(2, 6):
            vol = random_volatility(p, rng, diagonal=diagonal)
            assert is_positive_definite(vol.matrix)
            assert vol.diagonal or not diagonal

    def test_atilde_maps_model_drift_to_volatility(self):
        # atilde(Sigma) vec(M) = vec(M Sigma + Sigma M^T) = -vec(C) at a model
        # point, and its kernel {K Sigma^-1 : K skew} has dimension p(p-1)/2
        rng = random.Random(18)
        for p in range(2, 6):
            for _ in range(5):
                drift = sample_stable_drift(complete_graph(p), rng, bound=6)
                vol = random_volatility(p, rng)
                sigma = solve_for_sigma(drift, vol).matrix
                at = atilde(sigma)
                assert at @ vec(drift.matrix) == -vec(vol.matrix)
                assert rank(at) == p * (p + 1) // 2


class TestRestrictA:
    def test_three_cycle_display(self):
        expected = RatMatrix.from_rows(
            [
                [2 * s11, 0, 0, 0, 2 * s13, 0],
                [s12, s11, s12, 0, s23, 0],
                [s13, 0, 0, s12, s33, s13],
                [0, 2 * s12, 2 * s22, 0, 0, 0],
                [0, s13, s23, s22, 0, s23],
                [0, 0, 0, 2 * s23, 0, 2 * s33],
            ]
        )
        assert restrict_A(build_A(S), three_cycle()) == expected

    def test_complete_dag_display(self):
        expected = RatMatrix.from_rows(
            [
                [2 * s11, 2 * s12, 0, 2 * s13, 0, 0],
                [s12, s22, s12, s23, s13, 0],
                [s13, s23, 0, s33, 0, s13],
                [0, 0, 2 * s22, 0, 2 * s23, 0],
                [0, 0, s23, 0, s33, s23],
                [0, 0, 0, 0, 0, 2 * s33],
            ]
        )
        assert restrict_A(build_A(S), complete_dag(3)) == expected

    def test_column_count_is_edge_count(self):
        for g in (three_cycle(), complete_dag(4), two_cycle_out_edge()):
            a = restrict_A(build_A(RatMatrix.identity(g.p)), g)
            assert a.cols == g.num_edges


class TestBuildH:
    def test_three_node_display_columns(self):
        h = build_H(S)
        assert h.shape == (9, 3)
        col_12 = (-s12, -s22, -s23, s11, s12, s13, 0, 0, 0)
        col_13 = (-s13, -s23, -s33, 0, 0, 0, s11, s12, s13)
        col_23 = (0, 0, 0, -s13, -s23, -s33, s12, s22, s23)
        # columns ordered lexicographically by (k, l)
        assert h.col(0) == col_12
        assert h.col(1) == col_13
        assert h.col(2) == col_23

    def test_columns_span_kernel(self):
        rng = random.Random(16)
        for _ in range(100):
            p = rng.choice([2, 3, 4, 5])
            sigma = random_pd_matrix(p, rng)
            a = build_A(sigma)
            h = build_H(sigma)
            assert all(x == 0 for x in (a @ h).entries)
            assert rank(h) == p * (p - 1) // 2

    def test_rank_sum(self):
        rng = random.Random(18)
        for _ in range(30):
            p = rng.choice([2, 3, 4, 5])
            sigma = random_pd_matrix(p, rng)
            assert rank(build_A(sigma)) + rank(build_H(sigma)) == p * p


class TestRestrictH:
    def test_dag_restriction_determinant(self):
        # polynomial identity, sign fixed by the lexicographic basis order
        res = restrict_H(build_H(S), complete_dag(3))
        assert det(res) == -(s33 * (s22 * s33 - s23 * s23))
        # at positive definite points the absolute value is the minor product
        rng = random.Random(99)
        for _ in range(20):
            sig = random_pd_matrix(3, rng)
            value = det(restrict_H(build_H(sig), complete_dag(3)))
            assert abs(value) == sig[2, 2] * (
                sig[1, 1] * sig[2, 2] - sig[1, 2] * sig[1, 2]
            )

    def test_three_cycle_restriction_determinant(self):
        res = restrict_H(build_H(S), three_cycle())
        assert abs(det(res)) == s11 * s22 * s33 - s12 * s13 * s23

    def test_two_cycle_out_edge_restriction_determinant(self):
        # with lexicographic basis columns the sign comes out negative
        res = restrict_H(build_H(S), two_cycle_out_edge())
        assert det(res) == -(s23 * (s11 * s22 - s12 * s12))
        assert abs(det(res)) == s23 * (s11 * s22 - s12 * s12)

    def test_two_cycle_isolated_node_restriction(self):
        # non-edges (1,3), (2,3), (3,1), (3,2) of the 2-cycle plus a third
        # node; the restriction is rank deficient iff S13 = S23 = 0
        res = restrict_H(build_H(S), two_cycle(3))
        expected = RatMatrix.from_rows(
            [
                [-s23, -s33, 0],
                [s13, 0, -s33],
                [0, s11, s12],
                [0, s12, s22],
            ]
        )
        assert res == expected
        zeroed = RatMatrix.from_rows([[2, 3, 0], [3, 7, 0], [0, 0, 13]])
        assert rank(restrict_H(build_H(zeroed), two_cycle(3))) < 3
        assert rank(res) == 3

    def test_row_count_is_non_edge_count(self):
        g = two_cycle_out_edge()
        res = restrict_H(build_H(RatMatrix.identity(3)), g)
        assert res.shape == (9 - g.num_edges, 3)


class TestFiber:
    def test_three_cycle_unique_recovery(self):
        rng = random.Random(20)
        g = three_cycle()
        vol = VolatilityMatrix.identity(3)
        for _ in range(20):
            d = sample_stable_drift(g, rng, bound=9)
            sigma = solve_for_sigma(d, vol)
            result = fiber(sigma, g, vol)
            assert result.kind == "unique"
            assert result.drift.matrix == d.matrix

    def test_two_cycle_affine_dimension_one(self):
        rng = random.Random(22)
        g = two_cycle()
        vol = VolatilityMatrix.identity(2)
        d = sample_stable_drift(g, rng, bound=9)
        sigma = solve_for_sigma(d, vol)
        result = fiber(sigma, g, vol)
        assert result.kind == "affine"
        assert result.dim == 1
        # the particular solution really solves the restricted system
        a_res = restrict_A(build_A(sigma), g)
        assert a_res @ result.particular == -vech(vol.matrix)

    def test_off_model_sigma_inconsistent(self):
        # perturb a model point of a sparse DAG off the model; the
        # augmented-rank criterion is the oracle for inconsistency
        g = DiGraph(3, frozenset({(2, 1)}))
        vol = VolatilityMatrix.identity(3)
        rng = random.Random(24)
        found_inconsistent = 0
        for _ in range(20):
            d = sample_stable_drift(g, rng, bound=5)
            sigma = solve_for_sigma(d, vol).matrix
            bump = Fraction(1, 7)
            ent = list(sigma.entries)
            ent[0 * 3 + 2] += bump
            ent[2 * 3 + 0] += bump
            perturbed = RatMatrix(3, 3, ent)
            try:
                cov = CovMatrix(perturbed)
            except ValueError:
                continue
            a_res = restrict_A(build_A(cov), g)
            rhs = -vech(vol.matrix)
            consistent = rank(hstack(a_res, rhs)) == rank(a_res)
            result = fiber(cov, g, vol)
            assert (result.kind == "inconsistent") == (not consistent)
            if result.kind == "inconsistent":
                found_inconsistent += 1
        assert found_inconsistent > 0

    def test_json_serialization(self):
        rng = random.Random(26)
        g = two_cycle()
        vol = VolatilityMatrix.identity(2)
        sigma = solve_for_sigma(sample_stable_drift(g, rng, bound=5), vol)
        data = fiber(sigma, g, vol).to_json()
        assert data["kind"] == "affine"
        assert data["dim"] == 1
        assert len(data["particular"]) == g.num_edges


class TestSkewParametrization:
    def test_zero_skew_half_volatility(self):
        rng = random.Random(28)
        for p in (2, 3, 4):
            c = random_pd_matrix(p, rng)
            vol = VolatilityMatrix(c)
            sigma = CovMatrix(scale(c, Fraction(1, 2)))
            m = skew_to_drift(RatMatrix.zeros(p, p), sigma, vol)
            assert m == -RatMatrix.identity(p)

    def test_output_solves_equation(self):
        rng = random.Random(30)
        for _ in range(100):
            p = rng.choice([2, 3, 4])
            skew = [[Fraction(0)] * p for _ in range(p)]
            for i in range(p):
                for j in range(i + 1, p):
                    v = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                    skew[i][j] = v
                    skew[j][i] = -v
            k = RatMatrix(p, p, [x for row in skew for x in row])
            sigma = CovMatrix(random_pd_matrix(p, rng))
            vol = random_volatility(p, rng)
            m = skew_to_drift(k, sigma, vol)
            residual = m @ sigma.matrix + sigma.matrix @ m.transpose() + vol.matrix
            assert all(x == 0 for x in residual.entries)

    def test_difference_of_solutions_trace_condition(self):
        rng = random.Random(32)
        for _ in range(30):
            p = rng.choice([2, 3])
            sigma = CovMatrix(random_pd_matrix(p, rng))
            vol = random_volatility(p, rng)
            ks = []
            for _ in range(2):
                skew = [[Fraction(0)] * p for _ in range(p)]
                for i in range(p):
                    for j in range(i + 1, p):
                        v = Fraction(rng.randint(-5, 5))
                        skew[i][j] = v
                        skew[j][i] = -v
                ks.append(RatMatrix(p, p, [x for row in skew for x in row]))
            m1 = skew_to_drift(ks[0], sigma, vol)
            m2 = skew_to_drift(ks[1], sigma, vol)
            diff = sub(m1, m2)
            assert trace(diff @ diff) <= 0

    def test_rejects_non_skew(self):
        sigma = CovMatrix(RatMatrix.identity(2))
        vol = VolatilityMatrix.identity(2)
        with pytest.raises(ValueError):
            skew_to_drift(RatMatrix.identity(2), sigma, vol)


class TestOracleAgreement:
    """fiber equals its value from the Fraction RREF oracle."""

    def test_fiber_matches_oracle(self):
        rng = random.Random(71)
        kinds = set()
        for _ in range(80):
            p = rng.choice([2, 3, 4])
            arcs = [(i, j) for i in range(1, p + 1) for j in range(1, p + 1) if i != j]
            g = DiGraph(p, frozenset(e for e in arcs if rng.random() < 0.5))
            # a drift on the complete graph is usually off g's model
            source = g if rng.random() < 0.5 else complete_graph(p)
            vol = random_volatility(p, rng)
            sigma = solve_for_sigma(sample_stable_drift(source, rng, bound=5), vol)
            result = fiber(sigma, g, vol)
            sol = rref_solve(restrict_A(build_A(sigma), g), -vech(vol.matrix))
            kinds.add(sol.kind)
            assert result.kind == sol.kind
            if sol.kind == "unique":
                drift = result.drift.matrix
                assert [drift[j - 1, i - 1] for (i, j) in g.edge_index()] == list(
                    sol.particular.col(0))
            elif sol.kind == "affine":
                assert (result.particular, result.kernel_basis) == (sol.particular, sol.kernel)
        assert kinds == {"unique", "affine", "inconsistent"}


class TestSampleStableDrift:
    def test_always_stable(self):
        rng = random.Random(34)
        for _ in range(100):
            p = rng.choice([2, 3, 4, 5])
            g = complete_graph(p)
            assert sample_stable_drift(g, rng, bound=9).stable

    def test_support_matches_graph(self):
        rng = random.Random(36)
        g = two_cycle_out_edge()
        for _ in range(100):
            d = sample_stable_drift(g, rng, bound=2**20)
            m = d.matrix
            for i in range(1, 4):
                for j in range(1, 4):
                    if (i, j) not in g.edges:
                        assert m[j - 1, i - 1] == 0
                    elif i != j:
                        assert m[j - 1, i - 1] != 0

    def test_distinct_seeds_distinct_matrices(self):
        g = complete_graph(3)
        drifts = [sample_stable_drift(g, seed, bound=2**20).matrix for seed in range(100)]
        distinct_pairs = sum(
            1
            for a in range(100)
            for b in range(a + 1, 100)
            if drifts[a] != drifts[b]
        )
        assert distinct_pairs >= 99 * 100 // 2  # all pairs in practice

    @pytest.mark.parametrize("bound", [0, -3, 1.5, True, "3"])
    def test_a_bound_that_is_not_a_positive_int_is_refused(self, bound):
        with pytest.raises(ValueError, match="bound must be an integer >= 1"):
            sample_stable_drift(two_cycle_out_edge(), 0, bound=bound)

    def test_rows_are_the_drawn_integers(self):
        # sample_stable_drift wraps _draw_drift_rows: same stream, same entries
        g = two_cycle_out_edge()
        for bound in (1, 9, 2**80):
            rows = lyapunov._draw_drift_rows(g, random.Random(5), bound)
            drift = sample_stable_drift(g, random.Random(5), bound=bound)
            assert drift.matrix == RatMatrix.from_rows(rows)
            assert all(type(x) is int for row in rows for x in row)

    @pytest.mark.parametrize("bound", [1, 2, 7, 2**20, 2**80 + 3])
    def test_draws_are_the_randint_draws(self, bound):
        # the reference: the same draws spelled with rng.randint
        def by_randint(g, rng):
            p = g.p
            rows = [[0] * p for _ in range(p)]
            for (i, j) in g.edge_index():
                if i != j:
                    rows[j - 1][i - 1] = rng.randint(-bound, bound)
            for i in range(p):
                row_sum = sum(abs(v) for jj, v in enumerate(rows[i]) if jj != i)
                rows[i][i] = -(row_sum + 1 + rng.randint(0, bound))
            return rows

        for g in (two_cycle(), two_cycle_out_edge(), fan_in_two_cycle(), complete_graph(5)):
            for seed in range(20):
                drawn_rng, reference_rng = random.Random(seed), random.Random(seed)
                assert lyapunov._draw_drift_rows(g, drawn_rng, bound) == by_randint(
                    g, reference_rng)
                # both streams end in the same state
                assert drawn_rng.random() == reference_rng.random()

    def test_deterministic_given_seed(self):
        g = complete_graph(4)
        assert (
            sample_stable_drift(g, 123, bound=50).matrix
            == sample_stable_drift(g, 123, bound=50).matrix
        )


class TestModelInvariants:
    def test_round_trip_on_simple_graphs(self):
        rng = random.Random(38)
        for g in (three_cycle(), complete_dag(4)):
            vol = VolatilityMatrix.identity(g.p)
            for _ in range(10):
                d = sample_stable_drift(g, rng, bound=9)
                result = fiber(solve_for_sigma(d, vol), g, vol)
                assert result.kind == "unique"
                assert result.drift.matrix == d.matrix

    def test_scaling_invariance(self):
        rng = random.Random(40)
        for _ in range(50):
            p = rng.choice([2, 3])
            d = sample_stable_drift(complete_graph(p), rng, bound=6)
            vol = random_volatility(p, rng)
            sigma = solve_for_sigma(d, vol).matrix
            gamma = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            m2 = scale(d.matrix, gamma)
            c2 = scale(vol.matrix, gamma)
            residual = m2 @ sigma + sigma @ m2.transpose() + c2
            assert all(x == 0 for x in residual.entries)

    def test_trek_vanishing(self):
        rng = random.Random(42)
        g = fan_in_two_cycle()
        vol = VolatilityMatrix.identity(4)
        assert not has_trek(g, 2, 4) and not has_trek(g, 3, 4)
        for _ in range(30):
            d = sample_stable_drift(g, rng, bound=9)
            sigma = solve_for_sigma(d, vol).matrix
            assert sigma[1, 3] == 0 and sigma[2, 3] == 0

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_no_trek_pairs_have_zero_covariance(self, p):
        # random digraphs under a random diagonal C: every pair with no trek
        # has zero covariance, which is what makes the trek bound sound
        rng = random.Random(40 + p)
        checked = 0
        for _ in range(40):
            g = DiGraph(p, frozenset((i, j) for i in range(1, p + 1)
                                     for j in range(1, p + 1) if i != j and rng.random() < 0.25))
            no_trek = [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)
                       if not has_trek(g, i, j)]
            if not no_trek:
                continue
            d = sample_stable_drift(g, rng, bound=9)
            sigma = solve_for_sigma(d, random_volatility(p, rng, diagonal=True)).matrix
            assert all(sigma[i - 1, j - 1] == 0 for (i, j) in no_trek), g
            checked += 1
        assert checked >= 15

    def test_transpose_kernel_vectors(self):
        rng = random.Random(44)
        for _ in range(20):
            p = rng.choice([2, 3, 4, 5])
            sigma = random_pd_matrix(p, rng)
            at_t = atilde(sigma).transpose()
            for k in range(p):
                for l in range(k + 1, p):
                    skew = [[Fraction(0)] * p for _ in range(p)]
                    skew[k][l] = Fraction(1)
                    skew[l][k] = Fraction(-1)
                    v = vec(RatMatrix(p, p, [x for row in skew for x in row]))
                    assert all(x == 0 for x in (at_t @ v).entries)

    def test_singular_sigma_kills_square_restrictions(self):
        # for |E| = p(p+1)/2 the restriction determinant vanishes at every
        # singular symmetric Sigma
        rng = random.Random(46)
        graphs = [complete_dag(3), two_cycle_out_edge(), complete_dag(4)]
        for g in graphs:
            assert g.num_edges == g.p * (g.p + 1) // 2
            p = g.p
            for _ in range(20):
                v = [[Fraction(rng.randint(-5, 5)) for _ in range(p - 1)] for _ in range(p)]
                singular = RatMatrix(
                    p,
                    p,
                    [
                        sum(v[i][t] * v[j][t] for t in range(p - 1))
                        for i in range(p)
                        for j in range(p)
                    ],
                )
                assert det(singular) == 0
                assert det(restrict_A(build_A(singular), g)) == 0

    def test_kronecker_sum_structure(self):
        rng = random.Random(48)
        m = RatMatrix(3, 3, [Fraction(rng.randint(-5, 5)) for _ in range(9)])
        sigma = random_pd_matrix(3, rng)
        # vec(M Sigma + Sigma M^T) = (I kron M + M kron I) vec(Sigma) for symmetric Sigma
        lhs = kronecker_sum(m) @ vec(sigma)
        rhs = vec(m @ sigma + sigma @ m.transpose())
        assert lhs == rhs


class TestSolveSigmaScaled:
    """The vech(Sigma) solve against the full Kronecker-sum system."""

    # Stable drifts with several strong components, so that the vech system
    # splits into several diagonal blocks, and with zero diagonal entries;
    # each with its number of blocks.  Up to a node permutation each drift
    # is block triangular with diagonally dominant or 2 x 2 diagonal blocks
    # of negative trace and positive determinant, so it is stable.
    SPARSE_DRIFTS = [
        ([[-3, 0, 0, 0], [2, -5, 0, 0], [1, -1, -4, 0], [0, 3, 2, -2]], 10),  # a DAG
        # the 2-cycle {4, 5} feeds the tail 4 -> 2 -> 1 -> 3
        ([[-2, 3, 0, 0, 0], [0, -4, 0, 1, 0], [5, 0, -1, 0, 0],
          [0, 0, 0, -3, 2], [0, 0, 0, -1, -5]], 10),
        # a 2-cycle on {1, 3} and a 3-cycle on {2, 4, 5}, not connected
        ([[-4, 0, 2, 0, 0], [0, -6, 0, 3, 0], [-1, 0, -3, 0, 0],
          [0, 0, 0, -5, 4], [0, -2, 0, 0, -7]], 3),
        ([[0, 1], [-1, -1]], 1),
        # node 1 feeds the 2-cycle {2, 3}, whose node 2 has a zero diagonal
        ([[-1, 0, 0], [1, 0, 1], [0, -1, -1]], 3),
    ]

    def test_matches_kronecker_sum_solution(self, monkeypatch):
        cases = []
        rng = random.Random(53)
        for p in range(2, 6):
            for _ in range(6):
                m = [[rng.randint(-40, 40) for _ in range(p)] for _ in range(p)]
                for i in range(p):  # strictly diagonally dominant, so stable
                    m[i][i] = -(sum(abs(v) for v in m[i]) + rng.randint(1, 40))
                c = [[0] * p for _ in range(p)]
                for i in range(p):
                    c[i][i] = rng.randint(1, 30)
                    for j in range(i):
                        c[i][j] = c[j][i] = rng.randint(-9, 9)
                c[0][1] = c[1][0] = rng.randint(1, 9)  # never diagonal
                cases.append((m, c, None))
        for m, num_blocks in self.SPARSE_DRIFTS:
            assert is_stable(RatMatrix.from_rows(m))
            p = len(m)
            diagonal = [[(i + 2) * (i == j) for j in range(p)] for i in range(p)]
            full = [row[:] for row in diagonal]
            full[0][1] = full[1][0] = 1
            full[p - 1][0] = full[0][p - 1] = -1
            cases += [(m, diagonal, num_blocks), (m, full, num_blocks)]

        seen = []
        solve = _intkernel.solve_square_int

        def recorded(a_rows, b, blocks=None):
            seen.append(blocks)
            return solve(a_rows, b, blocks)

        monkeypatch.setattr(_intkernel, "solve_square_int", recorded)
        for m, c, num_blocks in cases:
            p = len(m)
            mat = RatMatrix(p, p, [Fraction(x) for row in m for x in row])
            cmat = RatMatrix(p, p, [Fraction(x) for row in c for x in row])
            sol = rref_solve(kronecker_sum(mat), -vec(cmat))
            nums, den = _intkernel.common_denominator(sol.particular.col(0))
            expected = [[nums[col * p + r] for col in range(p)] for r in range(p)]
            seen.clear()
            n_mat, d = _solve_sigma_scaled(m, c, p)
            assert (n_mat, d) == (expected, den)
            assert d > 0 and math.gcd(d, *(v for row in n_mat for v in row)) == 1
            if num_blocks is not None:
                (blocks,) = seen
                assert len(blocks) == num_blocks
                assert sorted(i for block in blocks for i in block) == list(range(p * (p + 1) // 2))

    def test_singular_when_eigenvalues_sum_to_zero(self):
        # A diagonal drift has two strong components, so the solve runs three
        # 1 x 1 blocks; the one of Sigma_12 is m_11 + m_22 = 0.
        with pytest.raises(ValueError):
            _solve_sigma_scaled([[1, 0], [0, -1]], [[1, 0], [0, 1]], 2)
