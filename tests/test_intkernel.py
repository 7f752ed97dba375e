"""The exact elimination kernel: the mod-q rank proof, its fallback, the solve."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapid import ClassifyConfig, DiGraph, VolatilityMatrix, _intkernel, classify
from lyapid._intkernel import (
    bareiss_forward,
    common_denominator,
    int_det,
    leading_minors_positive,
    mod_echelon,
    mod_gauss,
    rank_and_kernel,
    solve_square_int,
)
from lyapid.identifiability import RANK_DEFICIT_WITNESS
from lyapid.linalg import AFFINE, UNIQUE, RatMatrix

from _rref import rref_solve

Q = _intkernel.MOD_PRIME

# Small entries make rank deficiency common; huge ones make residues mod q
# unrelated to the integers.
_entries = st.one_of(st.integers(-2, 2), st.integers(-(2**80), 2**80))


@st.composite
def _int_matrices(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    return [[draw(_entries) for _ in range(cols)] for _ in range(rows)]


@st.composite
def _dependent_matrices(draw):
    """Integer matrices, tall ones included, some with a column forced to be a
    combination of earlier ones."""
    rows = draw(_int_matrices())
    cols = len(rows[0])
    if cols > 1 and draw(st.booleans()):
        target = draw(st.integers(1, cols - 1))
        coeffs = [draw(st.integers(-3, 3)) for _ in range(target)]
        for row in rows:
            row[target] = sum(c * x for c, x in zip(coeffs, row))
    return rows


def _copy(rows):
    return [row[:] for row in rows]


def mod_rank(rows):
    """The rank over GF(MOD_PRIME)."""
    return len(mod_echelon(rows)[0])


def _bareiss_rank_and_kernel(rows):
    """The reference: rank and first RREF kernel vector from one Bareiss pass."""
    rows = _copy(rows)
    pivot_cols, _ = bareiss_forward(rows)
    rank, cols = len(pivot_cols), len(rows[0])
    if rank == cols:
        return rank, None
    f = next((c for c, pc in enumerate(pivot_cols) if c != pc), rank)
    # x[:f] solves the leading f pivot rows, which are upper triangular
    x = [Fraction(0)] * f + [Fraction(1)] + [Fraction(0)] * (cols - f - 1)
    for r in range(f - 1, -1, -1):
        x[r] = -sum(rows[r][j] * x[j] for j in range(r + 1, f + 1)) / rows[r][r]
    return rank, common_denominator(x)


def _rref_kernel_vector(rows):
    """The first kernel basis vector of the Fraction RREF, or None."""
    nr, nc = len(rows), len(rows[0])
    sol = rref_solve(
        RatMatrix(nr, nc, [Fraction(x) for row in rows for x in row]),
        RatMatrix.zeros(nr, 1),
    )
    return list(sol.kernel.col(0)) if sol.kind == AFFINE else None


def _check_rank_and_kernel(rows):
    exact = len(bareiss_forward(_copy(rows))[0])
    rank, kernel = rank_and_kernel(_copy(rows), len(rows[0]))
    assert rank == exact
    assert (kernel is None) == (exact == len(rows[0]))
    if kernel is not None:
        nums, den = kernel
        assert den > 0 and math.gcd(den, *nums) == 1
        assert [Fraction(v, den) for v in nums] == _rref_kernel_vector(rows)


class TestModularRank:
    @settings(max_examples=150, deadline=None)
    @given(_int_matrices())
    def test_rank_is_the_exact_rank_and_bounds_mod_rank(self, rows):
        exact = len(bareiss_forward(_copy(rows))[0])
        assert rank_and_kernel(_copy(rows), len(rows[0]))[0] == exact
        assert mod_rank(rows) <= exact

    @pytest.mark.parametrize(
        "rows, rank",
        [
            ([[Q, 0], [0, 1]], 2),
            ([[1, 1], [1, 1 + Q]], 2),
            ([[2, 4], [3, 6 + Q]], 2),
            ([[Q], [2 * Q]], 1),
            ([[1, 2, 3], [2, 4, 6 + Q]], 2),
        ],
    )
    def test_full_rank_over_q_but_deficient_mod_q(self, rows, rank):
        assert mod_rank(rows) < rank
        assert rank_and_kernel(_copy(rows), len(rows[0]))[0] == rank

    def test_mod_rank_leaves_rows_intact(self):
        rows = [[3, 5, 7], [2, 4, 8], [1, 1, Q + 4]]
        before = _copy(rows)
        mod_rank(rows)
        assert rows == before

    @settings(max_examples=100, deadline=None)
    @given(_dependent_matrices())
    def test_echelon_pivot_rows_are_original_rows(self, rows):
        pivot_cols, pivot_rows = mod_echelon(rows)
        assert len(pivot_rows) == len(set(pivot_rows)) == len(pivot_cols)
        # for every k the first k pivot rows and columns of the input form a
        # unit minor mod q: the kernel solve's system is one of them
        for k in range(len(pivot_cols) + 1):
            minor = [[rows[i][c] for c in pivot_cols[:k]] for i in pivot_rows[:k]]
            assert int_det(minor) % Q


class TestSolveSquareInt:
    def test_matches_reduced_fraction_solution(self):
        rng = random.Random(61)
        for n in range(1, 7):
            for _ in range(10):
                a = [[rng.randint(-(2**30), 2**30) for _ in range(n)] for _ in range(n)]
                b = [rng.choice([0, rng.randint(-50, 50)]) for _ in range(n)]
                sol = rref_solve(
                    RatMatrix(n, n, [Fraction(x) for row in a for x in row]),
                    RatMatrix.column([Fraction(x) for x in b]),
                )
                assert sol.kind == UNIQUE
                nums, den = solve_square_int(a, b)
                assert (nums, den) == common_denominator(sol.particular.col(0))
                assert den > 0 and math.gcd(den, *nums) == 1

    def test_row_swaps_and_negative_determinant(self):
        # zero leading entry forces a swap; det = -1
        nums, den = solve_square_int([[0, 1], [1, 0]], [3, -4])
        assert (nums, den) == ([-4, 3], 1)
        nums, den = solve_square_int([[0, 2], [3, 0]], [1, 1])
        assert (nums, den) == ([2, 3], 6)

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            solve_square_int([[1, 2], [2, 4]], [1, 1])

    def test_block_lower_triangular_partition(self):
        # Blocks {0, 2}, {1}, {3, 4}: each row is zero in the columns of
        # every later block.  Blocks {0, 2} and {3, 4} have a zero leading
        # entry (a row swap) and a negative determinant.
        blocks = [[0, 2], [1], [3, 4]]
        a = [[0, 0, 3, 0, 0],
             [5, -2, 1, 0, 0],
             [2, 0, 7, 0, 0],
             [1, 4, 0, 0, 6],
             [-3, 0, 2, 5, 1]]
        b = [4, -1, 9, 2, 7]
        sol = rref_solve(
            RatMatrix(5, 5, [Fraction(x) for row in a for x in row]),
            RatMatrix.column([Fraction(x) for x in b]),
        )
        expected = common_denominator(sol.particular.col(0))
        assert solve_square_int(a, b, blocks) == expected == solve_square_int(a, b)

    def test_random_block_partitions_match_the_dense_solve(self):
        rng = random.Random(67)
        for n in range(1, 8):
            for _ in range(10):
                order = rng.sample(range(n), n)
                cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
                blocks = [order[i:j] for i, j in zip([0] + cuts, cuts + [n])]
                level = {i: k for k, block in enumerate(blocks) for i in block}
                a = [[rng.randint(-(2**20), 2**20) if level[j] <= level[i] else 0
                      for j in range(n)] for i in range(n)]
                b = [rng.randint(-50, 50) for _ in range(n)]
                try:
                    dense = solve_square_int(a, b)
                except ValueError:
                    with pytest.raises(ValueError):
                        solve_square_int(a, b, blocks)
                    continue
                assert solve_square_int(a, b, blocks) == dense

    def test_singular_diagonal_block_raises(self):
        with pytest.raises(ValueError):
            solve_square_int([[1, 0], [5, 0]], [1, 1], [[0], [1]])


_big = st.integers(-(2**300), 2**300)


@st.composite
def _kernel_cases(draw):
    """Integer matrices with ~300-bit entries, tall and wide, with optional
    zero first column, zero leading entry and dependent columns."""
    nr, nc = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rows = [[draw(_big) for _ in range(nc)] for _ in range(nr)]
    if draw(st.booleans()):
        for row in rows:
            row[0] = 0
    if draw(st.booleans()):
        rows[0][0] = 0
    for _ in range(draw(st.integers(0, 2)) if nc > 1 else 0):
        target = draw(st.integers(1, nc - 1))
        coeffs = [draw(st.integers(-(2**40), 2**40)) for _ in range(target)]
        for row in rows:
            row[target] = sum(c * x for c, x in zip(coeffs, row))
    return rows


def _only_the_pivot_system_reaches_bareiss(monkeypatch, f):
    """Let bareiss_forward eliminate only the f x (f + 1) pivot system of
    the kernel solve, and fail on any full Bareiss pass."""
    forward = _intkernel.bareiss_forward

    def pivot_system_only(rows, limit_cols=None):
        if limit_cols != f or len(rows) != f or any(len(row) != f + 1 for row in rows):
            raise AssertionError("fell back to Bareiss")
        return forward(rows, limit_cols)

    monkeypatch.setattr(_intkernel, "bareiss_forward", pivot_system_only)


def _dependent_last_column(rng, nr, nc, bits=300, q_offset=0):
    """Random rows whose last column is a combination of the others, plus
    q_offset times a random vector."""
    rows = [[rng.randint(-(2**bits), 2**bits) for _ in range(nc - 1)] for _ in range(nr)]
    coeffs = [rng.randint(-(2**bits), 2**bits) for _ in range(nc - 1)]
    for row in rows:
        row.append(sum(c * x for c, x in zip(coeffs, row)) + q_offset * rng.randint(1, 9))
    return rows


class TestRankAndKernel:
    @settings(max_examples=200, deadline=None)
    @given(_dependent_matrices())
    def test_matches_bareiss_rank_and_rref_kernel(self, rows):
        _check_rank_and_kernel(rows)

    def test_no_rows_give_rank_zero_and_the_first_unit_vector(self):
        assert rank_and_kernel([], 3) == (0, ([1, 0, 0], 1))
        assert rank_and_kernel([], 0) == (0, None)

    def test_zero_first_column_gives_first_unit_vector(self):
        assert rank_and_kernel([[0, 1, 2], [0, 3, 4]], 3) == (2, ([1, 0, 0], 1))

    def test_full_rank_over_q_but_deficient_mod_q(self):
        rows = [[Q, 0], [0, 1]]
        assert mod_rank(rows) < 2
        assert rank_and_kernel(rows, 2) == (2, None)

    def test_dependent_column_after_a_row_swap(self):
        # column 2 = 2 * column 0 - column 1; a zero leading entry forces a swap
        rank, kernel = rank_and_kernel([[0, 1, -1], [3, 1, 5], [1, 2, 0]], 3)
        assert rank == 2
        assert kernel == ([-2, 1, 1], 1)

    @settings(max_examples=150, deadline=None)
    @given(_kernel_cases())
    def test_matches_bareiss_on_300_bit_entries(self, rows):
        assert rank_and_kernel(_copy(rows), len(rows[0])) == _bareiss_rank_and_kernel(rows)

    @pytest.mark.parametrize("nr, nc", [(15, 15), (15, 10), (6, 7), (1, 2), (4, 1)])
    def test_deficiency_one_is_solved_on_the_pivot_rows(self, monkeypatch, nr, nc):
        rng = random.Random(nr * 31 + nc)
        rows = _dependent_last_column(rng, nr, nc)
        expected = _bareiss_rank_and_kernel(rows)
        assert expected[0] == nc - 1
        _only_the_pivot_system_reaches_bareiss(monkeypatch, nc - 1)
        assert rank_and_kernel(_copy(rows), len(rows[0])) == expected

    def test_deficiency_two_takes_the_exact_path(self):
        rng = random.Random(2)
        rows = _dependent_last_column(rng, 8, 4)
        for row in rows:
            row.append(3 * row[0] - row[1])
        expected = _bareiss_rank_and_kernel(rows)
        assert expected[0] == 3 and mod_rank(rows) == 3
        assert rank_and_kernel(_copy(rows), len(rows[0])) == expected

    def test_deficient_only_mod_q_falls_back_to_the_exact_rank(self, monkeypatch):
        # the last column is a combination of the others mod q only, so the
        # pivot-row solution fails the exact check and Bareiss ranks the matrix
        rng = random.Random(5)
        rows = _dependent_last_column(rng, 6, 5, bits=100, q_offset=Q)
        assert mod_rank(rows) == 4
        solves = []
        solve = _intkernel.solve_square_int

        def counted(a_rows, b):
            solves.append(solve(a_rows, b))
            return solves[-1]

        monkeypatch.setattr(_intkernel, "solve_square_int", counted)
        assert rank_and_kernel(_copy(rows), len(rows[0])) == (5, None) == _bareiss_rank_and_kernel(rows)
        assert len(solves) == 1
        nums, den = solves[0]
        x = nums + [den]
        assert any(sum(a * v for a, v in zip(row, x)) for row in rows)

    def test_holds_with_a_tiny_prime(self, monkeypatch):
        monkeypatch.setattr(_intkernel, "MOD_PRIME", 3)
        rng = random.Random(3)
        for _ in range(60):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
            if nc > 1 and rng.random() < 0.5:
                for row in rows:
                    row[-1] = row[0] - 2 * row[1]
            _check_rank_and_kernel(rows)
        assert rank_and_kernel([[3, 0], [0, 1]], 2) == (2, None)
        assert rank_and_kernel([[0, 1, 2], [0, 3, 4]], 3) == (2, ([1, 0, 0], 1))


# nonzero row multipliers of either sign, up to 200 bits, multiples of the
# primes among them so that a scaled row can vanish mod q
_multipliers = st.tuples(
    st.one_of(st.integers(1, 2**200), st.sampled_from([3, 9, Q, 2 * Q])),
    st.sampled_from([1, -1]),
).map(lambda t: t[0] * t[1])


def _rank_and_full_passes(rows):
    """rank_and_kernel of a copy of ``rows``, and how many whole-matrix
    Bareiss passes (the fallback) it ran."""
    forward, passes = _intkernel.bareiss_forward, []

    def counted(work, limit_cols=None):
        if limit_cols is None:
            passes.append(work)
        return forward(work, limit_cols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_intkernel, "bareiss_forward", counted)
        result = rank_and_kernel(_copy(rows), len(rows[0]))
    return result, len(passes)


# a p = 5 rank-deficit graph from the sweep: 9 edges, rank 8 at every sample
P5_PIVOT_DEFICIT = DiGraph(5, frozenset({(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (4, 1),
                                         (4, 3), (5, 1), (5, 3)}))


class TestPrimitivePivotRows:
    """The pivot-row solve divides each row by its content and puts the
    smallest rows first; the results do not move."""

    @pytest.mark.parametrize("q", [Q, 3])
    @pytest.mark.parametrize("shape, deficiency",
                             [("tall", 0), ("tall", 1), ("tall", 2), ("wide", 1), ("wide", 2)])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_row_scaling_keeps_rank_and_kernel(self, q, shape, deficiency, data):
        # rows = U V with U nr x r and V r x nc of 30-bit entries: rank r
        # = nc - deficiency, short of a vanishing minor
        nc = data.draw(st.integers(deficiency + 1, 7), label="cols")
        r = nc - deficiency
        nr = nc + data.draw(st.integers(0, 2)) if shape == "tall" else data.draw(
            st.integers(max(r, 1), nc - 1), label="rows")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        u = [[rng.randint(-(2**30), 2**30) for _ in range(r)] for _ in range(nr)]
        v = [[rng.randint(-(2**30), 2**30) for _ in range(nc)] for _ in range(r)]
        rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*v)] for row in u]
        mults = data.draw(st.lists(_multipliers, min_size=nr, max_size=nr), label="multipliers")
        order = data.draw(st.permutations(range(nr)), label="row order")
        scaled = [[mults[i] * x for x in rows[i]] for i in order]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_intkernel, "MOD_PRIME", q)
            expected, _ = _rank_and_full_passes(rows)
            (rank, kernel), passes = _rank_and_full_passes(scaled)
            modular_cols, _ = mod_echelon(scaled)
        assert expected[0] == r
        assert (rank, kernel) == expected
        # A scaled matrix of deficiency one whose first non-pivot column mod q
        # is the first over Q is solved on its pivot rows, without a fallback.
        if deficiency == 1 and len(modular_cols) == nc - 1:
            f_q = next((c for c, pc in enumerate(modular_cols) if c != pc), nc - 1)
            if kernel[0][f_q + 1:] == [0] * (nc - f_q - 1):
                assert passes == 0

    def test_p5_deficit_pivot_systems_are_primitive(self, monkeypatch):
        # Every sample takes the pivot-row route with f = 9, and the rows of
        # H(N)_nonE it picks share about 200 of their 260 bits.  Their
        # primitive sizes differ about sixfold, and the smallest come first.
        # (The p = 5 deficit graph of test_identifiability has f = 0 at every
        # sample.)
        solve = _intkernel.solve_square_int
        systems, passes = [], []

        def spied_solve(a_rows, b, blocks=None):
            if blocks is None:  # the Sigma solves pass their blocks
                systems.append([row + [v] for row, v in zip(a_rows, b)])
            return solve(a_rows, b, blocks)

        def spied_rank_and_kernel(rows, cols):
            result, full_passes = _rank_and_full_passes(rows)
            passes.append(full_passes)
            return result

        monkeypatch.setattr(_intkernel, "solve_square_int", spied_solve)
        monkeypatch.setattr(_intkernel, "rank_and_kernel", spied_rank_and_kernel)
        for seed in range(3):
            verdict = classify(P5_PIVOT_DEFICIT, VolatilityMatrix.identity(5),
                               ClassifyConfig(seed=seed))
            assert verdict.certificate.kind == RANK_DEFICIT_WITNESS
        assert passes == [0] * (3 * ClassifyConfig.trials)
        assert len(systems) == len(passes) and all(len(system) == 9 for system in systems)
        assert all(math.gcd(*row) == 1 for system in systems for row in system)
        sizes = [[sum(v.bit_length() for v in row) for row in system] for system in systems]
        assert all(size == sorted(size) for size in sizes)


def _stack(rng, batch, nr, nc, q):
    """Random small-entry matrices, some with a dependent last column, and
    their residues mod q as one batch-last (rows, cols, batch) stack."""
    mats = []
    for _ in range(batch):
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        if nc > 1 and rng.random() < 0.3:
            for row in rows:
                row[-1] = row[0] - 2 * row[1 % (nc - 1)]
        mats.append(rows)
    residues = np.array([[[x % q for x in row] for row in m] for m in mats], dtype=np.int64)
    return mats, np.ascontiguousarray(residues.transpose(1, 2, 0))


def _extreme_stack(rng, batch, nr, nc, stop, q):
    """Residue matrices, about half their entries q - 1, as one (rows, cols,
    batch) stack.  In most, row r + 1 is a multiple of row r on columns
    :r + 2, so column r + 1 of it vanishes mod q at step r + 1 and the pivot
    swaps in a row that carries unreduced updates; in every third, column
    stop - 1 is the sum of columns 0 and 1."""
    mats = []
    for k in range(batch):
        rows = [[q - 1 if rng.random() < 0.5 else rng.randrange(q) for _ in range(nc)]
                for _ in range(nr)]
        if k % 4:
            r = rng.randrange(stop - 2)
            m = rng.randrange(1, q)
            rows[r + 1][:r + 2] = [m * x % q for x in rows[r][:r + 2]]
        if k % 3 == 0:
            for row in rows:
                row[stop - 1] = (row[0] + row[1]) % q
        mats.append(rows)
    return mats, np.ascontiguousarray(np.array(mats, dtype=np.int64).transpose(1, 2, 0))


def _solve_mod(rows, n, q):
    """x with K x = b mod q for the augmented rows [K | b], K n x n and
    nonsingular mod q: Gauss-Jordan on Python ints."""
    work = [[x % q for x in row[:n + 1]] for row in rows[:n]]
    for c in range(n):
        piv = next(i for i in range(c, n) if work[i][c])
        work[c], work[piv] = work[piv], work[c]
        inv = pow(work[c][c], -1, q)
        work[c] = [x * inv % q for x in work[c]]
        for i in range(n):
            if i != c:
                m = work[i][c]
                work[i] = [(a - m * b) % q for a, b in zip(work[i], work[c])]
    return [row[n] for row in work]


class TestModGaussJordan:
    """The batched GF(q) elimination against the per-matrix mod_rank loop."""

    @pytest.mark.parametrize("q", [_intkernel.MOD_PRIME, 3, 7])
    def test_flags_match_mod_rank(self, monkeypatch, q):
        monkeypatch.setattr(_intkernel, "MOD_PRIME", q)
        rng = random.Random(q)
        for _ in range(40):
            nr, nc = rng.randint(1, 7), rng.randint(1, 7)
            mats, stack = _stack(rng, 12, nr, nc, q)
            full, _ = mod_gauss(stack)
            assert full.tolist() == [mod_rank(m) == nc for m in mats]

    @pytest.mark.parametrize("q", [_intkernel.MOD_PRIME, 5])
    def test_solves_augmented_systems(self, monkeypatch, q):
        monkeypatch.setattr(_intkernel, "MOD_PRIME", q)
        rng = random.Random(11 + q)
        for n in range(1, 8):
            mats, stack = _stack(rng, 15, n, n + 1, q)
            full, reduced = mod_gauss(stack, limit_cols=n)
            for k, (rows, ok) in enumerate(zip(mats, full.tolist())):
                assert ok == (mod_rank([row[:n] for row in rows]) == n)
                if ok:
                    x = reduced[:, n, k].tolist()
                    for row in rows:
                        assert (sum(a * v for a, v in zip(row, x)) - row[n]) % q == 0

    def test_full_rank_mod_q_is_full_rank_over_q(self):
        rng = random.Random(8)
        q = _intkernel.MOD_PRIME
        for _ in range(30):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            mats, stack = _stack(rng, 10, nr, nc, q)
            for rows, ok in zip(mats, mod_gauss(stack)[0].tolist()):
                if ok:
                    assert rank_and_kernel(_copy(rows), len(rows[0]))[0] == nc

    @pytest.mark.parametrize("q", [3, 5, 7, _intkernel.MOD_PRIME])
    def test_pivot_inverses_are_read_per_prime(self, monkeypatch, q):
        monkeypatch.setattr(_intkernel, "MOD_PRIME", q)
        x = np.arange(q, dtype=np.int64)
        # the 1 x 1 systems [x | 1], one per residue, batch last
        full, reduced = mod_gauss(np.stack([x, np.ones_like(x)])[None], limit_cols=1)
        inverse = reduced[0, 1]
        assert full.tolist() == [False] + [True] * (q - 1)
        assert inverse[0] == 0 and (x[1:] * inverse[1:] % q == 1).all()
        assert inverse.tolist() == _intkernel._inverse_table(q).tolist()

    # the screen's largest stacks at p = 6: the 21 x 22 vech system [K | b]
    # and H(Sigma) on 15 to 30 non-edges, 15 columns
    @pytest.mark.parametrize("nr, nc, limit", [(21, 22, 21), (30, 15, None), (15, 15, None)])
    def test_largest_screen_shapes_at_the_prime(self, nr, nc, limit):
        q = _intkernel.MOD_PRIME
        stop = limit or nc
        mats, stack = _extreme_stack(random.Random(nr), 24, nr, nc, stop, q)
        full, reduced = mod_gauss(stack, limit_cols=limit)
        echelons = [mod_echelon([row[:stop] for row in m]) for m in mats]
        assert full.tolist() == [len(cols) == stop for cols, _ in echelons]
        assert full.any() and not full.all()
        assert sum(rows != sorted(rows) for _, rows in echelons) >= 12
        if limit:
            for k in np.flatnonzero(full).tolist():
                assert reduced[:stop, stop, k].tolist() == _solve_mod(mats[k], stop, q)

    def test_unreduced_updates_fit_int64(self):
        # the mod_gauss docstring's headroom: 22 updates below (q - 1)^2 on a
        # residue, then the unreduced pivot row times its inverse
        q = _intkernel.MOD_PRIME
        assert 22 * (q - 1) ** 2 + q < 2**37 < 2**63
        assert (22 * (q - 1) ** 2 + q) * (q - 1) < 2**53

    def test_wider_than_tall_is_never_full(self):
        full, _ = mod_gauss(np.ones((2, 4, 3), dtype=np.int64))
        assert not full.any()

    def test_input_left_intact(self):
        # one 2 x 2 matrix [[0, 1], [1, 0]], batch last; its pivot needs a swap
        stack = np.array([[[0], [1]], [[1], [0]]], dtype=np.int64)
        mod_gauss(stack)
        assert stack.tolist() == [[[0], [1]], [[1], [0]]]


class TestLeadingMinorsPositive:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    def test_matches_the_minors_one_by_one(self, rows):
        n = len(rows)
        expected = all(
            int_det([row[:k] for row in rows[:k]]) > 0 for k in range(1, n + 1)
        )
        before = _copy(rows)
        assert leading_minors_positive(rows) == expected
        assert rows == before

    def test_zero_leading_minor_with_positive_determinant(self):
        # det = 1 > 0, but the first leading minor is 0
        assert not leading_minors_positive([[0, 1], [-1, 0]])
        assert leading_minors_positive([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
