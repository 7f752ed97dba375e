"""Tests for the exact linear-algebra kernel."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapid import _intkernel
from lyapid.linalg import (
    AFFINE,
    INCONSISTENT,
    UNIQUE,
    RatMatrix,
    SolutionSet,
    det,
    format_matrix_csv,
    is_positive_definite,
    parse_matrix_csv,
    rank,
    rat,
    solve_linear,
    vech,
)
from lyapid.lyapunov import is_stable

from _oracles import commutation_matrix, diagonal_matrix, hstack, kron, to_floats, vec
from _rref import rref_inverse, rref_solve


def _random_matrix(rng, rows, cols, lo=-100, hi=100, max_den=1):
    return RatMatrix(
        rows,
        cols,
        [
            Fraction(rng.randint(lo, hi), rng.randint(1, max_den))
            for _ in range(rows * cols)
        ],
    )


def _naive_det(m: RatMatrix) -> Fraction:
    """Cofactor-expansion determinant, the independent oracle for det()."""
    n = m.rows
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m[0, 0]
    total = Fraction(0)
    for j in range(n):
        minor = m.select_rows(range(1, n)).select_columns(
            [c for c in range(n) if c != j]
        )
        total += (-1) ** j * m[0, j] * _naive_det(minor)
    return total


class TestConstruction:
    def test_entries_row_major(self):
        m = RatMatrix.from_rows([[1, 2], [3, 4]])
        assert m.entries == (1, 2, 3, 4)
        assert m[1, 0] == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            RatMatrix(2, 2, [1, 2, 3])

    def test_immutable(self):
        m = RatMatrix.identity(2)
        with pytest.raises(AttributeError):
            m.rows = 3

    def test_rat_parses_strings(self):
        assert rat("3/7") == Fraction(3, 7)
        assert rat("-2") == -2
        with pytest.raises(TypeError):
            rat(0.5)


class TestKron:
    def test_identity_left(self):
        b = RatMatrix.from_rows([[1, 2], [3, 4]])
        assert kron(RatMatrix.identity(1), b) == b

    def test_scalar_scaling(self):
        two = RatMatrix.from_rows([[2]])
        assert kron(two, RatMatrix.identity(2)) == RatMatrix.from_rows(
            [[2, 0], [0, 2]]
        )

    def test_kronecker_sum_eigenvalues_are_pairwise_sums(self):
        # For symmetric 2x2 Sigma the sum I (x) S + S (x) I has eigenvalues
        # 2*l1, l1+l2 (twice), 2*l2.
        s = RatMatrix.from_rows([[5, 2], [2, 3]])
        eye = RatMatrix.identity(2)
        ksum = kron(eye, s) + kron(s, eye)
        lam = np.linalg.eigvalsh(np.array(to_floats(s)))
        expected = sorted([2 * lam[0], lam[0] + lam[1], lam[0] + lam[1], 2 * lam[1]])
        got = sorted(np.linalg.eigvalsh(np.array(to_floats(ksum))))
        assert np.allclose(got, expected)

    def test_shape(self):
        a = RatMatrix.zeros(2, 3)
        b = RatMatrix.zeros(4, 5)
        assert kron(a, b).shape == (8, 15)

    def test_mixed_product(self):
        rng = random.Random(90)
        a, c = _random_matrix(rng, 2, 3, -9, 9), _random_matrix(rng, 3, 2, -9, 9)
        b, d = _random_matrix(rng, 3, 4, -9, 9), _random_matrix(rng, 4, 2, -9, 9)
        assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)

    def test_transpose_distributes(self):
        rng = random.Random(91)
        a, b = _random_matrix(rng, 2, 3, -9, 9), _random_matrix(rng, 4, 2, -9, 9)
        assert kron(a, b).transpose() == kron(a.transpose(), b.transpose())

    def test_vec_of_product(self):
        # vec(A X B) = (B^T (x) A) vec(X), the identity behind vectorizing
        # the Lyapunov equation
        rng = random.Random(92)
        for _ in range(20):
            a = _random_matrix(rng, 2, 3, -9, 9, max_den=3)
            x = _random_matrix(rng, 3, 4, -9, 9, max_den=3)
            b = _random_matrix(rng, 4, 2, -9, 9, max_den=3)
            assert vec(a @ x @ b) == kron(b.transpose(), a) @ vec(x)


class TestVecVech:
    def test_vec_definition(self):
        m = RatMatrix.from_rows([[1, 2], [3, 4]])
        assert vec(m).col(0) == (1, 3, 2, 4)

    def test_vec_symmetric_positions(self):
        s = RatMatrix.from_rows([[1, 7], [7, 4]])
        v = vec(s)
        assert v[1, 0] == v[2, 0] == 7

    def test_vech_identity(self):
        assert vech(RatMatrix.identity(2)).col(0) == (1, 0, 1)

    def test_vech_order_3x3(self):
        s = RatMatrix.from_rows([[11, 12, 13], [12, 22, 23], [13, 23, 33]])
        assert vech(s).col(0) == (11, 12, 13, 22, 23, 33)

    def test_vech_diagonal(self):
        d = diagonal_matrix([2, 3, 5])
        assert vech(d).col(0) == (2, 0, 0, 3, 0, 5)

    def test_vech_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            vech(RatMatrix.from_rows([[1, 2], [3, 4]]))


class TestCommutationMatrix:
    def test_p1(self):
        assert commutation_matrix(1) == RatMatrix.from_rows([[1]])

    def test_p2_swaps_middle_positions(self):
        k = commutation_matrix(2)
        expected = RatMatrix.from_rows(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        )
        assert k == expected

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_involution(self, p):
        k = commutation_matrix(p)
        assert k @ k == RatMatrix.identity(p * p)
        assert k == k.transpose()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_transposes_vectorization(self, p, data):
        entries = data.draw(
            st.lists(st.integers(-9, 9), min_size=p * p, max_size=p * p)
        )
        m = RatMatrix(p, p, entries)
        assert commutation_matrix(p) @ vec(m) == vec(m.transpose())

    @pytest.mark.parametrize("p", [2, 3])
    def test_swaps_kronecker_factors(self, p):
        rng = random.Random(110 + p)
        k = commutation_matrix(p)
        for _ in range(5):
            a = _random_matrix(rng, p, p, -9, 9)
            b = _random_matrix(rng, p, p, -9, 9)
            assert k @ kron(a, b) @ k == kron(b, a)

    @pytest.mark.parametrize("p", [0, -1])
    def test_rejects_p_below_one(self, p):
        with pytest.raises(ValueError):
            commutation_matrix(p)


class TestRankDet:
    def test_rank_identity(self):
        assert rank(RatMatrix.identity(3)) == 3

    def test_rank_transpose_invariance(self):
        rng = random.Random(11)
        for _ in range(200):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = _random_matrix(rng, rows, cols)
            assert rank(m) == rank(m.transpose())

    def test_det_identity(self):
        assert det(RatMatrix.identity(4)) == 1

    def test_det_rejects_non_square(self):
        with pytest.raises(ValueError):
            det(RatMatrix.zeros(2, 3))

    def test_det_against_cofactor_oracle(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = _random_matrix(rng, n, n, lo=-6, hi=6, max_den=3)
            assert det(m) == _naive_det(m)

    def test_det_nonzero_iff_full_rank(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(1, 5)
            m = _random_matrix(rng, n, n, lo=-3, hi=3)
            assert (det(m) != 0) == (rank(m) == n)

    def test_rank_on_planted_low_rank_products(self):
        # rank(X @ Y) computed fraction-free must match a plain Fraction
        # Gaussian elimination and never exceed the planted inner dimension
        rng = random.Random(61)
        for _ in range(300):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            r = rng.randint(0, min(n, m))
            x = _random_matrix(rng, n, max(r, 1), lo=-5, hi=5)
            y = _random_matrix(rng, max(r, 1), m, lo=-5, hi=5)
            prod = x @ y if r else RatMatrix.zeros(n, m)
            rows = [list(prod.row(i)) for i in range(n)]
            rk = 0
            for c in range(m):
                piv = next((i for i in range(rk, n) if rows[i][c]), None)
                if piv is None:
                    continue
                rows[rk], rows[piv] = rows[piv], rows[rk]
                for i in range(rk + 1, n):
                    f = rows[i][c] / rows[rk][c]
                    if f:
                        rows[i] = [a - f * b for a, b in zip(rows[i], rows[rk])]
                rk += 1
            assert rank(prod) == rk
            assert rk <= r

    @pytest.mark.parametrize("q", [2**61 - 1, 3, 5])
    def test_rank_is_cols_less_the_kernel_dimension(self, monkeypatch, q):
        # wide, tall and deficient matrices; mod 3 or 5 many full ranks look
        # deficient to the mod-q echelon and are decided exactly
        monkeypatch.setattr(_intkernel, "MOD_PRIME", q)
        rng = random.Random(q)
        for _ in range(300):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            inner = rng.randint(1, max(nr, nc))
            a = (_random_matrix(rng, nr, inner, lo=-4, hi=4, max_den=3)
                 @ _random_matrix(rng, inner, nc, lo=-4, hi=4))
            kernel_dim = max(rref_solve(a, RatMatrix.zeros(nr, 1)).dim, 0)
            assert rank(a) == a.cols - kernel_dim


class TestSolveLinear:
    def test_unique_identity(self):
        b = RatMatrix.column([3, Fraction(1, 2)])
        sol = solve_linear(RatMatrix.identity(2), b)
        assert sol.kind == "unique"
        assert sol.particular == b
        assert sol.dim == 0

    def test_inconsistent(self):
        a = RatMatrix.from_rows([[1], [1]])
        sol = solve_linear(a, RatMatrix.column([0, 1]))
        assert sol.kind == "inconsistent"
        assert sol.dim == -1

    def test_affine_kernel_solves_homogeneous(self):
        rng = random.Random(23)
        seen_affine = 0
        for _ in range(150):
            nr = rng.randint(1, 4)
            nc = rng.randint(1, 5)
            a = _random_matrix(rng, nr, nc, lo=-4, hi=4)
            x_true = _random_matrix(rng, nc, 1, lo=-4, hi=4)
            b = a @ x_true  # consistent by construction
            sol = solve_linear(a, b)
            assert sol.kind in ("unique", "affine")
            assert a @ sol.particular == b
            if sol.kind == "affine":
                seen_affine += 1
                assert sol.kernel.cols == nc - rank(a)
                for j in range(sol.kernel.cols):
                    col = RatMatrix.column(list(sol.kernel.col(j)))
                    assert a @ (sol.particular + col) == b
        assert seen_affine > 10

    def test_unique_iff_full_column_rank_and_consistent(self):
        rng = random.Random(29)
        for _ in range(150):
            nr = rng.randint(1, 4)
            nc = rng.randint(1, 4)
            a = _random_matrix(rng, nr, nc, lo=-3, hi=3)
            b = _random_matrix(rng, nr, 1, lo=-3, hi=3)
            sol = solve_linear(a, b)
            augmented = hstack(a, b)
            consistent = rank(augmented) == rank(a)
            assert (sol.kind != "inconsistent") == consistent
            if consistent:
                assert (sol.kind == "unique") == (rank(a) == nc)

    def test_matches_rref_oracle_on_a_seeded_corpus(self):
        # wide, tall and square; deficient ones are products through a
        # thinner inner dimension; b is mostly off the column space
        rng = random.Random(67)
        seen = dict.fromkeys(["wide", "tall", "deficient", "inconsistent", "affine",
                              "unique", "zero", "no rows", "no columns"], 0)
        for _ in range(5000):
            nr, nc = rng.randint(0, 6), rng.randint(0, 6)
            shape = rng.random()
            if shape < 0.08:
                a = RatMatrix.zeros(nr, nc)
            elif shape < 0.5 and nr and nc:
                inner = rng.randint(1, min(nr, nc))
                a = (_random_matrix(rng, nr, inner, lo=-4, hi=4, max_den=3)
                     @ _random_matrix(rng, inner, nc, lo=-4, hi=4))
            else:
                a = _random_matrix(rng, nr, nc, lo=-4, hi=4, max_den=3)
            x = _random_matrix(rng, nc, 1, lo=-4, hi=4, max_den=2)
            b = a @ x if rng.random() < 0.4 else _random_matrix(rng, nr, 1, lo=-4, hi=4)
            sol = solve_linear(a, b)
            assert sol == rref_solve(a, b)
            seen["wide"] += nc > nr
            seen["tall"] += nr > nc
            seen["deficient"] += rank(a) < min(nr, nc)
            seen["zero"] += nr * nc > 0 and not any(a.entries)
            seen["no rows"] += nr == 0
            seen["no columns"] += nc == 0
            seen[sol.kind] += 1
        assert min(seen.values()) >= 100, seen

    @pytest.mark.parametrize("b, expected", [
        ([0, 0], SolutionSet(AFFINE, RatMatrix.zeros(3, 1), RatMatrix.identity(3))),
        ([0, 1], SolutionSet(INCONSISTENT)),
    ])
    def test_zero_matrix(self, b, expected):
        assert solve_linear(RatMatrix.zeros(2, 3), RatMatrix.column(b)) == expected

    def test_no_rows(self):
        sol = solve_linear(RatMatrix(0, 3, []), RatMatrix(0, 1, []))
        assert sol == SolutionSet(AFFINE, RatMatrix.zeros(3, 1), RatMatrix.identity(3))

    @pytest.mark.parametrize("b, expected", [
        ([0, 0], SolutionSet(UNIQUE, RatMatrix(0, 1, []))),
        ([0, 2], SolutionSet(INCONSISTENT)),
    ])
    def test_no_columns(self, b, expected):
        assert solve_linear(RatMatrix(2, 0, []), RatMatrix.column(b)) == expected


class TestStability:
    def test_negated_identity_stable(self):
        for p in range(1, 6):
            assert is_stable(-RatMatrix.identity(p))

    def test_positive_scalar_unstable(self):
        assert not is_stable(RatMatrix.from_rows([[1]]))

    def test_zero_matrix_unstable(self):
        assert not is_stable(RatMatrix.zeros(2, 2))

    def test_rotation_with_no_damping_unstable(self):
        # purely imaginary eigenvalues are not strictly stable
        assert not is_stable(RatMatrix.from_rows([[0, 1], [-1, 0]]))

    def test_agrees_with_float_eigensolver(self):
        rng = random.Random(43)
        checked = 0
        for _ in range(500):
            n = rng.randint(1, 5)
            m = _random_matrix(rng, n, n, lo=-10, hi=10, max_den=2)
            real_parts = np.linalg.eigvals(np.array(to_floats(m))).real
            margin = float(np.max(real_parts))
            if abs(margin) <= 1e-6:
                continue  # oracle not confident
            checked += 1
            assert is_stable(m) == (margin < 0)
        assert checked > 400

    def test_permutation_similarity_invariance(self):
        rng = random.Random(47)
        for _ in range(50):
            n = rng.randint(2, 5)
            m = _random_matrix(rng, n, n, lo=-6, hi=6)
            perm = list(range(n))
            rng.shuffle(perm)
            pm = RatMatrix(
                n, n, [Fraction(int(perm[i] == j)) for i in range(n) for j in range(n)]
            )
            conj = pm @ m @ rref_inverse(pm)
            assert is_stable(m) == is_stable(conj)


class TestPositiveDefinite:
    def test_identity(self):
        for p in range(1, 6):
            assert is_positive_definite(RatMatrix.identity(p))

    def test_indefinite_example(self):
        assert not is_positive_definite(RatMatrix.from_rows([[1, 2], [2, 1]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            is_positive_definite(RatMatrix.from_rows([[1, 2], [0, 1]]))

    def test_gram_matrices_positive_definite(self):
        rng = random.Random(53)
        for _ in range(50):
            n = rng.randint(1, 5)
            low = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                low[i][i] = Fraction(rng.randint(1, 5))
                for j in range(i):
                    low[i][j] = Fraction(rng.randint(-5, 5))
            l_mat = RatMatrix(n, n, [x for row in low for x in row])
            assert is_positive_definite(l_mat @ l_mat.transpose())


class TestCsvFormat:
    def test_roundtrip(self):
        m = RatMatrix.from_rows([[Fraction(3, 7), -2], [0, Fraction(22, 5)]])
        assert parse_matrix_csv(format_matrix_csv(m)) == m

    def test_parse_literals(self):
        m = parse_matrix_csv("3/7,-2\n0,1/1\n")
        assert m[0, 0] == Fraction(3, 7)
        assert m[0, 1] == -2
        assert m[1, 1] == 1

    def test_reject_bad_cell(self):
        with pytest.raises(ValueError):
            parse_matrix_csv("1,two\n")

    def test_reject_ragged(self):
        with pytest.raises(ValueError):
            parse_matrix_csv("1,2\n3\n")

    def test_reject_empty(self):
        with pytest.raises(ValueError):
            parse_matrix_csv("\n")

    def test_reject_zero_denominator(self):
        with pytest.raises(ValueError):
            parse_matrix_csv("1/0\n")

    @pytest.mark.parametrize("cell", ["1e400", "0.5", "1_0", "1/-2", "1/00", "\u0663"])
    def test_only_integers_and_integer_ratios(self, cell):
        with pytest.raises(ValueError, match="bad rational literal"):
            parse_matrix_csv(f"1,{cell}\n")

    def test_signs_and_padding(self):
        assert parse_matrix_csv(" +3/04 , -0 \n").to_lists() == [[Fraction(3, 4), 0]]
