"""Exact rational scalars, dense matrices, and the linear-algebra kernel.

Every certificate produced by this package ultimately rests on a rank, a
determinant, or a linear solve computed here.  All of it is exact: scalars
are arbitrary-precision rationals (``fractions.Fraction``) and elimination
is fraction-free (Bareiss) on integer-scaled rows.  Floating point never
feeds a verdict.

Matrices are dense, row-major and immutable after construction; sizes in
this package stay tiny (at most ``p*p = 25`` columns for ``p = 5`` nodes),
so clarity wins over asymptotics everywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import _intkernel

# The exact scalar type: always reduced, positive denominator.
Rational = Fraction

UNIQUE = "unique"
AFFINE = "affine"
INCONSISTENT = "inconsistent"


def rat(value) -> Rational:
    """Coerce an int, string ("3/7", "-2") or Fraction to a Rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True, slots=True)
class RatMatrix:
    """Dense matrix of exact rationals, immutable after construction.

    Attributes:
        rows: Number of rows.
        cols: Number of columns.
        entries: Row-major tuple of ``Fraction`` values, length rows*cols;
            any iterable of values :func:`rat` accepts is coerced.
    """

    rows: int
    cols: int
    entries: tuple[Rational, ...]

    def __post_init__(self):
        data = tuple(rat(x) for x in self.entries)
        if len(data) != self.rows * self.cols:
            raise ValueError(f"expected {self.rows * self.cols} entries, got {len(data)}")
        object.__setattr__(self, "entries", data)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        """Build a matrix from a sequence of row sequences."""
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        return cls(nr, nc, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    @classmethod
    def column(cls, values: Sequence) -> "RatMatrix":
        """Column vector from a flat sequence."""
        return cls(len(values), 1, list(values))

    # -- access ------------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> Rational:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Rational, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[Rational, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_lists(self) -> list[list[Rational]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        if not self.is_square:
            return False
        n = self.rows
        return all(
            self.entries[i * n + j] == self.entries[j * n + i]
            for i in range(n)
            for j in range(i + 1, n)
        )

    # -- arithmetic ---------------------------------------------------------

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return RatMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(self.rows, self.cols, [-a for a in self.entries])

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        n, m, k = self.rows, other.cols, self.cols
        a, b = self.entries, other.entries
        out = []
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            for j in range(m):
                out.append(sum(arow[t] * b[t * m + j] for t in range(k)))
        return RatMatrix(n, m, out)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            self.cols,
            self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def select_columns(self, indices: Sequence[int]) -> "RatMatrix":
        return RatMatrix(
            self.rows,
            len(indices),
            [self.entries[i * self.cols + j] for i in range(self.rows) for j in indices],
        )

    def select_rows(self, indices: Sequence[int]) -> "RatMatrix":
        return RatMatrix(
            len(indices),
            self.cols,
            [self.entries[i * self.cols + j] for i in indices for j in range(self.cols)],
        )


@dataclass(frozen=True)
class SolutionSet:
    """Exact solution set of a linear system ``a x = b``.

    kind is one of :data:`UNIQUE`, :data:`AFFINE`, :data:`INCONSISTENT`.  For a
    unique solution ``particular`` holds it; an affine set additionally
    carries a ``kernel`` whose columns form a basis of the homogeneous
    solutions.  ``dim`` is the dimension of the solution set (0 for unique,
    -1 when inconsistent).
    """

    kind: str
    particular: RatMatrix | None = None
    kernel: RatMatrix | None = None

    @property
    def dim(self) -> int:
        if self.kind == INCONSISTENT:
            return -1
        return 0 if self.kind == UNIQUE else self.kernel.cols


# ---------------------------------------------------------------------------
# Structured constructions
# ---------------------------------------------------------------------------


def vech(s: RatMatrix) -> RatMatrix:
    """Half-vectorization (upper triangle, rows (k,l) with k <= l, lexicographic).

    Raises:
        ValueError: if ``s`` is not symmetric.
    """
    if not s.is_symmetric():
        raise ValueError("vech requires a symmetric matrix")
    n = s.rows
    return RatMatrix.column([s[k, l] for k in range(n) for l in range(k, n)])


def sym_pairs(p: int) -> list[tuple[int, int]]:
    """The vech index pairs (k, l), k <= l, 1-based, lexicographic."""
    return [(k, l) for k in range(1, p + 1) for l in range(k, p + 1)]


# ---------------------------------------------------------------------------
# Exact rank and determinant (via the integer kernel)
# ---------------------------------------------------------------------------


def _matrix_to_int_rows(m: RatMatrix) -> tuple[list[list[int]], int]:
    """Clear denominators globally: returns (integer rows, positive scale)."""
    nums, den = _intkernel.common_denominator(m.entries)
    return [nums[i * m.cols : (i + 1) * m.cols] for i in range(m.rows)], den


def rank(m: RatMatrix) -> int:
    """Exact rank over the rationals; a wide matrix is ranked as its transpose,
    so that a full rank is proved mod q (see ``_intkernel``)."""
    lines = map(m.row, range(m.rows)) if m.rows >= m.cols else map(m.col, range(m.cols))
    return _intkernel.rank_and_kernel([_intkernel.common_denominator(v)[0] for v in lines],
                                      min(m.rows, m.cols))[0]


def det(m: RatMatrix) -> Rational:
    """Exact determinant (Bareiss fraction-free elimination).

    Raises:
        ValueError: if ``m`` is not square.
    """
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    rows = []
    denom = 1
    for i in range(m.rows):
        nums, scale = _intkernel.common_denominator(m.row(i))
        rows.append(nums)
        denom *= scale
    return Fraction(_intkernel.int_det(rows), denom)


def solve_linear(a: RatMatrix, b: RatMatrix) -> SolutionSet:
    """Exact solution set of ``a x = b`` for a column vector ``b``.

    Returns a unique solution, an affine set (particular solution plus a
    kernel basis), or reports inconsistency.  The vectors are those of the
    reduced row echelon form: 0 at every free column but, for the kernel
    vector of free column f, x[f] = 1.  They are back-substituted in
    integers against one Bareiss pass over [A | b], its rows scaled to
    integers.
    """
    if b.cols != 1:
        raise ValueError("right-hand side must be a column vector")
    if a.rows != b.rows:
        raise ValueError("row count mismatch between matrix and right-hand side")
    nc = a.cols
    aug = [_intkernel.common_denominator(a.row(i) + b.row(i))[0] for i in range(a.rows)]
    pivots, _ = _intkernel.bareiss_forward(aug, limit_cols=nc)
    if any(row[nc] for row in aug[len(pivots):]):
        return SolutionSet(INCONSISTENT)
    d = aug[len(pivots) - 1][pivots[-1]] if pivots else 1

    def solution(col: int, sign: int) -> list[Rational]:
        x = [Fraction(0)] * nc
        for c, y in zip(pivots, _intkernel._back_substitute(aug, pivots, col, d)):
            x[c] = Fraction(sign * y, d)
        return x

    x0 = RatMatrix.column(solution(nc, 1))
    free = [c for c in range(nc) if c not in pivots]
    if not free:
        return SolutionSet(UNIQUE, particular=x0)
    basis_cols = []
    for f in free:
        v = solution(f, -1)
        v[f] = Fraction(1)
        basis_cols.append(v)
    kernel = RatMatrix(nc, len(free), [col[i] for i in range(nc) for col in basis_cols])
    return SolutionSet(AFFINE, particular=x0, kernel=kernel)


# ---------------------------------------------------------------------------
# Positive definiteness
# ---------------------------------------------------------------------------


def is_positive_definite(s: RatMatrix) -> bool:
    """Exact positive-definiteness via leading principal minors.

    Raises:
        ValueError: if ``s`` is not symmetric.
    """
    if not s.is_symmetric():
        raise ValueError("positive definiteness requires a symmetric matrix")
    # Scaling by the positive common denominator D multiplies the k-th
    # leading minor by D^k, keeping its sign.
    return _intkernel.leading_minors_positive(_matrix_to_int_rows(s)[0])


# ---------------------------------------------------------------------------
# Rational CSV matrix format
# ---------------------------------------------------------------------------


def parse_matrix_csv(text: str) -> RatMatrix:
    """Parse the exact CSV matrix format: one row per line, cells "n" or "n/d".

    Raises:
        ValueError: on empty input, ragged rows, or unparsable cells.
    """
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cells = []
        for cell in line.split(","):
            token = cell.strip()
            # Only "n" or "n/d" with d > 0: Fraction alone also takes decimals
            # and exponents, and "1e999999999" would never finish.
            if not re.fullmatch(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?", token):
                raise ValueError(f"line {lineno}: bad rational literal {token!r}")
            cells.append(Fraction(token))
        rows.append(cells)
    if not rows:
        raise ValueError("empty matrix")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows in matrix CSV")
    return RatMatrix.from_rows(rows)


def matrix_strings(m: RatMatrix) -> list[list[str]]:
    """The rows of ``m`` as exact strings ("n" or "n/d"), as JSON carries them."""
    return [[str(x) for x in m.row(i)] for i in range(m.rows)]


def format_matrix_csv(m: RatMatrix) -> str:
    """Render a matrix in the exact CSV format (lossless round trip)."""
    return "\n".join(",".join(row) for row in matrix_strings(m))
