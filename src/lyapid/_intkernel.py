"""The package's single exact elimination kernel.

Every rank, determinant and square solve that feeds a verdict runs through
:func:`bareiss_forward`: fraction-free (Bareiss) elimination on rows of
plain Python ints.  Rational matrices reach it through
:func:`common_denominator`, which scales values to integers by their lcm
denominator; rank and solutions are invariant under such row scalings, and
a determinant only needs the scales divided back out.  Working on ints
avoids the per-operation gcd normalization of Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction


def bareiss_forward(rows: list[list[int]], limit_cols: int | None = None):
    """In-place fraction-free elimination; returns (pivot_cols, sign).

    pivot_cols are the columns in which pivots were found, in order; sign
    is the parity of the row swaps.  Rows beyond the pivot rows end up zero
    in the first ``limit_cols`` columns.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    stop = nc if limit_cols is None else limit_cols
    prev = 1
    sign = 1
    pivot_cols: list[int] = []
    r = 0
    for c in range(stop):
        piv = None
        for i in range(r, nr):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        pc = rows[r][c]
        for i in range(r + 1, nr):
            ric = rows[i][c]
            ri = rows[i]
            rr = rows[r]
            for j in range(c, nc):
                ri[j] = (pc * ri[j] - ric * rr[j]) // prev
        prev = pc
        pivot_cols.append(c)
        r += 1
        if r == nr:
            break
    return pivot_cols, sign


def int_rank(rows: list[list[int]]) -> int:
    """Exact rank of an integer matrix (consumes ``rows``)."""
    if not rows or not rows[0]:
        return 0
    pivot_cols, _ = bareiss_forward(rows)
    return len(pivot_cols)


def int_det(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (consumes ``rows``)."""
    n = len(rows)
    if n == 0:
        return 1
    pivot_cols, sign = bareiss_forward(rows)
    if len(pivot_cols) < n:
        return 0
    return sign * rows[n - 1][n - 1]


def solve_square_int(a_rows: list[list[int]], b: list[int]) -> list[Fraction]:
    """Exact solution of a square nonsingular integer system.

    Raises:
        ValueError: if the system is singular.
    """
    n = len(a_rows)
    aug = [list(a_rows[i]) + [b[i]] for i in range(n)]
    pivot_cols, _ = bareiss_forward(aug, limit_cols=n)
    if len(pivot_cols) < n:
        raise ValueError("singular system")
    x: list[Fraction] = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = Fraction(aug[r][n])
        row = aug[r]
        for j in range(r + 1, n):
            if row[j]:
                acc -= row[j] * x[j]
        x[r] = acc / row[r]
    return x


def common_denominator(values) -> tuple[list[int], int]:
    """Scale rationals to integers: returns (numerators, positive lcm denominator)."""
    den = 1
    for v in values:
        den = den * v.denominator // math.gcd(den, v.denominator)
    return [v.numerator * (den // v.denominator) for v in values], den
