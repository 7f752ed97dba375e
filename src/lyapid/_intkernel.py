"""The package's single exact elimination kernel.

Every rank, determinant and square solve that feeds a verdict runs on rows
of plain Python ints.  Rational matrices reach it through
:func:`common_denominator`, which scales values to integers by their lcm
denominator; rank and solutions are invariant under such row scalings, and
a determinant only needs the scales divided back out.  Working on ints
avoids the per-operation gcd normalization of Fractions.

:func:`int_rank` first eliminates over GF(q) (:func:`mod_rank`).  Reducing
mod q maps every minor to its residue, so the rank over GF(q) never exceeds
the rank over Q; a full rank found mod q is therefore the exact rank.  Only
a matrix that is deficient mod q -- rank-deficient over Q, or unluckily
divisible by q -- pays for exact fraction-free (Bareiss) elimination in
:func:`bareiss_forward`.  :func:`solve_square_int` back-substitutes in
integers too, using Cramer's rule to keep every intermediate integral, and
returns a reduced numerator vector over one denominator.
"""

from __future__ import annotations

import math

# The Mersenne prime 2^61 - 1.  Read at call time, so a test can swap in a
# tiny prime to force the exact fallback.
MOD_PRIME = 2**61 - 1


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


def mod_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix over GF(MOD_PRIME); ``rows`` is left intact.

    Never larger than the rank over Q.
    """
    q = MOD_PRIME
    work = [[x % q for x in row] for row in rows]
    nr = len(work)
    nc = len(work[0]) if nr else 0
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        tail = work[r][c:]
        inv = pow(tail[0], -1, q)
        for i in range(r + 1, nr):
            f = work[i][c] * inv % q
            if f:
                work[i][c:] = [(a - f * b) % q for a, b in zip(work[i][c:], tail)]
        r += 1
        if r == nr:
            break
    return r


def int_rank(rows: list[list[int]]) -> int:
    """Exact rank of an integer matrix (consumes ``rows``).

    A full rank over GF(MOD_PRIME) is returned at once; any other matrix is
    ranked exactly by :func:`bareiss_forward`.
    """
    if not rows or not rows[0]:
        return 0
    modular = mod_rank(rows)
    if modular == min(len(rows), len(rows[0])):
        return modular
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


def solve_square_int(a_rows: list[list[int]], b: list[int]) -> tuple[list[int], int]:
    """Exact solution x = nums / den of a square nonsingular integer system.

    ``den`` is positive and shares no factor with all of ``nums``, so the
    pair equals :func:`common_denominator` of the rational solution.  The
    last Bareiss pivot d is +-det(A), so by Cramer's rule y = d x is an
    integer vector and every division in the back-substitution is exact.

    Raises:
        ValueError: if the system is singular.
    """
    n = len(a_rows)
    aug = [list(a_rows[i]) + [b[i]] for i in range(n)]
    pivot_cols, _ = bareiss_forward(aug, limit_cols=n)
    if len(pivot_cols) < n:
        raise ValueError("singular system")
    d = aug[n - 1][n - 1] if n else 1
    y = [0] * n
    for r in range(n - 1, -1, -1):
        row = aug[r]
        acc = d * row[n]
        for j in range(r + 1, n):
            if row[j]:
                acc -= row[j] * y[j]
        y[r] = acc // row[r]
    g = math.gcd(d, *y)
    if d < 0:
        g = -g
    return [v // g for v in y], d // g


def common_denominator(values) -> tuple[list[int], int]:
    """Scale rationals to integers: returns (numerators, positive lcm denominator)."""
    den = 1
    for v in values:
        den = den * v.denominator // math.gcd(den, v.denominator)
    return [v.numerator * (den // v.denominator) for v in values], den
