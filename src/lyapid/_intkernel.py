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
:func:`rank_and_kernel` takes a kernel vector from the same Bareiss echelon
that ranks a deficient matrix, by that back-substitution, so a deficient
matrix is eliminated once.
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


def _back_substitute(rows: list[list[int]], n: int, col: int, d: int) -> list[int]:
    """d x for the upper-triangular system rows[:n][:n] x = rows[:n][col].

    Exact when d x is an integer vector: every step then divides
    ``rows[r][r] * y[r]`` by ``rows[r][r]``.
    """
    y = [0] * n
    for r in range(n - 1, -1, -1):
        row = rows[r]
        acc = d * row[col]
        for j in range(r + 1, n):
            if row[j]:
                acc -= row[j] * y[j]
        y[r] = acc // row[r]
    return y


def _reduced(nums: list[int], d: int) -> tuple[list[int], int]:
    """nums / d with a positive denominator sharing no factor with all of nums."""
    g = math.gcd(d, *nums)
    if d < 0:
        g = -g
    return [v // g for v in nums], d // g


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
    return _reduced(_back_substitute(aug, n, n, d), d)


def rank_and_kernel(rows: list[list[int]]) -> tuple[int, tuple[list[int], int] | None]:
    """Exact rank and, below full column rank, one kernel vector (consumes ``rows``).

    The kernel vector is returned as (numerators, positive den) in lowest
    terms, or None at full column rank.  It is the first basis vector of the
    reduced-row-echelon kernel: with f the first non-pivot column, x[f] = 1,
    x[f+1:] = 0, and x[:f] solves the leading f pivot columns.  Bareiss
    leaves those columns upper triangular with last pivot d = +-their
    leading f x f minor, so by Cramer's rule d x is an integer vector.
    """
    if not rows or not rows[0]:
        return 0, None
    cols = len(rows[0])
    if mod_rank(rows) == cols:
        return cols, None
    pivot_cols, _ = bareiss_forward(rows)
    rank = len(pivot_cols)
    if rank == cols:
        return rank, None
    f = next((c for c, pc in enumerate(pivot_cols) if c != pc), rank)
    d = rows[f - 1][f - 1] if f else 1
    nums = [-v for v in _back_substitute(rows, f, f, d)] + [d] + [0] * (cols - f - 1)
    return rank, _reduced(nums, d)


def common_denominator(values) -> tuple[list[int], int]:
    """Scale rationals to integers: returns (numerators, positive lcm denominator)."""
    den = 1
    for v in values:
        den = den * v.denominator // math.gcd(den, v.denominator)
    return [v.numerator * (den // v.denominator) for v in values], den
