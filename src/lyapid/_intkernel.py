"""The package's single exact elimination kernel, with one loop per arithmetic.

- :func:`bareiss_forward`, fraction-free elimination over the integers:
  ranks, determinants, affine solves and positive definiteness.
- :func:`mod_echelon`, row echelon form over GF(MOD_PRIME) on int lists:
  full-rank proofs and the pivot rows of the kernel solve.
- :func:`mod_gauss`, forward Gaussian elimination over GF(MOD_PRIME) on
  numpy stacks: the sweep's batched screen.

Every rank, determinant and square solve that feeds a verdict runs on rows
of plain Python ints.  Rational matrices reach it through
:func:`common_denominator`, which scales values to integers by their lcm
denominator; rank and solutions are invariant under such row scalings, and
a determinant only needs the scales divided back out.

:func:`rank_and_kernel` decides every exact rank.  It first eliminates
over GF(q).  Reducing mod q maps every minor to its residue, so the rank
over GF(q) never exceeds the rank over Q; a full column rank found mod q
is therefore the exact rank, and ``linalg.rank`` ranks a wide matrix as
its transpose to get one.  Only a matrix that is deficient mod q --
rank-deficient over Q, or unluckily divisible by q -- pays for more.
Every solve back-substitutes in integers (:func:`_back_substitute`), using
Cramer's rule to keep every intermediate integral.  A square solve may be
given diagonal blocks of a block lower triangular system, as the vech
Lyapunov system is along the drift's strong components: it then eliminates
block by block, for about the sum of the blocks' cubes, not n^3, and
returns the dense solve's reduced solution.  Without a row exchange
the k-th Bareiss pivot is the k-th leading principal minor (Sylvester),
which is all :func:`leading_minors_positive` needs.

Below full column rank, :func:`rank_and_kernel` also returns the first
reduced-row-echelon kernel vector x: with f the first non-pivot column,
x[f] = 1, x[f+1:] = 0 and x[:f] solves the first f columns.  When the
rank mod q is exactly n - 1 (n columns), f and the rows S of the first f
pivots come from the mod-q echelon, x[:f] = y solves B y = -a by
:func:`solve_square_int`, B being rows S of columns :f and a rows S of
column f, and x is checked exactly against every row.  Each row of [B | a]
is first divided by its content, the gcd of its f + 1 entries: a row
scaling keeps the one solution y, returned in lowest terms with a positive
denominator, so x and every byte built on it stay the same, while Bareiss
pays for every bit.  On H(N)_nonE the contents are large: row (i, j) holds
entries of column j of N = D Sigma, so it carries D divided by the
denominator of column j of Sigma.  The rows then enter the solve smallest
first, by the sum of their entries' bit lengths: reordering the equations
keeps y too, and after k Bareiss steps each entry below is a (k+1)-minor
on the leading k rows and its own, so small leading rows keep those minors
small.  (The primitive rows of one p = 5 sample span 166 to 1,005 bits, in
no order.)  A passing x is the one Bareiss would give:

- det B is nonzero mod q (:func:`mod_echelon`), so it is nonzero over Q:
  columns :f are independent over Q, and the square solve cannot fail.
- The exact check A x = 0 puts column f in their span over Q, so f is
  also the first non-pivot column over Q, and x, the only kernel vector
  with x[f] = 1 and x[f+1:] = 0, is the first RREF kernel vector.  The
  rank is at least n - 1 (a nonzero (n-1)-minor mod q is a nonzero minor
  over Q) and at most n - 1 (x is a nonzero kernel vector).
- y is the only solution of B y = -a, so a failed check means column f
  is not in the span of columns :f over Q: f is not the first non-pivot
  column over Q, and the matrix goes to Bareiss like any other deficit
  mod q.

Any other deficit mod q goes there at once: then one Bareiss pass gives
both the rank and x, by back-substitution against its f-th pivot, +-the
leading f x f minor.

:func:`mod_gauss` eliminates a whole stack of same-shape residue matrices
at once, for callers that bring thousands of small systems
(``identifiability._classify_batch``).  The screen needs only a full-rank
flag per matrix and, for the vech systems, one solved column, so the
elimination runs forward only and back-substitutes just that column.
It proves, never refutes: if the vech Lyapunov system
K vech(Sigma) = -vech(C) is nonsingular mod q, its determinant -- and so
the denominator D of Sigma = N / D -- is a unit mod q, and the solution
mod q is the reduction of Sigma.  H(Sigma) (below) is linear in Sigma, so
H(Sigma mod q) is the reduction of H(Sigma), and a full column rank of its
non-edge rows mod q is a nonzero minor mod q, hence a nonzero minor over
Q: A(Sigma)_E has full column rank.  A zero pivot or a deficit mod q proves
nothing and goes to the exact path.  It stays apart from
:func:`mod_echelon` because numpy pays only in bulk: screening one p = 5
graph costs about 2 ms, four times its exact path, and a batch of
thousands about 0.02 ms a graph, after a 55 ms numpy import.  So
``_classify_batch`` screens only when 192 graphs of a batch reach
sampling, and a lone ``classify`` never does.

Every rank test of the identifiability question -- does A(Sigma)_E, the
columns of A(Sigma) for the edge set E, have full column rank |E|? -- is
decided on the kernel basis H(Sigma) restricted to the non-edges, which is
smaller (at p = 5, (25 - |E|) x 10 against 15 x |E|):

- Column (k, l) of H(Sigma) is vec(Sigma K) for a skew K, so
  A(Sigma) H(Sigma) = 0.  At an invertible Sigma, A(Sigma) maps onto the
  symmetric matrices, so its kernel has dimension m = p(p-1)/2 and is
  exactly the column span of H(Sigma).
- Take x supported on E.  Then A x = 0 exactly when x = H c with
  H_nonE c = 0.  Hence rank A_E = |E| - m + rank H_nonE, and A_E has full
  column rank exactly when H_nonE has full column rank m.
- So for c the kernel vector of H_nonE, x = H_E c is a nonzero kernel
  vector of A_E (H has full column rank, so H c is nonzero).  When
  rank H_nonE = m - 1, x spans the kernel of A_E, and x divided by its
  last nonzero entry is the first reduced-row-echelon kernel vector of
  A_E, the one :func:`rank_and_kernel` returns for A_E.

So every sample costs one :func:`rank_and_kernel` on H_nonE and one
product.  At a kernel of dimension two or more x is still exactly in the
kernel of A_E, but need not be A_E's first RREF vector.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import sys
from operator import mul
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Sequence

    import numpy as np

# The largest prime below 2^16, of both modular eliminations: small, for
# table inverses and unreduced sums in :func:`mod_gauss` and small ints in
# :func:`mod_echelon`.  Read at call time, so a test can swap in a tiny
# prime to force the exact fallback.
MOD_PRIME = 65521


def numpy():
    """The numpy module, imported on first use with one BLAS thread.

    Only the sweep's batched screen (int64 arrays) uses numpy, so
    ``import lyapid``, ``classify``, ``solve``, ``fiber``, the enumeration
    and the p = 4 sweep never load it.  Importing numpy starts OpenBLAS's
    thread pool, whose threads busy-wait for work at start-up, yet no int64
    array ever reaches BLAS and lyapid makes no LAPACK call.  So a first
    import asks for one thread; an ``OPENBLAS_NUM_THREADS`` the caller set
    wins, and a numpy some other code imported first is left as it is.
    """
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy as np

    return np


def bareiss_forward(rows: list[list[int]], limit_cols: int | None = None):
    """In-place fraction-free elimination; returns (pivot_cols, swaps).

    pivot_cols are the columns in which pivots were found, in order; swaps
    is the number of row exchanges.  Rows beyond the pivot rows end up zero
    in the first ``limit_cols`` columns.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    stop = nc if limit_cols is None else limit_cols
    prev = 1
    swaps = 0
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
            swaps += 1
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
    return pivot_cols, swaps


def mod_echelon(rows: list[list[int]]) -> tuple[list[int], list[int]]:
    """Row echelon form over GF(MOD_PRIME), with row exchanges; ``rows`` is left intact.

    Returns (pivot_cols, pivot_rows): the columns in which pivots were
    found, in order, and the original index of each pivot's row.  The
    number of pivots, the rank mod q, never exceeds the rank over Q, and
    for every k the first k pivot rows and pivot columns of ``rows`` form a
    minor that is nonzero mod q.
    """
    q = MOD_PRIME
    work = [[x % q for x in row] for row in rows]
    order = list(range(len(work)))
    nr = len(work)
    nc = len(work[0]) if nr else 0
    pivot_cols: list[int] = []
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
        order[r], order[piv] = order[piv], order[r]
        tail = work[r][c + 1:]
        inv = pow(work[r][c], -1, q)
        for i in range(r + 1, nr):
            row = work[i]
            m = row[c] * inv % q
            if m:
                row[c + 1:] = [(a - m * b) % q for a, b in zip(row[c + 1:], tail)]
        pivot_cols.append(c)
        r += 1
        if r == nr:
            break
    return pivot_cols, order[:r]


def int_det(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (consumes ``rows``)."""
    n = len(rows)
    if n == 0:
        return 1
    pivot_cols, swaps = bareiss_forward(rows)
    if len(pivot_cols) < n:
        return 0
    return (-1) ** swaps * rows[n - 1][n - 1]


def leading_minors_positive(rows: list[list[int]]) -> bool:
    """Whether every leading principal minor of a square integer matrix is positive.

    While Bareiss exchanges no row, its k-th pivot is the k-th leading
    principal minor (Sylvester's identity); a zero leading minor forces an
    exchange or a skipped column.  So the minors are all positive exactly
    when one pass makes no exchange and finds n positive pivots.  ``rows``
    is left intact.
    """
    work = [list(row) for row in rows]
    pivot_cols, swaps = bareiss_forward(work)
    return not swaps and len(pivot_cols) == len(work) and all(work[k][k] > 0 for k in pivot_cols)


@functools.cache
def _inverse_table(q: int) -> np.ndarray:
    """inv[x] = x^-1 mod q for 0 < x < q, and inv[0] = 0, as uint16 (q < 2^16),
    filled with the powers of a g of order q - 1 (g^e != 1 for each proper
    divisor e of q - 1) in blocks of 1,024, each a small part of the table."""
    np = numpy()
    n = q - 1
    divisors = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    g = next(g for g in range(1, q)
             if all(pow(g, e, q) != 1 for d in divisors for e in (d, n // d) if e < n))
    size = min(n, 1024)
    up = np.fromiter(itertools.accumulate(range(1, size), lambda x, _: x * g % q, initial=1),
                     np.uint32, size)  # g^j for j < size
    down = up[::-1] * pow(g, n + 1 - size, q) % q  # g^-j = g^(n + 1 - size) g^(size - 1 - j)
    table = np.zeros(q, dtype=np.uint16)
    for start in range(0, n, size):
        # g^(start + j) has inverse g^-start g^-j; a product of residues is below 2^32
        table[up[:n - start] * pow(g, start, q) % q] = down[:n - start] * pow(g, -start, q) % q
    return table


def mod_gauss(stack: np.ndarray, limit_cols: int | None = None):
    """Gaussian elimination over GF(MOD_PRIME) on a stack of same-shape matrices.

    ``stack`` is a (rows, cols, batch) int64 array of residues in [0, q):
    matrix k is ``stack[:, :, k]``, so each row operation runs over
    contiguous memory.  Column c of every matrix is eliminated at row c,
    after a swap that brings up the first row at or below c that is nonzero
    there.  Only that column and the pivot row, once normalised, are
    reduced; the rows below take each update, a product below q^2,
    unreduced.  After 22 steps (the p = 6 vech system is 21 x 22) every
    entry lies within 22 (q-1)^2 + q < 2^37 of 0, and times an inverse within
    2^53.  Returns (full, work): ``full[k]`` says that each of the first
    ``limit_cols`` columns (all by default) of matrix k got a pivot, i.e.
    they have full column rank mod q.  Then the columns from ``limit_cols``
    on are back-substituted, so for an augmented system [K | b] rows
    :limit_cols of column ``limit_cols`` of ``work[:, :, k]`` are K^-1 b
    mod q.  Where ``full[k]`` is False only the flag is meaningful.
    """
    np = numpy()
    q = MOD_PRIME
    inverse = _inverse_table(q)
    work = np.array(stack, dtype=np.int64)
    nr, nc, batch = work.shape
    stop = nc if limit_cols is None else limit_cols
    full = np.full(batch, stop <= nr)
    if stop > nr:
        return full, work
    for c in range(stop):
        work[c:, c] %= q
        nonzero = work[c:, c] != 0
        full &= nonzero.any(axis=0)
        # Rows above c are final and every row at or below c is zero mod q
        # left of column c, so a swap need only move columns c: of the few
        # matrices whose pivot is not already in place.
        swap = np.flatnonzero(~nonzero[0])
        if swap.size:
            piv = c + nonzero[:, swap].argmax(axis=0)
            pivot_rows = work[piv, c:, swap]
            work[piv, c:, swap] = work[c, c:, swap]
            work[c, c:, swap] = pivot_rows
        pivot_row = work[c, c:]
        pivot_row *= inverse[pivot_row[0]]
        pivot_row %= q
        below = work[c + 1:, c:]
        below -= below[:, :1] * pivot_row
    if nc > stop:
        # Unit upper-triangular back-substitution on the reduced pivot rows:
        # each product is below q^2 < 2^32, so their sum is reduced once.
        for r in range(stop - 2, -1, -1):
            products = work[r, r + 1:stop, None] * work[r + 1:stop, stop:]
            work[r, stop:] = (work[r, stop:] - products.sum(axis=0)) % q
    return full, work


def _back_substitute(rows: list[list[int]], pivot_cols, col: int, d: int) -> list[int]:
    """d x for the echelon system sum_k rows[r][pivot_cols[k]] x[k] = rows[r][col].

    Exact when d x is an integer vector, as it is for d = the last pivot,
    +-the minor of the pivot rows and columns (Cramer's rule).
    """
    n = len(pivot_cols)
    y = [0] * n
    for r in range(n - 1, -1, -1):
        row = rows[r]
        acc = d * row[col]
        for k in range(r + 1, n):
            v = row[pivot_cols[k]]
            if v:
                acc -= v * y[k]
        y[r] = acc // row[pivot_cols[r]]
    return y


def _reduced(nums: list[int], d: int) -> tuple[list[int], int]:
    """nums / d with a positive denominator sharing no factor with all of nums."""
    g = math.gcd(d, *nums)
    if d < 0:
        g = -g
    return [v // g for v in nums], d // g


def solve_square_int(a_rows: list[list[int]], b: list[int],
                     blocks: Sequence[Sequence[int]] | None = None) -> tuple[list[int], int]:
    """Exact solution x = nums / den of a square nonsingular integer system.

    ``blocks`` partitions the unknowns into diagonal blocks (one by
    default), ordered so that no row has a nonzero in a later block's
    columns.  Each block subtracts the solved x = nums / den from its right
    side times den and runs Bareiss on its square.  Its last pivot d is
    +-its determinant, so by Cramer's rule back-substituting against d
    gives integral nums over den d; the earlier nums and den are multiplied
    by d.  det A is the blocks' product, so a singular A fails at a block.
    ``den`` is positive and shares no factor with all of ``nums``: the pair
    is :func:`common_denominator` of x, whatever the partition.

    Raises:
        ValueError: if the system is singular.
    """
    nums = [0] * len(a_rows)
    den = 1
    solved: list[int] = []
    for block in blocks or (range(len(a_rows)),):
        n = len(block)
        aug = [[a_rows[i][j] for j in block]
               + [den * b[i] - sum([a_rows[i][j] * nums[j] for j in solved])] for i in block]
        pivot_cols, _ = bareiss_forward(aug, limit_cols=n)
        if len(pivot_cols) < n:
            raise ValueError("singular system")
        d = aug[n - 1][n - 1] if n else 1
        for j in solved:
            nums[j] *= d
        for i, v in zip(block, _back_substitute(aug, pivot_cols, n, d)):
            nums[i] = v
        den *= d
        solved.extend(block)
    return _reduced(nums, den)


def rank_and_kernel(rows: list[list[int]],
                    cols: int) -> tuple[int, tuple[list[int], int] | None]:
    """Exact rank and, below full column rank, one kernel vector (consumes ``rows``).

    ``rows`` has ``cols`` columns, a count that a matrix with no rows cannot
    tell: it has rank 0 and kernel vector e_0 unless ``cols`` is 0.  The
    kernel vector is returned as (numerators, positive den) in lowest
    terms, or None at full column rank.  It is the first basis vector of the
    reduced-row-echelon kernel: with f the first non-pivot column, x[f] = 1,
    x[f+1:] = 0, and x[:f] solves the leading f pivot columns.  At a rank
    of exactly cols - 1 mod q it is solved on the f pivot rows of the mod-q
    echelon, each cut to columns :f+1 and made primitive (divided by the gcd
    of its entries, which keeps the solution), sorted by size, the sum of
    its entries' bit lengths (which keeps it too, and keeps Bareiss's
    minors of the leading rows small), and checked against every original
    row.  Otherwise, or if the check
    fails, Bareiss leaves those columns upper triangular with last pivot
    d = +-their leading f x f minor, so by Cramer's rule d x is an integer
    vector.
    """
    if not cols:
        return 0, None
    modular_cols, modular_rows = mod_echelon(rows)
    if len(modular_cols) == cols:
        return cols, None
    if len(modular_cols) == cols - 1:
        f = next((c for c, pc in enumerate(modular_cols) if c != pc), cols - 1)
        basis = [rows[i][:f + 1] for i in modular_rows[:f]]
        basis = [[v // g for v in row] for row in basis for g in (math.gcd(*row),)]
        basis.sort(key=lambda row: sum(v.bit_length() for v in row))
        y, den = solve_square_int([row[:f] for row in basis], [-row[f] for row in basis])
        x = y + [den] + [0] * (cols - f - 1)
        if not any(sum(map(mul, row, x)) for row in rows):
            return cols - 1, (x, den)
    pivot_cols, _ = bareiss_forward(rows)
    rank = len(pivot_cols)
    if rank == cols:
        return rank, None
    f = next((c for c, pc in enumerate(pivot_cols) if c != pc), rank)
    d = rows[f - 1][f - 1] if f else 1
    nums = [-v for v in _back_substitute(rows, range(f), f, d)] + [d] + [0] * (cols - f - 1)
    return rank, _reduced(nums, d)


def common_denominator(values) -> tuple[list[int], int]:
    """Scale rationals to integers: returns (numerators, positive lcm denominator)."""
    den = 1
    for v in values:
        den = den * v.denominator // math.gcd(den, v.denominator)
    return [v.numerator * (den // v.denominator) for v in values], den
