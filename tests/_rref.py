"""The tests' oracle for exact linear solves: Gauss-Jordan on ``Fraction`` rows.

``linalg.solve_linear`` runs on the package's one elimination kernel
(Bareiss, in integers).  This is the textbook reduced row echelon form
instead, independent of that kernel, so a test that compares the two
compares two different eliminations.
"""

from fractions import Fraction

from lyapid.linalg import AFFINE, INCONSISTENT, UNIQUE, RatMatrix, SolutionSet


def rref_solve(a: RatMatrix, b: RatMatrix) -> SolutionSet:
    """Exact solution set of ``a x = b``: the particular solution with every
    free variable 0, and one kernel basis vector per free column f, with
    x[f] = 1 and every other free variable 0."""
    assert b.cols == 1 and a.rows == b.rows
    nr, nc = a.rows, a.cols
    aug = [list(a.row(i)) + [b[i, 0]] for i in range(nr)]
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(nr):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    if any(aug[i][nc] for i in range(r, nr)):
        return SolutionSet(INCONSISTENT)
    particular = [Fraction(0)] * nc
    for k, c in enumerate(pivots):
        particular[c] = aug[k][nc]
    x0 = RatMatrix.column(particular)
    free = [c for c in range(nc) if c not in pivots]
    if not free:
        return SolutionSet(UNIQUE, particular=x0)
    basis_cols = []
    for f in free:
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for k, c in enumerate(pivots):
            v[c] = -aug[k][f]
        basis_cols.append(v)
    kernel = RatMatrix(nc, len(free), [col[i] for i in range(nc) for col in basis_cols])
    return SolutionSet(AFFINE, particular=x0, kernel=kernel)


def rref_inverse(m: RatMatrix) -> RatMatrix:
    """The inverse of a nonsingular square ``m``, one oracle solve per column."""
    n = m.rows
    cols = [rref_solve(m, RatMatrix.identity(n).select_columns([j])).particular
            for j in range(n)]
    return RatMatrix(n, n, [cols[j][i, 0] for i in range(n) for j in range(n)])
