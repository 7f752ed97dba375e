"""Named property suites: machine-checkable invariants of the whole pipeline.

Each suite draws random instances from a seeded generator, verifies an
exact identity (or a floating-point spectral fact, clearly marked as such)
and reports per-check pass/fail with a counterexample dump on failure.
The suites back the ``props`` command and double as regression checks for
the builders.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import _intkernel
from .catalog import fan_in_two_cycle, two_cycle
from .graphs import DiGraph, no_trek_pairs, ancestor_sets
from .identifiability import (
    FULL_RANK_WITNESS,
    ClassifyConfig,
    IdentClass,
    classify,
    cycle3_determinant_identity,
    dag_determinant_identity,
)
from .linalg import RatMatrix, rank, sym_pairs, vec
from .lyapunov import (
    CovMatrix,
    DriftMatrix,
    VolatilityMatrix,
    build_A,
    build_H,
    sample_stable_drift,
    solve_for_sigma,
)


@dataclass(frozen=True)
class CheckResult:
    label: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        out = {"label": self.label, "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class SuiteResult:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def record(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(label, ok, detail))

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


# ---------------------------------------------------------------------------
# Random instance generators (seeded, exact)
# ---------------------------------------------------------------------------


def random_pd_matrix(p: int, rng: random.Random) -> RatMatrix:
    """A random rational positive definite matrix L L^T, L lower-triangular
    with entries n / d, |n| <= 6 (n >= 1 on the diagonal) and 1 <= d <= 3."""
    low = [[Fraction(0)] * p for _ in range(p)]
    for i in range(p):
        low[i][i] = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        for j in range(i):
            low[i][j] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    ent = [
        sum(low[i][t] * low[j][t] for t in range(p)) for i in range(p) for j in range(p)
    ]
    return RatMatrix(p, p, ent)


def random_volatility(p: int, rng: random.Random, diagonal: bool = False) -> VolatilityMatrix:
    if diagonal:
        return VolatilityMatrix(
            RatMatrix.diagonal([Fraction(rng.randint(1, 9)) for _ in range(p)])
        )
    return VolatilityMatrix(random_pd_matrix(p, rng))


def complete_graph(p: int) -> DiGraph:
    return DiGraph(
        p, frozenset((i, j) for i in range(1, p + 1) for j in range(1, p + 1))
    )


# ---------------------------------------------------------------------------
# Cross-check constructions: the Kronecker sum and the product form of A(Sigma)
# ---------------------------------------------------------------------------


def kron(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Kronecker product, shape (a.rows*b.rows) x (a.cols*b.cols)."""
    out = []
    for i in range(a.rows):
        for r in range(b.rows):
            brow = b.row(r)
            for j in range(a.cols):
                aij = a[i, j]
                out.extend(aij * x for x in brow)
    return RatMatrix(a.rows * b.rows, a.cols * b.cols, out)


def commutation_matrix(p: int) -> RatMatrix:
    """The p^2 x p^2 permutation K_p with K_p vec(M) = vec(M^T)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    n = p * p
    ent = [Fraction(0)] * (n * n)
    for r in range(p):
        for c in range(p):
            # vec(M^T) position of M[r, c] is r*p + c; vec(M) position is c*p + r.
            ent[(r * p + c) * n + (c * p + r)] = Fraction(1)
    return RatMatrix(n, n, ent)


def atilde(sigma: RatMatrix) -> RatMatrix:
    """The square p^2 x p^2 form Sigma (x) I + (I (x) Sigma) K_p."""
    p = sigma.rows
    eye = RatMatrix.identity(p)
    return kron(sigma, eye) + kron(eye, sigma) @ commutation_matrix(p)


def build_A_product(sigma: RatMatrix) -> RatMatrix:
    """A(Sigma) from the product form: the k <= l rows of atilde(Sigma).

    Cross-validates :func:`lyapid.lyapunov.build_A`; the two constructions
    agree entrywise.
    """
    p = sigma.rows
    rows = [(l - 1) * p + (k - 1) for (k, l) in sym_pairs(p)]
    return atilde(sigma).select_rows(rows)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_spectral(trials: int = 50, seed: int = 0) -> SuiteResult:
    """Nonzero eigenvalues of the square-form coefficient matrix are the
    pairwise sums of the eigenvalues of Sigma (floating point, 1e-8)."""
    np = _intkernel.numpy()
    result = SuiteResult("spectral")
    rng = random.Random(seed)
    for p in range(2, 6):
        worst = 0.0
        ok = True
        for _ in range(trials):
            sigma = random_pd_matrix(p, rng)
            at = np.array(atilde(sigma).to_floats())
            eig_at = np.linalg.eigvals(at)
            lam = np.linalg.eigvalsh(np.array(sigma.to_floats()))
            expected = [lam[i] + lam[j] for i in range(p) for j in range(i, p)]
            expected += [0.0] * (p * (p - 1) // 2)
            scale = max(1.0, float(np.max(np.abs(expected))))
            # The spectrum is real; tiny imaginary parts are numerical noise.
            err = float(np.max(np.abs(eig_at.imag))) / scale
            err = max(
                err,
                float(np.max(np.abs(np.sort(eig_at.real) - np.sort(expected)))) / scale,
            )
            worst = max(worst, err)
            if err > 1e-8:
                ok = False
        result.record(
            f"p={p}: eigenvalue multiset matches pairwise sums",
            ok,
            f"worst relative error {worst:.2e}",
        )
    return result


def suite_dagdet(trials: int = 100, seed: int = 0) -> SuiteResult:
    """Restriction determinant of the complete DAG factors into principal minors."""
    result = SuiteResult("dagdet")
    rng = random.Random(seed)
    for p in range(2, 6):
        ok = True
        detail = ""
        for _ in range(trials):
            sigma = CovMatrix(random_pd_matrix(p, rng))
            lhs, rhs = dag_determinant_identity(sigma)
            if lhs != rhs or rhs <= 0:
                ok = False
                detail = f"counterexample sigma={sigma.matrix!r}"
                break
        result.record(f"p={p}: |det| equals 2^p * principal minor product", ok, detail)
    return result


def suite_cycle3(trials: int = 100, seed: int = 0) -> SuiteResult:
    """Exact factorization of the 3-cycle restriction determinant."""
    result = SuiteResult("cycle3")
    rng = random.Random(seed)
    ok_eq = True
    ok_pos = True
    detail = ""
    for _ in range(trials):
        sigma = CovMatrix(random_pd_matrix(3, rng))
        lhs, rhs = cycle3_determinant_identity(sigma)
        s = sigma.matrix
        factor = s[0, 0] * s[1, 1] * s[2, 2] - s[0, 1] * s[0, 2] * s[1, 2]
        if lhs != rhs:
            ok_eq = False
            detail = f"counterexample sigma={s!r}"
        if factor <= 0:
            ok_pos = False
            detail = f"nonpositive factor at sigma={s!r}"
    result.record("determinant equals 8 det(Sigma) (S11 S22 S33 - S12 S13 S23)", ok_eq, detail)
    result.record("last factor positive on PD samples", ok_pos, detail)
    return result


def suite_trek(trials: int = 100, seed: int = 0) -> SuiteResult:
    """No trek between i and j forces Sigma_ij = 0 exactly (diagonal C)."""
    result = SuiteResult("trek")
    rng = random.Random(seed)
    g2 = fan_in_two_cycle()
    ok = True
    detail = ""
    for _ in range(trials):
        drift = sample_stable_drift(g2, rng, bound=9)
        sigma = solve_for_sigma(drift, VolatilityMatrix.identity(4)).matrix
        if sigma[1, 3] != 0 or sigma[2, 3] != 0:
            ok = False
            detail = f"violation at drift={drift.matrix!r}"
            break
    result.record("fan-in graph: Sigma_24 = Sigma_34 = 0 exactly", ok, detail)

    ok_rand = True
    detail = ""
    for _ in range(trials):
        p = rng.choice([3, 4, 5])
        edges = set()
        for i in range(1, p + 1):
            for j in range(1, p + 1):
                if i != j and rng.random() < 0.25:
                    edges.add((i, j))
        g = DiGraph(p, frozenset(edges))
        if no_trek_pairs(g) == 0:
            continue
        drift = sample_stable_drift(g, rng, bound=9)
        vol = random_volatility(p, rng, diagonal=True)
        sigma = solve_for_sigma(drift, vol).matrix
        anc = ancestor_sets(g)
        for i in range(1, p + 1):
            for j in range(i + 1, p + 1):
                if not (anc[i] & anc[j]) and sigma[i - 1, j - 1] != 0:
                    ok_rand = False
                    detail = f"pair ({i},{j}) of {g!r}"
    result.record("random graphs: every no-trek pair has zero covariance", ok_rand, detail)
    return result


def suite_scaling(trials: int = 100, seed: int = 0) -> SuiteResult:
    """Sigma(M, C) also solves the pair (gamma M, gamma C), as matrices."""
    result = SuiteResult("scaling")
    rng = random.Random(seed)
    ok = True
    detail = ""
    for _ in range(trials):
        p = rng.choice([2, 3, 4])
        g = complete_graph(p)
        drift = sample_stable_drift(g, rng, bound=6)
        vol = random_volatility(p, rng)
        gamma = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if rng.random() < 0.5:
            gamma = -gamma
        sigma = solve_for_sigma(drift, vol).matrix
        m2 = drift.matrix.scale(gamma)
        c2 = vol.matrix.scale(gamma)
        residual = m2 @ sigma + sigma @ m2.transpose() + c2
        if any(x != 0 for x in residual.entries):
            ok = False
            detail = f"gamma={gamma} drift={drift.matrix!r}"
            break
    result.record("scaled pair (gamma M, gamma C) keeps the same Sigma", ok, detail)
    return result


def suite_conjugation(trials: int = 100, seed: int = 0) -> SuiteResult:
    """Diagonal-C models are conjugates of the identity-C model.

    Uses diagonal C with rational square entries so the conjugation by
    C^(1/2) stays exact.
    """
    result = SuiteResult("conjugation")
    rng = random.Random(seed)
    ok = True
    detail = ""
    for _ in range(trials):
        p = rng.choice([2, 3, 4])
        g = complete_graph(p)
        drift = sample_stable_drift(g, rng, bound=6)
        roots = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(p)]
        c_half = RatMatrix.diagonal(roots)
        c_half_inv = RatMatrix.diagonal([1 / r for r in roots])
        vol = VolatilityMatrix(RatMatrix.diagonal([r * r for r in roots]))
        sigma = solve_for_sigma(drift, vol).matrix
        m_conj = c_half_inv @ drift.matrix @ c_half
        sigma_conj = solve_for_sigma(
            DriftMatrix.from_matrix(m_conj), VolatilityMatrix.identity(p)
        ).matrix
        if c_half_inv @ sigma @ c_half_inv != sigma_conj:
            ok = False
            detail = f"drift={drift.matrix!r} roots={roots}"
            break
    result.record("C^{-1/2} Sigma C^{-1/2} solves the conjugated identity-C pair", ok, detail)
    return result


def suite_kernel(trials: int = 100, seed: int = 0) -> SuiteResult:
    """H(Sigma) really is a kernel basis, and the two A constructions agree."""
    result = SuiteResult("kernel")
    rng = random.Random(seed)
    ok_prod = ok_kernel = ok_rank = ok_sum = ok_transpose = True
    detail = ""
    for _ in range(trials):
        p = rng.choice([2, 3, 4, 5])
        sigma = random_pd_matrix(p, rng)
        a = build_A(sigma)
        if a != build_A_product(sigma):
            ok_prod = False
            detail = f"sigma={sigma!r}"
        h = build_H(sigma)
        prod = a @ h
        if any(x != 0 for x in prod.entries):
            ok_kernel = False
            detail = f"sigma={sigma!r}"
        rank_h = rank(h)
        if rank_h != p * (p - 1) // 2:
            ok_rank = False
            detail = f"sigma={sigma!r}"
        if rank(a) + rank_h != p * p:
            ok_sum = False
            detail = f"sigma={sigma!r}"
        at_t = atilde(sigma).transpose()
        for k in range(1, p + 1):
            for l in range(k + 1, p + 1):
                skew = [[0] * p for _ in range(p)]
                skew[k - 1][l - 1] = 1
                skew[l - 1][k - 1] = -1
                v = vec(RatMatrix(p, p, [x for row in skew for x in row]))
                if any(x != 0 for x in (at_t @ v).entries):
                    ok_transpose = False
                    detail = f"sigma={sigma!r} pair=({k},{l})"
    result.record("case formula matches the product construction", ok_prod, detail)
    result.record("A(Sigma) H(Sigma) = 0 exactly", ok_kernel, detail)
    result.record("rank H(Sigma) = p(p-1)/2", ok_rank, detail)
    result.record("rank A(Sigma) + rank H(Sigma) = p^2", ok_sum, detail)
    result.record("skew vectorizations span the kernel of the transpose", ok_transpose, detail)
    return result


def suite_appendix_a(trials: int = 100, seed: int = 0) -> SuiteResult:
    """Closed-form covariance entry for the 2-cycle plus isolated node.

    For the graph 1 <-> 2 with isolated node 3 and a general positive
    definite C, Sigma_13 has numerator c23 m12 - c13 (m22 + m33) over a
    denominator positive on the stable region; with c13 or c23 nonzero the
    graph is generically identifiable via a full-rank witness.
    """
    result = SuiteResult("appendixA")
    rng = random.Random(seed)
    g = two_cycle(3)
    ok = True
    detail = ""
    for _ in range(trials):
        drift = sample_stable_drift(g, rng, bound=9)
        vol = random_volatility(3, rng)
        m, c = drift.matrix, vol.matrix
        sigma = solve_for_sigma(drift, vol).matrix
        numerator = c[1, 2] * m[0, 1] - c[0, 2] * (m[1, 1] + m[2, 2])
        denominator = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) + m[2, 2] * (
            m[0, 0] + m[1, 1] + m[2, 2]
        )
        if denominator <= 0 or sigma[0, 2] * denominator != numerator:
            ok = False
            detail = f"drift={m!r} vol={c!r}"
            break
    result.record("Sigma_13 numerator is c23 m12 - c13 (m22 + m33)", ok, detail)

    vol = VolatilityMatrix(
        RatMatrix.from_rows([[2, 0, 1], [0, 2, 0], [1, 0, 2]])
    )
    verdict = classify(g, vol, ClassifyConfig(trials=3, bound=2**10, seed=seed))
    result.record(
        "off-diagonal volatility upgrades the 2-cycle-plus-node to generic",
        verdict.classification is IdentClass.GENERICALLY_IDENTIFIABLE_NOT_GLOBAL
        and verdict.certificate.kind == FULL_RANK_WITNESS,
        verdict.certificate.note,
    )
    return result


SUITES = {
    "spectral": suite_spectral,
    "dagdet": suite_dagdet,
    "cycle3": suite_cycle3,
    "trek": suite_trek,
    "scaling": suite_scaling,
    "conjugation": suite_conjugation,
    "kernel": suite_kernel,
    "appendixA": suite_appendix_a,
}


def run_suite(name: str, trials: int = 100, seed: int = 0) -> SuiteResult:
    """Run one named suite.

    Raises:
        KeyError: for an unknown suite name.
    """
    return SUITES[name](trials=trials, seed=seed)
