"""Identifiability classifiers with exact, replayable certificates.

Classification runs as a cascade: dimension counting, the trek-based
necessary criterion (diagonal volatility only), the theorem for simple
graphs, and finally a sampling-plus-exact-rank test.  Positive generic
verdicts are exact -- a single full-column-rank witness at an exactly
computed model covariance is a proof -- while negative verdicts after
repeated rank-deficient samples are probabilistic with an explicit
Schwartz-Zippel-style failure bound.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction

from . import _intkernel
from .graphs import DiGraph, Edge, is_dag, is_simple, necessary_criterion, no_trek_pairs
from .linalg import RatMatrix, Rational, det, matrix_strings
from .lyapunov import (
    CovMatrix,
    VolatilityMatrix,
    _a_rows,
    _h_rows,
    _matrix_to_int_rows,
    _solve_sigma_scaled,
    build_A,
    restrict_A,
    sample_stable_drift,
)


class IdentClass(str, enum.Enum):
    """Classification outcome for a graphical continuous Lyapunov model."""

    GLOBALLY_IDENTIFIABLE = "globally-identifiable"
    GENERICALLY_IDENTIFIABLE_NOT_GLOBAL = "generically-identifiable-not-global"
    NON_IDENTIFIABLE = "non-identifiable"
    UNDETERMINED = "undetermined"


THEOREM_SIMPLE = "theorem-simple"
THEOREM_DAG = "theorem-dag"
EDGE_COUNT_BOUND = "edge-count-bound"
TREK_BOUND = "trek-bound"
FULL_RANK_WITNESS = "full-rank-witness"
RANK_DEFICIT_WITNESS = "rank-deficit-witness"
NO_THEOREM = "no-theorem-route"


@dataclass(frozen=True)
class RankSample:
    """One sampled model point and the exact rank evidence found there."""

    drift: RatMatrix
    sigma: RatMatrix
    rank: int
    kernel_vector: tuple[Rational, ...] = ()

    def to_json(self) -> dict:
        out = {
            "drift": matrix_strings(self.drift),
            "sigma": matrix_strings(self.sigma),
            "rank": self.rank,
        }
        if self.kernel_vector:
            out["kernel_vector"] = [str(x) for x in self.kernel_vector]
        return out


@dataclass(frozen=True)
class Certificate:
    """Why a verdict holds; everything needed to replay the check.

    For a full-rank witness, re-evaluating the edge-restricted coefficient
    matrix at the stored sigma reproduces rank = |E|.  For a rank-deficit
    witness, each stored sample's kernel vector lies exactly in the kernel
    of the restricted matrix at the stored sigma.
    """

    kind: str
    note: str = ""
    edges: tuple[Edge, ...] = ()
    witness: RankSample | None = None
    samples: tuple[RankSample, ...] = ()
    failure_bound: float | None = None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.note:
            out["note"] = self.note
        if self.edges:
            out["edges"] = [list(e) for e in self.edges]
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.samples:
            out["samples"] = [s.to_json() for s in self.samples]
        if self.failure_bound is not None:
            out["failure_bound"] = self.failure_bound
        return out


@dataclass(frozen=True)
class IdentVerdict:
    """A classification together with its certificate."""

    classification: IdentClass
    certificate: Certificate

    def to_json(self) -> dict:
        return {
            "class": self.classification.value,
            "certificate": self.certificate.to_json(),
        }


@dataclass(frozen=True)
class ClassifyConfig:
    """Sampling parameters for the generic-identifiability test.

    Five independent samples with entry bound 2^20 push the failure
    probability of a (probabilistic) non-identifiability verdict below
    2^-40 for every graph on at most five nodes.  :func:`classify` samples
    only graphs with |E| <= p(p+1)/2 = 15 (larger ones stop at the
    edge-count bound), so the degree in :func:`_failure_bound` is at most
    15 * 25 = 375 and the bound is (375 / (2^20 + 1))^5, about 2^-57; even
    |E| = 25, which :func:`check_generic` accepts, gives about 2^-53.
    """

    trials: int = 5
    bound: int = 2**20
    seed: int = 0
    use_kernel_route: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.bound < 1:
            raise ValueError(f"bound must be >= 1, got {self.bound}")


# ---------------------------------------------------------------------------
# Theorem-backed global classification
# ---------------------------------------------------------------------------


def check_global(g: DiGraph, vol: VolatilityMatrix) -> IdentVerdict:
    """Theorem-route global identifiability.

    Simple graphs (in particular DAGs) are globally identifiable for every
    positive definite volatility matrix.  A non-simple graph with diagonal
    volatility is never globally identifiable; the finer generic/non
    distinction is left to :func:`check_generic`.  For non-simple graphs
    with non-diagonal volatility no theorem applies and the verdict stays
    undetermined (an exact rank analysis may still settle it).
    """
    if is_simple(g):
        kind = THEOREM_DAG if is_dag(g) else THEOREM_SIMPLE
        return IdentVerdict(IdentClass.GLOBALLY_IDENTIFIABLE, Certificate(kind=kind))
    if vol.diagonal:
        return IdentVerdict(
            IdentClass.UNDETERMINED,
            Certificate(
                kind=NO_THEOREM,
                note=(
                    "non-simple graph with diagonal volatility is not globally "
                    "identifiable; run check_generic for the finer class"
                ),
            ),
        )
    return IdentVerdict(
        IdentClass.UNDETERMINED,
        Certificate(
            kind=NO_THEOREM,
            note=(
                "non-simple graph with non-diagonal volatility: no theorem route; "
                "an exact rank analysis may still settle the class"
            ),
        ),
    )


# ---------------------------------------------------------------------------
# Sampling plus exact rank
# ---------------------------------------------------------------------------


def _derive_rng(seed: int, salt: int) -> random.Random:
    return random.Random((seed << 16) ^ salt)


def _failure_bound(g: DiGraph, bound: int, trials: int) -> float:
    """Probability that a generically identifiable ``g`` has every sample deficient.

    Cramer's rule on the Lyapunov system K vec(Sigma) = -vec(C), with
    K = I (x) M + M (x) I, gives det(K) Sigma = adj(K)(-vec C): entries that
    are polynomials of degree at most p^2 - 1 in the drift entries.  A(Sigma)
    is linear in Sigma, so an |E| x |E| minor f of A(det(K) Sigma) restricted
    to the edges is a polynomial of degree at most |E| (p^2 - 1) <= |E| p^2,
    and it vanishes at a stable M (det(K) != 0) exactly when the same minor
    of A(Sigma) does.  If ``g`` is generically identifiable, some such f is
    not the zero polynomial.  Schwartz-Zippel bounds Pr[f(M) = 0] by
    degree / s when each variable, conditional on the variables drawn before
    it, is uniform on a set of at least s values: the usual induction on the
    last variable only uses that conditional law.  Take the off-diagonal
    entries first (2 bound + 1 values each), then each diagonal entry, which
    given the off-diagonal ones is a fixed shift minus a uniform draw from
    [0, bound]: s = bound + 1.  Samples are drawn independently, so the
    per-sample bounds multiply.  The kernel (H) route decides the same rank
    condition at each sampled Sigma, so the bound covers it too.
    """
    degree = g.num_edges * g.p * g.p
    per_sample = min(1.0, degree / (bound + 1))
    return per_sample**trials


def _rank_test_at_sample(g: DiGraph, c_rows: list[list[int]], rng: random.Random,
                         bound: int, use_kernel: bool):
    """Sample one stable drift, solve exactly, and rank-test the restriction.

    ``c_rows`` is the integer-scaled volatility; the returned sigma solves
    the Lyapunov equation for (M, c_rows) and the caller undoes the scale.
    Returns (drift, sigma, achieved rank, target rank, kernel vector), the
    kernel vector being an edge-indexed nonzero vector in the kernel of the
    restricted A at sigma, or () at full rank.
    """
    p = g.p
    drift = sample_stable_drift(g, rng, bound)
    m_rows = [[int(x) for x in drift.matrix.row(i)] for i in range(p)]
    n_mat, den = _solve_sigma_scaled(m_rows, c_rows, p)
    if use_kernel:
        target = p * (p - 1) // 2
        achieved = _intkernel.int_rank(_h_rows(n_mat, g.non_edges()))
        kernel = None
        if achieved < target:
            # A is linear in Sigma = N / den, so A(N) has the kernel of A(Sigma)
            _, kernel = _intkernel.rank_and_kernel(_a_rows(n_mat, g.edge_index()))
    else:
        target = g.num_edges
        achieved, kernel = _intkernel.rank_and_kernel(_a_rows(n_mat, g.edge_index()))
    sigma = RatMatrix(p, p, [Fraction(v, den) for row in n_mat for v in row])
    kernel_vec = () if kernel is None else tuple(Fraction(v, kernel[1]) for v in kernel[0])
    return drift, sigma, achieved, target, kernel_vec


def _generic_by_sampling(g: DiGraph, vol: VolatilityMatrix, cfg: ClassifyConfig) -> IdentVerdict:
    if is_simple(g):
        return check_global(g, vol)

    # With diagonal volatility the identifiability class matches the
    # identity-volatility model, so sampling may use C = I_p.
    substituted = vol.diagonal and vol.matrix != RatMatrix.identity(g.p)
    c_matrix = RatMatrix.identity(g.p) if substituted else vol.matrix
    c_rows, gamma = _matrix_to_int_rows(c_matrix)
    edges = tuple(g.edge_index())
    notes = [
        "kernel-restriction (H) route" if cfg.use_kernel_route else "coefficient (A) route"
    ]
    if substituted:
        notes.append("sampled with identity volatility (diagonal C equivalence)")

    rng = _derive_rng(cfg.seed, salt=g.p)
    deficits: list[RankSample] = []
    for _ in range(cfg.trials):
        drift, sigma_scaled, achieved, target, kernel_vec = _rank_test_at_sample(
            g, c_rows, rng, cfg.bound, cfg.use_kernel_route
        )
        # sigma_scaled solves (M, gamma * C_sampled); rescale to solve (M, C_sampled).
        sigma = sigma_scaled.scale(Fraction(1, gamma)) if gamma != 1 else sigma_scaled
        if achieved == target:
            witness = RankSample(drift=drift.matrix, sigma=sigma, rank=achieved)
            if not vol.diagonal:
                notes.append(
                    "volatility is non-diagonal: global identifiability undetermined, "
                    "verdict records generic identifiability only"
                )
            return IdentVerdict(
                IdentClass.GENERICALLY_IDENTIFIABLE_NOT_GLOBAL,
                Certificate(
                    kind=FULL_RANK_WITNESS,
                    note="; ".join(notes),
                    edges=edges,
                    witness=witness,
                ),
            )
        deficits.append(
            RankSample(
                drift=drift.matrix, sigma=sigma, rank=achieved, kernel_vector=kernel_vec
            )
        )
    return IdentVerdict(
        IdentClass.NON_IDENTIFIABLE,
        Certificate(
            kind=RANK_DEFICIT_WITNESS,
            note="; ".join(
                notes
                + [
                    f"all {cfg.trials} samples rank-deficient; failure bound "
                    f"(degree {g.num_edges * g.p * g.p} over {cfg.bound + 1} values per entry)"
                ]
            ),
            edges=edges,
            samples=tuple(deficits),
            failure_bound=_failure_bound(g, cfg.bound, cfg.trials),
        ),
    )


def check_generic(
    g: DiGraph,
    vol: VolatilityMatrix,
    trials: int = 5,
    bound: int = 2**20,
    seed: int = 0,
) -> IdentVerdict:
    """Sampling-plus-exact-rank classification via the coefficient matrix.

    Any sample whose edge-restricted coefficient matrix reaches full column
    rank |E| proves generic identifiability outright; if every sample is
    rank-deficient the model is declared non-identifiable with an explicit
    per-sample kernel vector and a stated failure bound.
    """
    return _generic_by_sampling(g, vol, ClassifyConfig(trials, bound, seed))


def check_generic_via_kernel(
    g: DiGraph,
    vol: VolatilityMatrix,
    trials: int = 5,
    bound: int = 2**20,
    seed: int = 0,
) -> IdentVerdict:
    """Same verdict as :func:`check_generic`, computed from the kernel basis.

    Tests whether the non-edge row restriction of H(Sigma) has full column
    rank p(p-1)/2; at any fixed positive definite Sigma this is equivalent
    to the coefficient-matrix rank condition, so the two routes agree.
    """
    return _generic_by_sampling(
        g, vol, ClassifyConfig(trials, bound, seed, use_kernel_route=True)
    )


def classify(
    g: DiGraph, vol: VolatilityMatrix, cfg: ClassifyConfig | None = None
) -> IdentVerdict:
    """Full decision cascade for one graph and volatility matrix.

    Order: edge-count dimension bound, trek-based necessary criterion
    (diagonal volatility), the simple-graph theorem, then the sampling
    rank test.  Certificates record which stage decided.
    """
    cfg = cfg or ClassifyConfig()
    p = g.p
    bound_dim = p * (p + 1) // 2
    if g.num_edges > bound_dim:
        return IdentVerdict(
            IdentClass.NON_IDENTIFIABLE,
            Certificate(
                kind=EDGE_COUNT_BOUND,
                note=f"|E| = {g.num_edges} exceeds the model dimension bound {bound_dim}",
            ),
        )
    if vol.diagonal and not necessary_criterion(g):
        pairs = no_trek_pairs(g)
        return IdentVerdict(
            IdentClass.NON_IDENTIFIABLE,
            Certificate(
                kind=TREK_BOUND,
                note=(
                    f"|E| = {g.num_edges} > {bound_dim} - {pairs} "
                    f"(trek-adjusted dimension bound)"
                ),
            ),
        )
    return _generic_by_sampling(g, vol, cfg)


# ---------------------------------------------------------------------------
# Determinant identities and positivity sampling
# ---------------------------------------------------------------------------


def dag_determinant_identity(g: DiGraph, sigma: CovMatrix) -> tuple[Rational, Rational]:
    """(|det| of the restriction, 2^p times the product of trailing principal minors).

    Only defined for the complete acyclic graph with edges i -> j, i >= j;
    the two components agree for every symmetric positive definite sigma.

    Raises:
        ValueError: if ``g`` is not that graph.
    """
    p = g.p
    expected = frozenset((i, j) for i in range(1, p + 1) for j in range(1, i + 1))
    if g.edges != expected:
        raise ValueError("graph must be the complete DAG with edges i -> j for i >= j")
    s = sigma.matrix
    lhs = abs(det(restrict_A(build_A(sigma), g)))
    product = Fraction(2) ** p
    for i in range(p):
        idx = list(range(i, p))
        product *= det(s.select_rows(idx).select_columns(idx))
    return lhs, product


def cycle3_determinant_identity(sigma: CovMatrix) -> tuple[Rational, Rational]:
    """(det of the 3-cycle restriction, its closed-form factorization).

    The restriction determinant equals
    8 det(Sigma) (S11 S22 S33 - S12 S13 S23); the second factor is positive
    whenever Sigma is positive definite.

    Raises:
        ValueError: unless sigma is 3 x 3.
    """
    s = sigma.matrix
    if s.rows != 3:
        raise ValueError("the 3-cycle identity needs a 3 x 3 sigma")
    from .catalog import three_cycle

    lhs = det(restrict_A(build_A(sigma), three_cycle()))
    factor = s[0, 0] * s[1, 1] * s[2, 2] - s[0, 1] * s[0, 2] * s[1, 2]
    return lhs, 8 * det(s) * factor


@dataclass(frozen=True)
class PositivityReport:
    """Sign statistics of the restricted-kernel determinant over PD samples."""

    graph: DiGraph
    trials: int
    positive: int
    negative: int
    zero: int
    square: bool  # determinant when square, full-column-rank check otherwise

    @property
    def all_nonzero(self) -> bool:
        return self.zero == 0

    def to_json(self) -> dict:
        return {
            "p": self.graph.p,
            "edges": [list(e) for e in self.graph.edge_index()],
            "trials": self.trials,
            "positive": self.positive,
            "negative": self.negative,
            "zero": self.zero,
            "square": self.square,
            "all_nonzero": self.all_nonzero,
        }


def positivity_sample(
    g: DiGraph, trials: int, seed: int = 0, entry_bound: int = 9
) -> PositivityReport:
    """Evaluate the restricted kernel determinant at Cholesky-sampled PD points.

    Draws Sigma = L L^T for random rational lower-triangular L with positive
    diagonal and reports the sign statistics of det of the non-edge row
    restriction of H(Sigma) (full-column-rank counts as nonzero when the
    restriction is not square).  For a simple graph the value must never
    vanish on the positive definite cone.

    Raises:
        ValueError: if ``g`` is not simple.
    """
    if not is_simple(g):
        raise ValueError("positivity sampling applies to simple graphs")
    rng = _derive_rng(seed, salt=0x9E3779B9 ^ g.p)
    p = g.p
    non_edges = g.non_edges()
    cols = p * (p - 1) // 2
    square = len(non_edges) == cols
    pos = neg = zero = 0
    for _ in range(trials):
        low = [[0] * p for _ in range(p)]
        for i in range(p):
            low[i][i] = rng.randint(1, entry_bound)
            for j in range(i):
                low[i][j] = rng.randint(-entry_bound, entry_bound)
        sig = [
            [sum(low[i][t] * low[j][t] for t in range(p)) for j in range(p)]
            for i in range(p)
        ]
        restricted = _h_rows(sig, non_edges)
        if square:
            value = _intkernel.int_det(restricted)
            if value > 0:
                pos += 1
            elif value < 0:
                neg += 1
            else:
                zero += 1
        else:
            full = _intkernel.int_rank(restricted) == cols
            if full:
                pos += 1
            else:
                zero += 1
    return PositivityReport(
        graph=g, trials=trials, positive=pos, negative=neg, zero=zero, square=square
    )
