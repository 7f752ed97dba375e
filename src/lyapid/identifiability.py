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
import functools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, ClassVar

from . import _intkernel
from .graphs import (
    DiGraph,
    Edge,
    _is_int,
    _mask_arcs,
    _mask_treks,
    _require,
    is_dag,
)
from .linalg import RatMatrix, Rational, _matrix_to_int_rows
from .lyapunov import (
    VolatilityMatrix,
    _draw_drift_rows,
    _h_rows,
    _solve_sigma_scaled,
    _unvech,
    _vech_system,
)

if TYPE_CHECKING:
    from collections.abc import Iterator

    import numpy as np


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


def _fraction_str(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for d > 0, written without building the Fraction."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


@dataclass(frozen=True)
class RankSample:
    """One sampled model point and the exact rank evidence found there.

    Only integers are stored: the drift as the integer rows it was drawn
    as, the sampled volatility as (integer rows, scale gamma), C = rows /
    gamma, Sigma as (N rows, D gamma), Sigma = N / (D gamma), N symmetric,
    from the exact solve at the drift (``scaled_sigma``), and a kernel vector
    as the lowest-terms (numerators, positive den) of the exact rank test
    (``kernel``; None at full rank).  :meth:`to_json` writes its strings
    straight from the integers; ``drift``, ``sigma`` and ``kernel_vector``
    are exact ``Fraction`` views, each built the first time it is read.
    """

    drift_rows: tuple[tuple[int, ...], ...]
    volatility: tuple[tuple[tuple[int, ...], ...], int]
    rank: int
    scaled_sigma: tuple[tuple[tuple[int, ...], ...], int]
    kernel: tuple[tuple[int, ...], int] | None = None

    @functools.cached_property
    def drift(self) -> RatMatrix:
        p = len(self.drift_rows)
        return RatMatrix(p, p, [x for row in self.drift_rows for x in row])

    @functools.cached_property
    def sigma(self) -> RatMatrix:
        n_mat, den = self.scaled_sigma
        p = len(n_mat)
        return RatMatrix(p, p, [Fraction(v, den) for row in n_mat for v in row])

    @functools.cached_property
    def kernel_vector(self) -> tuple[Rational, ...]:
        if self.kernel is None:
            return ()
        nums, den = self.kernel
        return tuple(Fraction(v, den) for v in nums)

    def to_json(self) -> dict:
        """The sample as exact strings, written from the integers; each Sigma
        entry is written once and mirrored."""
        n_mat, den = self.scaled_sigma
        p = len(n_mat)
        sigma = [[""] * p for _ in range(p)]
        for r in range(p):
            for c in range(r, p):
                sigma[r][c] = sigma[c][r] = _fraction_str(n_mat[r][c], den)
        out = {"drift": [list(map(str, row)) for row in self.drift_rows], "sigma": sigma,
               "rank": self.rank}
        if self.kernel is not None:
            nums, scale = self.kernel
            out["kernel_vector"] = [_fraction_str(v, scale) for v in nums]
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
    """The seed of the generic-identifiability test; its sampling is fixed.

    Five independent samples (``trials``) with entry bound 2^20 (``bound``)
    push the failure probability of a (probabilistic) non-identifiability
    verdict of :func:`classify` below 2^-40 for every graph on at most nine
    nodes.  :func:`classify` samples only graphs with |E| <= p(p+1)/2
    (larger ones stop at the edge-count bound), so the degree in
    :func:`_failure_bound` is at most p^3 (p+1) / 2 and the bound is
    (degree / (2^20 + 1))^5: about 2^-57 at p = 5, 2^-52 at p = 6 and
    2^-40.8 at p = 9, but 2^-37.9 at p = 10.  Nothing enforces 2^-40: a
    certificate states the bound that holds for it, which exceeds 2^-40
    from p = 10 on.

    Raises:
        ValueError: unless ``seed`` is an ``int`` (a ``bool`` is not).
    """

    trials: ClassVar[int] = 5
    bound: ClassVar[int] = 2**20
    seed: int = 0

    def __post_init__(self):
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")


# ---------------------------------------------------------------------------
# Sampling plus exact rank
# ---------------------------------------------------------------------------


def _derive_rng(seed: int, salt: int) -> random.Random:
    return random.Random((seed << 16) ^ salt)


def _failure_bound(degree: int, bound: int, trials: int) -> float:
    """Probability that a generically identifiable g has every sample deficient.

    Cramer's rule on the Lyapunov system K vec(Sigma) = -vec(C), with
    K = I (x) M + M (x) I, gives det(K) Sigma = adj(K)(-vec C): entries that
    are polynomials of degree at most p^2 - 1 in the drift entries.  A(Sigma)
    is linear in Sigma, so an |E| x |E| minor f of A(det(K) Sigma) restricted
    to the edges is a polynomial of degree at most |E| (p^2 - 1) <= |E| p^2
    = ``degree``, and it vanishes at a stable M (det(K) != 0) exactly when
    the same minor of A(Sigma) does.  If g is generically identifiable, some
    such f is not the zero polynomial.  Schwartz-Zippel bounds Pr[f(M) = 0]
    by degree / s when each variable, conditional on the variables drawn
    before it, is uniform on a set of at least s values: the usual induction
    on the last variable only uses that conditional law.  Take the
    off-diagonal entries first (2 bound + 1 values each), then each diagonal
    entry, which given the off-diagonal ones is a fixed shift minus a
    uniform draw from [0, bound]: s = bound + 1.  Samples are drawn
    independently, so the per-sample bounds multiply.
    """
    per_sample = min(1.0, degree / (bound + 1))
    return per_sample**trials


def _rank_test_at_sample(g: DiGraph, m_rows: list[list[int]], volatility) -> RankSample:
    """Solve exactly at the drift ``m_rows`` and rank-test the restriction.

    ``volatility`` is (integer C rows, scale); the rank is that of A_E, the
    restricted A at Sigma.  A sample below rank |E| carries an edge-indexed
    nonzero vector in the kernel of A_E.  Both come from H(N) on the
    non-edges, Sigma being N / den: rank A_E = |E| - p(p-1)/2 +
    rank H_nonE, and the kernel vector is :func:`_kernel_from_h` of the
    kernel vector of H_nonE (see ``_intkernel``).
    """
    p = g.p
    n_mat, den = _solve_sigma_scaled(m_rows, volatility[0], p)
    skew = p * (p - 1) // 2
    h_rank, c = _intkernel.rank_and_kernel(_h_rows(n_mat, g.non_edges()), skew)
    kernel = None if c is None else _kernel_from_h(n_mat, g, c)
    return RankSample(tuple(map(tuple, m_rows)), volatility, g.num_edges - skew + h_rank,
                      (tuple(map(tuple, n_mat)), den * volatility[1]), kernel)


def _kernel_from_h(n_mat: list[list[int]], g: DiGraph,
                   c: tuple[list[int], int]) -> tuple[tuple[int, ...], int]:
    """A nonzero kernel vector of A(N)_E from the kernel vector c of H(N)_nonE.

    x = H(N)_E c over its last nonzero entry, as (numerators, positive den)
    in lowest terms: A(N)_E's first RREF kernel vector when that kernel is
    one-dimensional, and not necessarily beyond (see ``_intkernel``).
    """
    x = [sum(map(mul, row, c[0])) for row in _h_rows(n_mat, g.edge_index())]
    nums, den = _intkernel._reduced(x, next(v for v in reversed(x) if v))
    return tuple(nums), den


def _sampling_volatility(vol: VolatilityMatrix):
    """((integer C rows, scale gamma), certificate notes) for sampling under ``vol``.

    With diagonal volatility the identifiability class matches the
    identity-volatility model, so sampling uses C = I_p, given as its
    integer rows; only a diagonal entry other than 1 is noted.
    """
    notes = ["coefficient (A) route"]
    p = vol.p
    if not vol.diagonal:
        c_rows, gamma = _matrix_to_int_rows(vol.matrix)
        return (tuple(map(tuple, c_rows)), gamma), notes
    if any(vol.matrix[i, i] != 1 for i in range(p)):
        notes.append("sampled with identity volatility (diagonal C equivalence)")
    return (tuple(tuple(int(r == c) for c in range(p)) for r in range(p)), 1), notes


def _drifts(g: DiGraph, seed: int) -> Iterator[list[list[int]]]:
    """The ``ClassifyConfig.trials`` drifts at which ``g`` is sampled under
    ``seed``, each drawn when read: the one place a graph's drift stream is
    derived."""
    rng = _derive_rng(seed, salt=g.p)
    for _ in range(ClassifyConfig.trials):
        yield _draw_drift_rows(g, rng, ClassifyConfig.bound)


def _rank_by_sampling(g: DiGraph, vol: VolatilityMatrix, seed: int,
                      volatility, notes: list[str]) -> IdentVerdict:
    """The exact sampling stage for a non-simple ``g``; ``volatility`` and
    ``notes`` are :func:`_sampling_volatility` of ``vol``."""
    trials, bound = ClassifyConfig.trials, ClassifyConfig.bound
    deficits: list[RankSample] = []
    for m_rows in _drifts(g, seed):
        sample = _rank_test_at_sample(g, m_rows, volatility)
        if sample.rank == g.num_edges:
            if not vol.diagonal:
                notes = notes + ["volatility is non-diagonal: global identifiability "
                                 "undetermined, verdict records generic identifiability only"]
            return IdentVerdict(IdentClass.GENERICALLY_IDENTIFIABLE_NOT_GLOBAL, Certificate(
                FULL_RANK_WITNESS, "; ".join(notes), edges=g._edge_index, witness=sample))
        deficits.append(sample)
    degree = g.num_edges * g.p * g.p
    notes = notes + [f"all {trials} samples rank-deficient; failure bound "
                     f"(degree {degree} over {bound + 1} values per entry)"]
    return IdentVerdict(IdentClass.NON_IDENTIFIABLE, Certificate(
        kind=RANK_DEFICIT_WITNESS, note="; ".join(notes), edges=g._edge_index,
        samples=tuple(deficits), failure_bound=_failure_bound(degree, bound, trials)))


def classify(
    g: DiGraph, vol: VolatilityMatrix, cfg: ClassifyConfig | None = None
) -> IdentVerdict:
    """Full decision cascade for one graph and volatility matrix.

    Order: edge-count dimension bound, trek-based necessary criterion
    (diagonal volatility), the simple-graph theorem, then the sampling
    rank test.  Certificates record which stage decided.

    Raises:
        ValueError: unless ``g`` is a ``DiGraph`` and ``vol`` a p x p
            ``VolatilityMatrix`` for the graph's p, or if ``cfg`` is neither
            None nor a ``ClassifyConfig``.
    """
    _require("g", g, DiGraph)
    _require("vol", vol, VolatilityMatrix)
    if not isinstance(cfg, ClassifyConfig | None):
        raise ValueError(f"cfg must be a ClassifyConfig, got {cfg!r}")
    seed = ClassifyConfig.seed if cfg is None else cfg.seed
    # a batch of one is never screened, so its verdict is built
    return _classify_batch([g], vol, [seed])[0][2]


def _bound_verdict(g: DiGraph, vol: VolatilityMatrix, pairs: int) -> IdentVerdict | None:
    """The cascade's counting stages for ``g``, whose trek-free node pairs
    number ``pairs``: the edge-count bound, then (diagonal volatility) the
    trek bound; None when neither decides."""
    bound_dim = g.p * (g.p + 1) // 2
    if g.num_edges > bound_dim:
        note = f"|E| = {g.num_edges} exceeds the model dimension bound {bound_dim}"
        return IdentVerdict(IdentClass.NON_IDENTIFIABLE, Certificate(EDGE_COUNT_BOUND, note))
    if vol.diagonal and g.num_edges > bound_dim - pairs:
        note = f"|E| = {g.num_edges} > {bound_dim} - {pairs} (trek-adjusted dimension bound)"
        return IdentVerdict(IdentClass.NON_IDENTIFIABLE, Certificate(TREK_BOUND, note))
    return None


# Fewest graphs of a batch whose counting stages run stacked, and fewest
# reaching sampling for which the batched screen pays in a fresh process,
# whose first stack imports numpy (53-56 ms of CPU).  Cold, one process a
# run, on spread seed-0 p = 5 graphs: 160 cost 60 ms screened against 62 ms
# exact, 192 cost 66 against 75.  A p = 4 graph saves half as much, so the
# p = 4 sweep's 80 run graph by graph; p = 5 chunks hold 756+.
_SCREEN_MIN_GRAPHS = 192


def _classify_batch(graphs: list[DiGraph], vol: VolatilityMatrix,
                    seeds: list[int]) -> list[tuple]:
    """The decision cascade of :func:`classify`, for each graph of a batch
    under its own seed, a checked ``ClassifyConfig.seed``: one record per
    graph, (class, certificate kind, verdict or None, elapsed_ms).

    Every graph has the p of ``vol``.  The counting stages and the
    simple-graph check read each graph's trek count and 2-cycle flag off its
    mask (:func:`_mask_treks`): in one call on the stack of the masks in a
    batch of at least ``_SCREEN_MIN_GRAPHS`` graphs, graph by graph below.
    When at least ``_SCREEN_MIN_GRAPHS`` graphs reach sampling, their first
    samples are screened together by :func:`_screen_full_rank`, and a graph
    it proves full rank is decided by its class and kind alone: its record
    holds no verdict (None), its witness being the exact path's at its first
    drift, and its ``arcs`` are never read.  Every other graph that
    reaches sampling runs the exact path (:func:`_rank_by_sampling`) from
    the same first drift (:func:`_drifts`).  The screen proves only the full
    rank that the exact path finds at that sample, so a verdict's bytes do
    not depend on the batch.  ``elapsed_ms`` is the graph's time, including
    its share of the stack and of the screen.

    Raises:
        ValueError: if some graph's p is not the size of ``vol``.
    """
    for g in graphs:
        if g.p != vol.p:
            raise ValueError(
                f"volatility matrix is {vol.p}x{vol.p}, but the graph has p = {g.p}")
    verdicts: list[IdentVerdict | None] = [None] * len(graphs)
    times = [0.0] * len(graphs)
    stacked, share = [], 0.0
    if len(graphs) >= _SCREEN_MIN_GRAPHS:
        started = time.perf_counter()
        np = _intkernel.numpy()
        stack = _mask_treks(vol.p, np.array([g.mask for g in graphs], dtype=np.int64))
        stacked = list(zip(*(x.tolist() for x in stack)))  # (pairs, 2-cycle flag) per graph
        share = (time.perf_counter() - started) * 1e3 / len(graphs)
    pending: list[int] = []  # indices that reach sampling
    for k, g in enumerate(graphs):
        started = time.perf_counter()
        pairs, cycle = stacked[k] if stacked else _mask_treks(g.p, g.mask)
        verdict = _bound_verdict(g, vol, pairs)
        if verdict is None and not cycle:
            # simple graphs (DAGs among them) are globally identifiable
            # for every positive definite volatility
            kind = THEOREM_DAG if is_dag(g) else THEOREM_SIMPLE
            verdict = IdentVerdict(IdentClass.GLOBALLY_IDENTIFIABLE, Certificate(kind=kind))
        if verdict is None:
            pending.append(k)
        verdicts[k] = verdict
        times[k] = share + (time.perf_counter() - started) * 1e3
    if pending:
        started = time.perf_counter()
        volatility, notes = _sampling_volatility(vol)
        proved = [False] * len(pending)
        if len(pending) >= _SCREEN_MIN_GRAPHS:
            # Only the drifts are kept: a graph the screen leaves unproved
            # draws its first drift again, which is cheaper than holding
            # every graph's generator state through the screen.
            first = [next(_drifts(graphs[k], seeds[k])) for k in pending]
            proved = _screen_full_rank([graphs[k].mask for k in pending], first, volatility[0])
        share = (time.perf_counter() - started) * 1e3 / len(pending)
        for k, full in zip(pending, proved):
            started = time.perf_counter()
            if not full:
                verdicts[k] = _rank_by_sampling(graphs[k], vol, seeds[k], volatility, notes)
            times[k] += share + (time.perf_counter() - started) * 1e3
    return [(v.classification, v.certificate.kind, v, t) if v is not None
            else (IdentClass.GENERICALLY_IDENTIFIABLE_NOT_GLOBAL, FULL_RANK_WITNESS, None, t)
            for v, t in zip(verdicts, times)]


def _residue_stack(rows: list[list], batch: int) -> np.ndarray:
    """A builder's rows, each entry an int or a length-``batch`` vector, as
    the (rows, cols, batch) int64 residues mod q that ``mod_gauss`` takes."""
    np = _intkernel.numpy()
    q = _intkernel.MOD_PRIME
    stack = np.empty((len(rows), len(rows[0]), batch), dtype=np.int64)
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            stack[r, c] = x % q
    return stack


def _screen_full_rank(masks: list[int], drifts: list[list[list[int]]],
                      c_rows) -> list[bool]:
    """Which drifts the GF(q) screen proves to give A(Sigma)_E full column rank.

    The graphs, given by their masks, share p and the integer volatility
    rows ``c_rows``.  The builders run on residue vectors, one entry per
    graph: the vech systems [K | -vech(C)] of the drifts mod q are solved in
    one batch, then H(Sigma mod q) on every off-diagonal arc, each graph's
    edge rows zeroed, is ranked in another.  A_E has full column rank
    exactly when H_nonE has full column rank p(p-1)/2, so True is a proof
    over Q (see ``_intkernel``); False only sends the graph to the exact path.
    """
    if not masks:
        return []
    np = _intkernel.numpy()
    p = len(c_rows)
    n = p * (p + 1) // 2
    # drift_mod[i][t] holds entry (i, t) of every drift, mod q
    drift_mod = np.array(drifts, dtype=np.int64).transpose(1, 2, 0) % _intkernel.MOD_PRIME
    k_rows, rhs = _vech_system(drift_mod, c_rows)
    systems = _residue_stack([row + [b] for row, b in zip(k_rows, rhs)], len(drifts))
    # rows and stacks are dropped once read, so the screen peaks in K's elimination
    del k_rows
    solved, reduced = _intkernel.mod_gauss(systems, limit_cols=n)
    # a K singular mod q leaves residues in column n; ``solved`` rules its H out
    sigma = _unvech(reduced[:, n].copy(), p)
    del systems, reduced
    arcs = p * (p - 1)  # a mask's bits: below 2^30 up to p = 6
    h = _residue_stack(_h_rows(sigma, _mask_arcs(p, (1 << arcs) - 1)), len(masks))
    # row r of h is the arc of bit arcs-1-r, zeroed where the mask sets it
    shifts = np.arange(arcs - 1, -1, -1)[:, None]
    h *= (~(np.array(masks, dtype=np.int64) >> shifts) & 1)[:, None, :]
    return (solved & _intkernel.mod_gauss(h)[0]).tolist()

