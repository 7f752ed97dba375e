"""The enumeration sweep: classify every candidate graph and tally totals.

Graphs are classified independently with per-graph RNG seeds derived by
hashing each candidate's sorted edges, as enumerated (in canonical form),
together with the global seed, so a parallel run, a serial run, and a rerun
all produce the same report (timing fields aside).

The unit of work is a chunk of at most ``_CHUNK`` candidates, sent as their
canonical masks.  Whoever classifies a chunk builds each graph straight
from its mask (a ``DiGraph`` is its arc mask) and hashes the sorted edges
read off the mask into its seed, so the parent holds nothing per candidate
but its mask.  The masks are sorted into report order and cut into
contiguous chunks, whatever ``--jobs`` is, so chunk k holds rows
[k * _CHUNK, (k + 1) * _CHUNK) of the report and the rows come out in
order, one chunk at a time: ``lyapid sweep`` writes each row as it
arrives and never holds the report.  A pool of at most ``--jobs`` workers
starts only when there is more than one chunk and more than one worker to
run them, and hands the chunks back in order through ``imap``; a sweep of
one chunk, as at p = 4, runs in process and never imports
``multiprocessing``.  Workers share nothing but the global seed.

Each chunk is classified by ``identifiability._classify_batch``, the one
place the cascade of ``classify`` runs, so ``_CHUNK`` also bounds the
screen's stacks.  When at least 192 of a chunk's graphs reach sampling, as
in every chunk of the p = 5 sweep (the p = 4 sweep has 78), their first
samples are screened in one batch over GF(65521), the sweep's one use of
numpy, imported before a pool forks: the vech Lyapunov systems are solved
together, then H(Sigma mod q) is ranked together, each graph's edge rows
zeroed so that only its non-edges count.  A full column rank mod q proves
the full rank over Q that the exact path would find at the same sample (see
``_intkernel``), and only the graphs the screen cannot prove take the exact
path, so the verdicts and the canonical bytes are those of ``classify`` by
construction.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from collections.abc import Iterator
from contextlib import closing
from dataclasses import dataclass, field
from typing import IO

from . import _intkernel
from .graphs import (_MAX_P, CONNECTIVITY, DiGraph, EnumPolicy, _as_policy, _candidate_masks,
                     _is_int, _mask_views)
from .identifiability import (
    EDGE_COUNT_BOUND,
    RANK_DEFICIT_WITNESS,
    TREK_BOUND,
    Certificate,
    ClassifyConfig,
    IdentClass,
    IdentVerdict,
    _classify_batch,
)
from .lyapunov import VolatilityMatrix

CSV_HEADER = "p,policy,total_nonsimple,non_identifiable,non_identifiable_eq9,wall_seconds"
_TOTALS = ("total_nonsimple", "non_identifiable", "non_identifiable_eq9")  # the report's keys

# Most candidates in one chunk, the unit of work: one pool task and one
# _classify_batch call, so it bounds the screen's stacks in a worker and the
# rows a pooled parent holds.  The p = 5 sweep makes five chunks; against two
# halves of 2,431 graphs they cut a worker's peak RSS from 44.2 to 36.4 MB
# (2-vCPU VM) at the same classification CPU.
_CHUNK = 1024


def derive_graph_seed(global_seed: int, g: DiGraph) -> int:
    """Stable 64-bit per-graph seed from ``g``'s sorted edges, as given.

    The edges are not canonicalised, and the drift draws follow the
    labelling too, so a relabelled copy h of a sweep graph replays that
    graph's row only as ``canonical_form(h)`` under that form's seed.
    """
    arcs = ", ".join(_mask_views(g.p, g.mask, 1))  # the text of list(g.arcs), brackets aside
    payload = f"{global_seed}:{g.p}:[{arcs}]".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


@dataclass(frozen=True)
class SweepRow:
    """Verdict for one canonical graph of the sweep."""

    p: int
    edges: tuple[tuple[int, int], ...]  # off-diagonal edges, sorted
    num_edges: int  # including self-loops
    classification: IdentClass
    certificate_kind: str
    satisfies_eq9: bool
    elapsed_ms: float
    witness_drift: tuple[tuple[str, ...], ...] | None = None
    witness_sigma: tuple[tuple[str, ...], ...] | None = None

    def graph(self) -> DiGraph:
        return DiGraph(self.p, self.edges)

    def to_json(self, include_timing: bool = True) -> dict:
        out: dict = {
            "p": self.p,
            "edges": [list(e) for e in self.edges],
            "num_edges": self.num_edges,
            "class": self.classification.value,
            "certificate_kind": self.certificate_kind,
            "satisfies_eq9": self.satisfies_eq9,
        }
        if include_timing:
            out["elapsed_ms"] = self.elapsed_ms
        if self.witness_drift is not None:
            out["witness_drift"] = [list(r) for r in self.witness_drift]
            out["witness_sigma"] = [list(r) for r in self.witness_sigma]
        return out


@dataclass
class SweepReport:
    """All rows of a sweep plus the three headline totals."""

    p: int
    policy: EnumPolicy
    trials: int
    bound: int
    seed: int
    rows: list[SweepRow] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def totals(self) -> tuple[int, int, int]:
        """(total graphs, non-identifiable, non-identifiable satisfying eq. bound)."""
        return functools.reduce(_count, self.rows, (0, 0, 0))

    def _header_json(self) -> dict:
        return {"p": self.p, "policy": self.policy.to_json(), "trials": self.trials,
                "bound": self.bound, "seed": self.seed}

    def to_json(self, include_timing: bool = True) -> dict:
        out = self._header_json()
        out["totals"] = dict(zip(_TOTALS, self.totals))
        out["rows"] = [r.to_json(include_timing) for r in self.rows]
        if include_timing:
            out["wall_seconds"] = self.wall_seconds
        return out

    def canonical_bytes(self) -> bytes:
        """Byte-reproducible body of the report: everything except timings."""
        return json.dumps(self.to_json(include_timing=False), sort_keys=True).encode()


def _summary_csv(report: SweepReport, totals: tuple[int, int, int]) -> str:
    """The CSV summary of ``report`` with these totals."""
    policy = f"max_edges={report.policy.resolved_max_edges(report.p)};{CONNECTIVITY}"
    counts = ",".join(map(str, totals))
    return f"{CSV_HEADER}\n{report.p},{policy},{counts},{report.wall_seconds:.3f}"


def _count(totals: tuple[int, int, int], row: SweepRow) -> tuple[int, int, int]:
    """``totals``, as in :attr:`SweepReport.totals`, with ``row`` counted."""
    ni = row.classification is IdentClass.NON_IDENTIFIABLE
    return totals[0] + 1, totals[1] + ni, totals[2] + (ni and row.satisfies_eq9)


def _row_witness(verdict: IdentVerdict):
    cert: Certificate = verdict.certificate
    if cert.kind != RANK_DEFICIT_WITNESS or not cert.samples:
        return None, None
    sample = cert.samples[0].to_json()
    return tuple(tuple(map(tuple, sample[k])) for k in ("drift", "sigma"))


def _classify_chunk(chunk) -> list[SweepRow]:
    """Classify one (p, seed, masks) chunk in one batch, each graph under its
    own seed hashed from ``seed``; picklable."""
    p, seed, masks = chunk
    graphs = [DiGraph._from_mask(p, mask) for mask in masks]
    seeds = [derive_graph_seed(seed, g) for g in graphs]
    elapsed: list[float] = []
    verdicts = _classify_batch(graphs, VolatilityMatrix.identity(p), seeds, elapsed)
    rows = []
    for g, verdict, elapsed_ms in zip(graphs, verdicts, elapsed):
        drift, sigma = _row_witness(verdict)
        kind = verdict.certificate.kind
        rows.append(SweepRow(
            p=p,
            edges=g.arcs,
            num_edges=g.num_edges,
            classification=verdict.classification,
            certificate_kind=kind,
            # The identity volatility is diagonal, so the cascade ran the trek
            # criterion on every graph within the edge-count bound; a graph
            # beyond that bound fails the criterion too.
            satisfies_eq9=kind not in (EDGE_COUNT_BOUND, TREK_BOUND),
            elapsed_ms=elapsed_ms,
            witness_drift=drift,
            witness_sigma=sigma,
        ))
    return rows


def _check_sweep(p: int, policy: EnumPolicy | None, seed: int, jobs: int) -> EnumPolicy:
    """Refuse a sweep that cannot be served; see :func:`run_sweep`.  Returns
    the policy, ``EnumPolicy()`` for None."""
    if not (_is_int(p) and 3 <= p <= _MAX_P):
        raise ValueError(f"sweep supports integer 3 <= p <= {_MAX_P}, got {p!r}")
    policy = _as_policy(policy)
    # The smallest candidate has p self-loops, a 2-cycle and p - 2 arcs that
    # connect the other nodes to it: 2p edges.
    if policy.resolved_max_edges(p) < 2 * p:
        raise ValueError(f"max_edges must be >= 2p = {2 * p}, got {policy.max_edges}")
    ClassifyConfig(seed)  # the seed's owner refuses it
    if not (_is_int(jobs) and jobs >= 1):
        raise ValueError(f"jobs must be >= 1 and an integer, got {jobs!r}")
    return policy


def _sweep_rows(p: int, policy: EnumPolicy, seed: int, jobs: int) -> Iterator[tuple]:
    """(mask, row) of every graph of a checked sweep in report order, one chunk at a time.

    Report order is edge count ascending, then mask descending, which is
    ``(num_edges, edges)`` under ``_arc_bit``.  A pool, when one starts,
    lives until the generator is exhausted or closed.
    """
    masks = sorted(_candidate_masks(p, policy), key=lambda mask: (mask.bit_count(), -mask))
    chunks = [(p, seed, masks[k:k + _CHUNK]) for k in range(0, len(masks), _CHUNK)]
    workers = min(jobs, os.cpu_count() or 1, len(chunks))
    if workers > 1:
        import multiprocessing  # only a pooled sweep pays for the import

        _intkernel.numpy()  # once, before the fork: the workers inherit it
        with multiprocessing.Pool(processes=workers) as pool:
            for chunk, rows in zip(chunks, pool.imap(_classify_chunk, chunks)):
                yield from zip(chunk[2], rows)
    else:
        for chunk in chunks:
            yield from zip(chunk[2], _classify_chunk(chunk))


def run_sweep(
    p: int,
    policy: EnumPolicy | None = None,
    seed: int = ClassifyConfig.seed,
    jobs: int = 1,
) -> SweepReport:
    """Enumerate candidates and classify them all, optionally in parallel.

    The sweep always uses the identity volatility matrix, which decides the
    class for every diagonal volatility matrix.  ``jobs`` is an upper bound
    on the workers: a sweep of one chunk runs in process.

    Raises:
        ValueError: before any candidate is enumerated, unless p is an
            ``int`` with 3 <= p <= 5, ``policy`` is None or an ``EnumPolicy``
            that admits a candidate (``max_edges`` >= 2p), ``seed`` is an
            ``int`` and ``jobs`` an ``int`` >= 1; a ``bool`` is not one.
    """
    policy = _check_sweep(p, policy, seed, jobs)
    started = time.perf_counter()
    report = SweepReport(p=p, policy=policy, trials=ClassifyConfig.trials,
                         bound=ClassifyConfig.bound, seed=seed,
                         rows=[row for _, row in _sweep_rows(p, policy, seed, jobs)])
    report.wall_seconds = time.perf_counter() - started
    return report


def _write_report(out: IO[str], p: int, policy: EnumPolicy, seed: int, jobs: int) -> str:
    """Run a checked sweep and write its report to ``out`` as the rows
    arrive; returns the CSV summary.

    Line 1 holds the header fields, each row has a line, and the last line
    holds the totals and ``wall_seconds``, so the text loads to
    ``run_sweep(p, policy, seed, jobs).to_json()``, timing aside.
    """
    started = time.perf_counter()
    report = SweepReport(p=p, policy=policy, trials=ClassifyConfig.trials,
                         bound=ClassifyConfig.bound, seed=seed)
    out.write(json.dumps(report._header_json())[:-1] + ', "rows": [\n')
    totals, sep = (0, 0, 0), ""
    with closing(_sweep_rows(p, policy, seed, jobs)) as rows:  # a failed write ends the pool
        for mask, row in rows:
            out.write(sep + (_row_line(row, mask) if row.witness_drift is None
                             else json.dumps(row.to_json())))
            totals, sep = _count(totals, row), ",\n"
    report.wall_seconds = time.perf_counter() - started
    tail = {"totals": dict(zip(_TOTALS, totals)), "wall_seconds": report.wall_seconds}
    out.write(f"\n], {json.dumps(tail)[1:]}\n")
    return _summary_csv(report, totals)


def _row_line(row: SweepRow, mask: int) -> str:
    """``json.dumps(row.to_json())`` of a witness-free ``row`` of the graph with mask ``mask``."""
    return (f'{{"p": {row.p}, "edges": [{", ".join(_mask_views(row.p, mask, 2))}], '
            f'"num_edges": {row.num_edges}, "class": "{row.classification.value}", '
            f'"certificate_kind": "{row.certificate_kind}", "satisfies_eq9": '
            f'{"true" if row.satisfies_eq9 else "false"}, "elapsed_ms": {row.elapsed_ms!r}}}')
