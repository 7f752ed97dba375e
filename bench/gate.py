"""Correctness gate of the lyapid benchmark, run outside the timed region.

Every check counts as one attempt; a failed check keeps a one-line message.
Sweep reports are checked against pinned hashes, the published totals and
the committed rank-deficit list, and every rank-deficit witness is replayed
exactly with the public ``build_A``, ``restrict_A`` and ``RatMatrix``
arithmetic. Deficit-classify verdicts are checked for their expected class
and kind, a pinned hash, and an exact replay of every stored kernel vector.
"""

from __future__ import annotations

from lyapid import DiGraph, RatMatrix, build_A, rank, restrict_A

import common

RANK_DEFICIT = "rank-deficit-witness"
NON_IDENTIFIABLE = "non-identifiable"
# The class each certificate kind of a non-simple candidate decides.
KIND_CLASS = {
    "full-rank-witness": "generically-identifiable-not-global",
    RANK_DEFICIT: NON_IDENTIFIABLE,
    "trek-bound": NON_IDENTIFIABLE,
    "edge-count-bound": NON_IDENTIFIABLE,
}


class Gate:
    """Counts checks attempted and keeps a message for each failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


def _graph(p: int, edges) -> DiGraph:
    return DiGraph(p, frozenset(tuple(e) for e in edges))


def _replay_point(g: DiGraph, drift_rows, sigma_rows) -> tuple[RatMatrix | None, str]:
    """Check M Sigma + Sigma M^T + I = 0 and M's support; return A(Sigma)_E."""
    p = g.p
    m = RatMatrix.from_rows(drift_rows)
    s = RatMatrix.from_rows(sigma_rows)
    if m.shape != (p, p) or s.shape != (p, p):
        return None, "drift or sigma has the wrong shape"
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            if (i, j) not in g.edges and m[j - 1, i - 1] != 0:
                return None, f"drift entry m[{j},{i}] is off the graph"
    if m @ s + s @ m.transpose() + RatMatrix.identity(p) != RatMatrix.zeros(p, p):
        return None, "stored sigma does not solve M S + S M^T + I = 0"
    return restrict_A(build_A(s), g), ""


def _replayed(replay, *args) -> str:
    """Run one replay; a certificate too malformed to parse is a failure too."""
    try:
        return replay(*args)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed certificate: {exc!r}"


def replay_sweep_witness(row: dict) -> str:
    """Replay a sweep row's rank-deficit witness; '' when it holds."""
    if "witness_drift" not in row or "witness_sigma" not in row:
        return "rank-deficit row stores no witness"
    g = _graph(row["p"], row["edges"])
    a_res, problem = _replay_point(g, row["witness_drift"], row["witness_sigma"])
    if a_res is None:
        return problem
    if rank(a_res) >= g.num_edges:
        return "restricted A has full column rank at the stored witness"
    return ""


def replay_kernel_sample(graph: dict, sample: dict) -> str:
    """Replay one rank-deficit sample of a verdict; '' when it holds."""
    g = _graph(graph["p"], graph["edges"])
    a_res, problem = _replay_point(g, sample["drift"], sample["sigma"])
    if a_res is None:
        return problem
    vector = RatMatrix.column(sample.get("kernel_vector", []))
    if vector.rows != g.num_edges:
        return f"kernel vector has {vector.rows} entries, expected {g.num_edges}"
    if vector == RatMatrix.zeros(vector.rows, 1):
        return "kernel vector is zero"
    if a_res @ vector != RatMatrix.zeros(a_res.rows, 1):
        return "kernel vector is not in the kernel of the restricted A"
    return ""


def check_sweep_report(gate: Gate, report: dict, wl: common.Workload, seed: int,
                       pins: dict) -> None:
    """Gate one sweep report of workload ``wl`` produced at ``seed`` (a pinned seed)."""
    p, sliced = wl.p, wl.max_edges is not None
    rows = report["rows"]
    ni = [r for r in rows if r["class"] == NON_IDENTIFIABLE]
    counted = (len(rows), len(ni), sum(1 for r in ni if r["satisfies_eq9"]))
    totals = report["totals"]
    stored = (totals["total_nonsimple"], totals["non_identifiable"],
              totals["non_identifiable_eq9"])
    gate.check(counted == stored, f"p={p}: rows count {counted}, totals say {stored}")
    if not sliced:
        gate.check(counted == common.PUBLISHED_TOTALS[p],
                   f"p={p}: totals {counted}, published {common.PUBLISHED_TOTALS[p]}")
    digest = common.canonical_sha256(report)
    expected = pins.get(str(seed))
    gate.check(digest == expected,
               f"p={p} seed={seed}: canonical sha256 {digest[:16]}, pinned {str(expected)[:16]}")

    listed = [g for g in common.load_deficit_graphs() if g["p"] == p]
    found = common.deficit_rows(report)
    if sliced:
        gate.check(all(g in listed for g in found),
                   f"p={p}: a rank-deficit row is missing from deficit_graphs.json")
    else:
        gate.check(found == listed,
                   f"p={p}: rank-deficit rows differ from deficit_graphs.json")

    for row in rows:
        kind = row["certificate_kind"]
        where = f"p={p} row {row['edges']}"
        if not gate.check(KIND_CLASS.get(kind) == row["class"],
                          f"{where}: class {row['class']!r} with certificate {kind!r}"):
            continue
        if kind == RANK_DEFICIT:
            problem = _replayed(replay_sweep_witness, row)
            gate.check(not problem, f"{where}: {problem}")


def check_deficit_verdicts(gate: Gate, verdicts: list[dict], tasks, expected: str | None) -> None:
    """Gate the verdicts of one deficit-classify pass, in task order."""
    gate.check(len(verdicts) == len(tasks),
               f"{len(verdicts)} verdicts for {len(tasks)} classify calls")
    digest = common.verdicts_sha256(verdicts)
    gate.check(digest == expected,
               f"verdicts sha256 {digest[:16]}, pinned {str(expected)[:16]}")
    for verdict, (graph, seed) in zip(verdicts, tasks):
        where = f"p={graph['p']} graph {graph['edges']} seed {seed}"
        cert = verdict.get("certificate", {})
        if not gate.check(verdict.get("class") == NON_IDENTIFIABLE and cert.get("kind") == RANK_DEFICIT,
                          f"{where}: verdict {verdict.get('class')!r} / {cert.get('kind')!r}"):
            continue
        samples = cert.get("samples", [])
        gate.check(bool(samples), f"{where}: certificate stores no samples")
        for sample in samples:
            problem = _replayed(replay_kernel_sample, graph, sample)
            gate.check(not problem, f"{where}: {problem}")
