"""The sweep's sharded, screened batches against the per-graph exact path."""

import gc
import multiprocessing
import random

import pytest

from lyapid import sweep
from lyapid.graphs import (
    DiGraph,
    canonical_form,
    enumerate_candidates,
    necessary_criterion,
    relabel,
)
from lyapid.identifiability import ClassifyConfig, classify
from lyapid.lyapunov import VolatilityMatrix


def _exact_batch(graphs, vol, cfgs, elapsed_ms=None):
    """classify on every graph: the path the screen must reproduce."""
    if elapsed_ms is not None:
        elapsed_ms.extend(0.0 for _ in graphs)
    return [classify(g, vol, cfg) for g, cfg in zip(graphs, cfgs)]


def _exact_sweep(monkeypatch, p, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(sweep, "_classify_batch", _exact_batch)
        return sweep.run_sweep(p, **kwargs)


def test_uneven_shards_match_serial_bytes(monkeypatch):
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 4)  # so 3 workers are not capped
    serial = sweep.run_sweep(4)
    sharded = sweep.run_sweep(4, jobs=3)  # 80 candidates: shards of 27, 27, 26
    assert sharded.canonical_bytes() == serial.canonical_bytes()
    assert all(row.elapsed_ms >= 0 for row in sharded.rows)


@pytest.mark.parametrize(
    "p, kwargs",
    [(2, {}), (4, {"bound": 2**80}), (3, {"jobs": 5}), (4, {"trials": 2, "seed": 9})],
)
def test_screened_sweep_matches_the_exact_path(monkeypatch, p, kwargs):
    # p = 2 has no candidate, and p = 3 two, too few to screen; at p = 4, 78
    # graphs reach sampling and are screened; bound 2^80 draws entries far
    # beyond int64
    screened = sweep.run_sweep(p, **kwargs)
    assert screened.canonical_bytes() == _exact_sweep(monkeypatch, p, **kwargs).canonical_bytes()


class _SerialPool:
    """Stands in for multiprocessing.Pool: records its size, maps in process."""

    def __init__(self, sizes, shards, processes):
        sizes.append(processes)
        self.shards = shards

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, shards, chunksize=1):
        self.shards.extend(shards)
        return [func(shard) for shard in shards]


# With 6 CPUs: the last case is capped by the CPU count, not the candidates.
@pytest.mark.parametrize("p, jobs, workers",
                         [(3, 5, 2), (3, 64, 2), (4, 3, 3), (3, 1, None), (4, 100_000, 6)])
def test_workers_are_capped_by_the_candidates(monkeypatch, p, jobs, workers):
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 6)
    sizes, shards = [], []
    monkeypatch.setattr(
        multiprocessing, "Pool",
        lambda processes: _SerialPool(sizes, shards, processes),
    )
    report = sweep.run_sweep(p, jobs=jobs)
    assert sizes == ([] if workers is None else [workers])
    assert len(shards) == (workers or 0) and all(shard[3] for shard in shards)
    monkeypatch.undo()
    assert report.canonical_bytes() == sweep.run_sweep(p).canonical_bytes()


@pytest.mark.parametrize("cpus", [1, None])  # None: the count cannot be determined
def test_one_or_unknown_cpu_runs_serially(monkeypatch, cpus):
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(multiprocessing, "Pool", None)  # calling it would fail
    assert len(sweep.run_sweep(3, jobs=4).rows) == 2


@pytest.mark.parametrize("p", [4, 5])
@pytest.mark.parametrize("seed", [0, 7])
def test_items_carry_each_candidates_graph_seed(monkeypatch, p, seed):
    shards = []
    monkeypatch.setattr(sweep, "_classify_shard", lambda shard: shards.append(shard) or [])
    sweep.run_sweep(p, seed=seed)
    assert shards[0][3] == [(tuple(sorted(g.offdiag_edges)), sweep.derive_graph_seed(seed, g))
                            for g in enumerate_candidates(p)]


def test_serial_sweep_builds_each_graph_once(monkeypatch):
    built = []
    post_init = DiGraph.__post_init__

    def counted(g):
        built.append(g)
        post_init(g)

    monkeypatch.setattr(DiGraph, "__post_init__", counted)
    sweep.run_sweep(4)
    assert len(built) == 80


@pytest.mark.parametrize("caller_froze", [False, True])
def test_parallel_sweep_leaves_the_gc_freeze_count_unchanged(caller_froze):
    if caller_froze:
        gc.freeze()
    try:
        before = gc.get_freeze_count()
        sweep.run_sweep(4, jobs=2)
        assert gc.get_freeze_count() == before
    finally:
        gc.unfreeze()


def test_satisfies_eq9_is_the_trek_criterion():
    report = sweep.run_sweep(4)
    assert [row.satisfies_eq9 for row in report.rows] == [
        necessary_criterion(row.graph()) for row in report.rows
    ]


def test_a_relabelled_graph_replays_its_row_through_its_canonical_form():
    # The seed hashes the edges as given, and the drift draws follow the
    # labelling, so a relabelled copy h replays its row through
    # canonical_form(h), the candidate itself, and not under its own seed.
    report = sweep.run_sweep(4)
    rng = random.Random(4)
    witnesses = 0
    for row in report.rows:
        h = row.graph()
        while h == row.graph():
            perm = rng.sample(range(1, 5), 4)
            h = relabel(row.graph(), dict(zip(range(1, 5), perm)))
        g = canonical_form(h)
        assert g == row.graph()
        seed = sweep.derive_graph_seed(report.seed, g)
        assert sweep.derive_graph_seed(report.seed, h) != seed
        cfg = ClassifyConfig(trials=report.trials, bound=report.bound, seed=seed)
        verdict = classify(g, VolatilityMatrix.identity(4), cfg)
        assert verdict.classification == row.classification
        assert verdict.certificate.kind == row.certificate_kind
        if row.witness_drift is not None:
            witnesses += 1
            assert sweep._row_witness(verdict) == (row.witness_drift, row.witness_sigma)
    assert witnesses == 1
