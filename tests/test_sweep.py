"""The sweep's sharded, screened batches against the per-graph exact path."""

import pytest

from lyapid import sweep
from lyapid.graphs import necessary_criterion
from lyapid.identifiability import classify


def _exact_batch(graphs, vol, cfgs, elapsed_ms=None):
    """classify on every graph: the path the screen must reproduce."""
    if elapsed_ms is not None:
        elapsed_ms.extend(0.0 for _ in graphs)
    return [classify(g, vol, cfg) for g, cfg in zip(graphs, cfgs)]


def _exact_sweep(monkeypatch, p, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(sweep, "_classify_batch", _exact_batch)
        return sweep.run_sweep(p, **kwargs)


def test_uneven_shards_match_serial_bytes():
    serial = sweep.run_sweep(4)
    sharded = sweep.run_sweep(4, jobs=3)  # 80 candidates: shards of 27, 27, 26
    assert sharded.canonical_bytes() == serial.canonical_bytes()
    assert all(row.elapsed_ms >= 0 for row in sharded.rows)


@pytest.mark.parametrize(
    "p, kwargs",
    [(2, {}), (3, {"bound": 2**80}), (3, {"jobs": 5}), (4, {"trials": 2, "seed": 9})],
)
def test_screened_sweep_matches_the_exact_path(monkeypatch, p, kwargs):
    # p = 2 has no candidate; bound 2^80 draws entries far beyond int64
    screened = sweep.run_sweep(p, **kwargs)
    assert screened.canonical_bytes() == _exact_sweep(monkeypatch, p, **kwargs).canonical_bytes()


def test_satisfies_eq9_is_the_trek_criterion():
    report = sweep.run_sweep(4)
    assert [row.satisfies_eq9 for row in report.rows] == [
        necessary_criterion(row.graph()) for row in report.rows
    ]
