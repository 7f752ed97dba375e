"""The sweep's chunked, screened batches against the per-graph exact path."""

import gc
import hashlib
import io
import json
import multiprocessing
import random

import pytest
from test_acceptance import CANONICAL_SHA256

from lyapid import identifiability, sweep
from lyapid.graphs import (
    DiGraph,
    EnumPolicy,
    canonical_form,
    enumerate_candidates,
    necessary_criterion,
)
from lyapid.identifiability import ClassifyConfig, classify
from lyapid.lyapunov import VolatilityMatrix

from _oracles import mask_arcs, relabel, view_masks


def _exact_batch(graphs, vol, seeds):
    """The record of classify's verdict on every graph: the path the screen must reproduce."""
    verdicts = [classify(g, vol, ClassifyConfig(seed)) for g, seed in zip(graphs, seeds)]
    return [(v.classification, v.certificate.kind, v, 0.0) for v in verdicts]


def _exact_sweep(monkeypatch, p, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(sweep, "_classify_batch", _exact_batch)
        return sweep.run_sweep(p, **kwargs)


def test_uneven_shards_match_serial_bytes(monkeypatch):
    serial = sweep.run_sweep(4)  # one chunk, in process
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 4)  # so 3 workers are not capped
    monkeypatch.setattr(sweep, "_CHUNK", 30)  # 80 candidates: chunks of 30, 30 and 20
    sharded = sweep.run_sweep(4, jobs=3)
    assert sharded.canonical_bytes() == serial.canonical_bytes()
    assert all(row.elapsed_ms >= 0 for row in sharded.rows)


@pytest.mark.parametrize(
    "p, kwargs",
    [(3, {"jobs": 5}), (4, {"seed": 9})],
)
def test_screened_sweep_matches_the_exact_path(monkeypatch, p, kwargs):
    # p = 3 has two candidates, too few to screen; at p = 4, 78 graphs reach
    # sampling and are screened
    screened = sweep.run_sweep(p, **kwargs)
    assert screened.canonical_bytes() == _exact_sweep(monkeypatch, p, **kwargs).canonical_bytes()


class _SerialPool:
    """Stands in for multiprocessing.Pool: records its size and the chunks it
    is sent, and hands back each chunk's rows in process, in order, as late
    as imap may."""

    def __init__(self, sizes, chunks, processes):
        sizes.append(processes)
        self.chunks = chunks

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, func, chunks):
        for chunk in chunks:
            self.chunks.append(chunk)
            yield func(chunk)


def _serial_pool(monkeypatch, sizes=None, chunks=None):
    monkeypatch.setattr(
        multiprocessing, "Pool",
        lambda processes: _SerialPool([] if sizes is None else sizes,
                                      [] if chunks is None else chunks, processes),
    )


# With 6 CPUs: p = 3 has 2 candidates, p = 4 has 80.  A pool starts with
# min(jobs, CPUs, chunks) workers when that is above 1; below, the sweep
# runs in process.
@pytest.mark.parametrize("p, chunk, jobs, workers, chunks", [
    (3, 1, 5, 2, 2), (3, 1, 64, 2, 2), (4, 40, 3, 2, 2), (3, 1, 1, None, 0),
    (4, 10, 100_000, 6, 8), (4, 10, 3, 3, 8), (4, 1024, 2, None, 0), (4, 79, 4, 2, 2),
])
def test_the_pool_is_the_least_of_jobs_cpus_and_chunks(monkeypatch, p, chunk, jobs, workers,
                                                       chunks):
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 6)
    monkeypatch.setattr(sweep, "_CHUNK", chunk)
    sizes, sent = [], []
    _serial_pool(monkeypatch, sizes, sent)
    report = sweep.run_sweep(p, jobs=jobs)
    assert sizes == ([] if workers is None else [workers])
    assert len(sent) == chunks and all(0 < len(masks) <= chunk for _, _, masks in sent)
    monkeypatch.undo()
    assert report.canonical_bytes() == sweep.run_sweep(p).canonical_bytes()


@pytest.mark.parametrize("cpus", [1, None])  # None: the count cannot be determined
def test_one_or_unknown_cpu_runs_serially(monkeypatch, cpus):
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(sweep, "_CHUNK", 1)  # two chunks
    monkeypatch.setattr(multiprocessing, "Pool", None)  # calling it would fail
    assert len(sweep.run_sweep(3, jobs=4).rows) == 2


@pytest.mark.parametrize("p", [4, 5])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_chunk_k_is_the_kth_slice_of_the_report(monkeypatch, p, seed, jobs):
    # The pool is sent masks only; each chunk's edges and seeds are derived
    # where it is classified, and chunk k holds rows [k * _CHUNK,
    # (k + 1) * _CHUNK) of the report order, (num_edges, edges), whatever
    # the jobs
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(sweep, "_CHUNK", 30)
    _serial_pool(monkeypatch)
    batches = []

    def recorded(graphs, vol, seeds):
        batches.append([(g.arcs, seed) for g, seed in zip(graphs, seeds)])
        return []

    monkeypatch.setattr(sweep, "_classify_batch", recorded)
    sweep.run_sweep(p, seed=seed, jobs=jobs)
    ordered = sorted(enumerate_candidates(p), key=lambda g: (g.num_edges, g.arcs))
    expected = [(g.arcs, sweep.derive_graph_seed(seed, g)) for g in ordered]
    assert batches == [expected[k:k + 30] for k in range(0, len(expected), 30)]


def test_serial_sweep_builds_each_graph_once(monkeypatch):
    built = []
    from_mask = DiGraph._from_mask

    def counted(p, mask):
        built.append(mask)
        return from_mask(p, mask)

    def checked(*args):
        raise AssertionError("a sweep graph was built from its edges")

    monkeypatch.setattr(DiGraph, "_from_mask", counted)
    monkeypatch.setattr(DiGraph, "__init__", checked)
    sweep.run_sweep(4)
    assert len(built) == 80


@pytest.mark.parametrize("caller_froze", [False, True])
def test_parallel_sweep_leaves_the_gc_freeze_count_unchanged(monkeypatch, caller_froze):
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sweep, "_CHUNK", 40)  # two chunks, so a pool starts
    if caller_froze:
        gc.freeze()
    try:
        before = gc.get_freeze_count()
        sweep.run_sweep(4, jobs=2)
        assert gc.get_freeze_count() == before
    finally:
        gc.unfreeze()


# Graphs of the seed-0 sweep that take the exact path: at p = 5 the screen's
# leftovers, its rank-deficit rows; at p = 4 all 78 sampled graphs, fewer
# than the screen needs.  The bytes cannot show a weaker screen, only this can.
EXACT_PATH_GRAPHS = {4: 78, 5: 37}


@pytest.mark.parametrize("p", [4, 5])
def test_jobs_do_not_change_the_bytes(monkeypatch, p):
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 4)  # so 3 workers are not capped
    exact = []
    sample = identifiability._rank_by_sampling
    with monkeypatch.context() as patch:  # in process, so the calls can be counted
        patch.setattr(identifiability, "_rank_by_sampling",
                      lambda *args: exact.append(args[0]) or sample(*args))
        reports = [sweep.run_sweep(p, jobs=1)]
    assert len(exact) == EXACT_PATH_GRAPHS[p]
    reports += [sweep.run_sweep(p, jobs=jobs) for jobs in (2, 3)]
    for report in reports:
        assert hashlib.sha256(report.canonical_bytes()).hexdigest() == CANONICAL_SHA256[p]


def test_the_screen_never_holds_more_than_one_chunk(monkeypatch):
    sizes = []
    screen = identifiability._screen_full_rank

    def measured(masks, *args):
        sizes.append(len(masks))
        return screen(masks, *args)

    # 762 graphs: one chunk by default, two of at most 384 that both screen
    policy = EnumPolicy(max_edges=12)
    whole = sweep.run_sweep(5, policy).canonical_bytes()
    monkeypatch.setattr(identifiability, "_screen_full_rank", measured)
    monkeypatch.setattr(sweep, "_CHUNK", 2 * identifiability._SCREEN_MIN_GRAPHS)
    report = sweep.run_sweep(5, policy)
    assert len(sizes) == 2 and max(sizes) <= sweep._CHUNK
    assert report.canonical_bytes() == whole


@pytest.mark.parametrize("jobs", [0, -3])
def test_fewer_than_one_job_is_refused(jobs):
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        sweep.run_sweep(3, jobs=jobs)


# Sweeps the library cannot serve; each is refused before any candidate is
# enumerated.  The smallest candidate has 2p edges: p self-loops, a 2-cycle
# and p - 2 arcs joining the other nodes, so p + 2 <= max_edges < 2p is
# an empty sweep too.
UNSERVABLE_SWEEPS = {
    "p=2": lambda: sweep.run_sweep(2),
    "p=7": lambda: sweep.run_sweep(7),
    "p=3.5": lambda: sweep.run_sweep(3.5),
    "p=True": lambda: sweep.run_sweep(True),
    "max_edges=4": lambda: sweep.run_sweep(3, EnumPolicy(max_edges=4)),
    "p=4, max_edges=7": lambda: sweep.run_sweep(4, EnumPolicy(max_edges=7)),
    "max_edges=1.5": lambda: sweep.run_sweep(3, EnumPolicy(max_edges=1.5)),
    "max_edges=True": lambda: sweep.run_sweep(3, EnumPolicy(max_edges=True)),
    "seed=1.5": lambda: sweep.run_sweep(3, seed=1.5),
    "seed='7'": lambda: sweep.run_sweep(3, seed="7"),
    "seed=True": lambda: sweep.run_sweep(3, seed=True),
    "jobs=0": lambda: sweep.run_sweep(3, jobs=0),
    "jobs=1.5": lambda: sweep.run_sweep(3, jobs=1.5),
    "jobs=True": lambda: sweep.run_sweep(3, jobs=True),
    "policy=0": lambda: sweep.run_sweep(3, policy=0),
    "policy=6": lambda: sweep.run_sweep(3, policy=6),
    "policy=dict": lambda: sweep.run_sweep(3, policy={"max_edges": 6}),
}


@pytest.mark.parametrize("name", UNSERVABLE_SWEEPS)
def test_an_unservable_sweep_is_refused_before_enumeration(monkeypatch, name):
    def refuse(*args):
        raise AssertionError("candidates were enumerated")

    monkeypatch.setattr(sweep, "_candidate_masks", refuse)
    with pytest.raises(ValueError):
        UNSERVABLE_SWEEPS[name]()


@pytest.mark.parametrize("policy", [0, 6, {"max_edges": 6}])
def test_a_policy_that_is_not_an_enum_policy_is_refused(policy):
    # 0 is not read as "no policy", nor 6 as a bound
    with pytest.raises(ValueError, match="policy must be an EnumPolicy"):
        sweep.run_sweep(3, policy=policy)


@pytest.mark.parametrize("p", [3, 4, 5])
def test_the_smallest_admitted_edge_bound_has_candidates(p):
    assert min(g.num_edges for g in enumerate_candidates(p)) == 2 * p
    assert sweep.run_sweep(p, EnumPolicy(max_edges=2 * p)).totals[0] > 0


def test_sampling_parameters_are_not_settable():
    # trials = 1 and bound = 1 stated a failure bound of 1.0 on wrong p = 4
    # verdicts; the report still records the constants it ran with
    with pytest.raises(TypeError):
        sweep.run_sweep(4, trials=1)
    with pytest.raises(TypeError):
        sweep.run_sweep(4, bound=1)
    report = sweep.run_sweep(3)
    assert (report.trials, report.bound) == (ClassifyConfig.trials, ClassifyConfig.bound)


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
        cfg = ClassifyConfig(seed=seed)
        verdict = classify(g, VolatilityMatrix.identity(4), cfg)
        assert verdict.classification == row.classification
        assert verdict.certificate.kind == row.certificate_kind
        if row.witness_drift is not None:
            witnesses += 1
            assert sweep._row_witness(verdict) == (row.witness_drift, row.witness_sigma)
    assert witnesses == 1


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 9, 40])
def test_the_graph_seed_hashes_the_text_of_the_sorted_arcs(p):
    for k, mask in enumerate(view_masks(p)):
        seed = (0, 7, -2**70)[k % 3]
        payload = f"{seed}:{p}:{list(mask_arcs(p, mask))}".encode()
        expected = int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")
        assert sweep.derive_graph_seed(seed, DiGraph._from_mask(p, mask)) == expected


@pytest.mark.parametrize("p, max_edges, total, witness_rows", [(4, None, 80, 1), (5, 12, 762, 3)])
def test_each_report_line_is_the_json_of_its_row(monkeypatch, p, max_edges, total, witness_rows):
    # every row line is one f-string over the mask's byte views and the record,
    # the witness rows' matrices written into it by json.dumps
    rows, classify_chunk = [], sweep._classify_chunk

    def recorded(chunk):
        records = classify_chunk(chunk)
        rows.extend(sweep._sweep_row(p, mask, r) for mask, r in zip(chunk[2], records))
        return records

    monkeypatch.setattr(sweep, "_classify_chunk", recorded)
    out = io.StringIO()
    sweep._write_report(out, p, EnumPolicy(max_edges), 0, 1)
    lines = [line.removesuffix(",") for line in out.getvalue().splitlines()[1:-1]]
    assert lines == [json.dumps(row.to_json()) for row in rows]
    assert len(rows) == total
    assert sum(row.witness_drift is not None for row in rows) == witness_rows
