"""The lyapid benchmark: end-to-end metrics per workload, or per-layer metrics traced.

    python3 bench/run.py --workload sweep-p5 --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all
    python3 bench/run.py --workload sweep-p4-cold --seed 0 --check-report report.json

Workloads (see bench/README.md for why each one is there):

- ``sweep-p5``: ``lyapid sweep --p 5 --jobs 2``, the full 4862-graph sweep.
- ``deficit-classify``: one caller running ``classify`` plus verdict JSON
  over every rank-deficit graph of the p = 4 and p = 5 sweeps, three seeds each.
- ``sweep-p4-cold``: repeated fresh ``lyapid sweep --p 4 --jobs 2`` processes.

A run sets up the workload ``setup_repeats`` times in fresh processes, then
runs whole passes until ``--seconds`` have passed (at least one), then checks
every output outside the timed region. With ``--trace 1`` it reports
per-layer metrics from a serial traced run instead. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when any check failed and 2
when the checkout holds no lyapid sources.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import common

# The end-to-end metrics of the JSON line, as in BENCHMARK.json. wall_s is
# printed in the table but not gated: hypervisor steal on a shared VM moves
# it by more between runs than any allowed bound (see README.md).
E2E_UNITS = {
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}
TABLE_UNITS = {"wall_s": "s", **E2E_UNITS}
IMPORT_REPEATS = 3


@dataclass
class Pass:
    """One timed pass: its process and the load average around it."""

    proc: common.ProcRun
    out: Path
    load_before: tuple[float, float, float]
    load_after: tuple[float, float, float]


def _child_json(*args) -> dict:
    out = common.OUT / f"child-{args[0]}.json"
    proc = common.run_process(common.child_argv(*args, out))
    if proc.returncode:
        raise RuntimeError(f"bench/child.py {' '.join(map(str, args))} exited with {proc.returncode}")
    return json.loads(out.read_text())


def setup_seconds(wl: common.Workload, quick: bool, seed: int) -> list[float]:
    """Fresh-process set-up times: import lyapid and build the workload's inputs."""
    return [_child_json("setup", wl.name, int(quick), seed)["setup_s"]
            for _ in range(wl.setup_repeats)]


def import_seconds() -> float:
    """Median fresh-process time to import the lyapid CLI module."""
    return statistics.median(_child_json("import")["import_s"] for _ in range(IMPORT_REPEATS))


def pass_argv(wl: common.Workload, quick: bool, seed: int, out: Path) -> list[str]:
    if wl.p is not None:
        return common.sweep_argv(wl, seed, out)
    return common.child_argv("deficit", wl.name, int(quick), seed, out)


def run_passes(wl: common.Workload, quick: bool, seed: int, seconds: float) -> list[Pass]:
    """Whole passes until ``seconds`` have passed; one pass in quick mode."""
    passes: list[Pass] = []
    started = time.perf_counter()
    while not passes or (not quick and time.perf_counter() - started < seconds):
        out = common.OUT / f"{wl.name}-pass{len(passes)}.json"
        out.unlink(missing_ok=True)
        before = os.getloadavg()
        proc = common.run_process(pass_argv(wl, quick, seed, out))
        passes.append(Pass(proc, out, before, os.getloadavg()))
    return passes


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) of at least two values."""
    return statistics.quantiles(values, n=100)[q - 1]


def measure(wl: common.Workload, quick: bool, seed: int, seconds: float, gate, record) -> dict:
    """End-to-end metrics of one workload; every output checked after timing."""
    import gate as gates

    pins = common.load_pins()[wl.pin_key]
    setups = setup_seconds(wl, quick, seed)
    passes = run_passes(wl, quick, seed, seconds)

    walls, cpus, rss, latencies = [], [], [], []
    report = None
    for i, run in enumerate(passes):
        record["passes"].append({"workload": wl.name, "wall_s": run.proc.wall_s,
                                 "cpu_s": run.proc.cpu_s, "speed_factor": run.proc.speed_factor,
                                 "load_before": run.load_before, "load_after": run.load_after})
        if not gate.check(run.proc.returncode == 0,
                          f"{wl.name} pass {i} exited with {run.proc.returncode}"):
            continue
        data = json.loads(run.out.read_text())
        if wl.p is not None:
            gates.check_sweep_report(gate, data, wl, seed, pins)
            walls.append(run.proc.wall_s)
            cpus.append(run.proc.cpu_s * run.proc.speed_factor)
            report = data
        else:
            gates.check_deficit_verdicts(gate, data["verdicts"], wl.tasks(seed), pins.get(str(seed)))
            walls.append(data["wall_s"])
            cpus.append(data["cpu_s"])
            latencies += data["latencies_ms"]
        rss.append(run.proc.peak_rss_mb)
    if report is not None:
        prepared = sweep_slice(wl, seed, report)
        latencies, verdicts = common.timed_calls(prepared, classify_verdict)
        check_slice(gate, wl, prepared, verdicts, report)
    if not walls:
        return {}
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": _percentile(latencies, 90),
        "passes": len(walls),
        "calls": len(latencies),
    }


def sweep_slice(wl: common.Workload, seed: int, report: dict) -> list:
    """(graph, volatility, config) of every ``slice_stride``-th row of a sweep report.

    The rows are the same for every seed, so the mix of graphs in the
    latency percentiles does not change between runs. The first repeat uses
    the sweep's own per-graph seeds; later ones vary them, so a small sweep
    still gives many distinct samples. A graph's class and certificate kind
    do not depend on the seed, so every verdict must match its row.
    """
    import lyapid
    from lyapid.sweep import derive_graph_seed

    graphs = [lyapid.DiGraph(wl.p, frozenset(tuple(e) for e in row["edges"]))
              for row in report["rows"][::wl.slice_stride]]
    vol = lyapid.VolatilityMatrix.identity(wl.p)
    return [(g, vol, lyapid.ClassifyConfig(seed=derive_graph_seed(seed, g) ^ k))
            for k in range(wl.slice_repeats) for g in graphs]


def classify_verdict(item):
    """One sweep-slice call: ``classify``, looked up on its module at every call."""
    from lyapid import identifiability

    g, vol, cfg = item
    return identifiability.classify(g, vol, cfg)


def check_slice(gate, wl: common.Workload, prepared, verdicts, report: dict) -> None:
    """Each slice verdict must carry its sweep row's class and certificate kind."""
    rows = {tuple(map(tuple, r["edges"])): r for r in report["rows"]}
    for (g, _, _), verdict in zip(prepared, verdicts):
        row = rows.get(tuple(sorted(g.offdiag_edges)), {})
        gate.check(row.get("certificate_kind") == verdict.certificate.kind
                   and row.get("class") == verdict.classification.value,
                   f"{wl.name}: in-process verdict of {g} differs from its sweep row")


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def _program_canonical_bytes(report: dict):
    """(seconds, bytes) of ``SweepReport.canonical_bytes()`` for a CLI report.

    Rebuilds the program's report object from the JSON; returns None when
    the report classes no longer take these fields.
    """
    try:
        from lyapid import EnumPolicy, IdentClass
        from lyapid.sweep import SweepReport, SweepRow

        def matrix(row, key):
            return tuple(tuple(r) for r in row[key]) if key in row else None

        rows = [
            SweepRow(p=r["p"], edges=tuple(tuple(e) for e in r["edges"]),
                     num_edges=r["num_edges"], classification=IdentClass(r["class"]),
                     certificate_kind=r["certificate_kind"], satisfies_eq9=r["satisfies_eq9"],
                     elapsed_ms=r["elapsed_ms"], witness_drift=matrix(r, "witness_drift"),
                     witness_sigma=matrix(r, "witness_sigma"))
            for r in report["rows"]
        ]
        obj = SweepReport(p=report["p"], policy=EnumPolicy(**report["policy"]),
                          trials=report["trials"], bound=report["bound"],
                          seed=report["seed"], rows=rows)
        started = time.perf_counter()
        body = obj.canonical_bytes()
        return time.perf_counter() - started, body
    except (ImportError, AttributeError, TypeError, ValueError):
        return None


def trace(wl: common.Workload, quick: bool, seed: int, gate) -> tuple[dict, list[str]]:
    """Per-layer metrics from a serial traced run; returns (metrics, absent layers)."""
    import hashlib

    import lyapid
    from lyapid import graphs as graph_module

    import child
    import gate as gates
    import tracing

    pins = common.load_pins()[wl.pin_key]
    metrics = {"cli.import_s": import_seconds(), "graphs.enumerate_ms": 0.0,
               "identifiability.certificate_bytes": 0, "sweep.worker_busy_s": 0.0,
               "sweep.parallel_efficiency": 0.0, "sweep.report_bytes": 0,
               "sweep.canonical_bytes_ms": 0.0}
    if wl.p is None:
        tasks = wl.tasks(seed)
        prepared = child.prepare_deficit(tasks)
        metrics["graphs.candidates"] = len({json.dumps(g) for g, _ in tasks})
        run_one = child.classify_json
    else:
        started = time.perf_counter()
        policy = lyapid.EnumPolicy(max_edges=wl.max_edges)
        candidates = list(graph_module.enumerate_candidates(wl.p, policy))
        enumerate_s = time.perf_counter() - started
        metrics["graphs.enumerate_ms"] = enumerate_s * 1e3
        metrics["graphs.candidates"] = len(candidates)
        out = common.OUT / f"{wl.name}-traced-pass.json"
        proc = common.run_process(common.sweep_argv(wl, seed, out))
        if not gate.check(proc.returncode == 0, f"{wl.name} sweep exited with {proc.returncode}"):
            return metrics, []
        report = json.loads(out.read_text())
        gates.check_sweep_report(gate, report, wl, seed, pins)
        prepared = sweep_slice(wl, seed, report)
        run_one = classify_verdict

    # Each call runs once untraced and once traced, alternating which goes
    # first, so that neither drift in machine load nor warm caches land on
    # one side of trace.overhead_frac.
    tracer = tracing.Tracer()
    elapsed = {False: 0.0, True: 0.0}
    plain = []
    for i, item in enumerate(prepared):
        results = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            with tracer.installed() if traced else contextlib.nullcontext() as layers:
                started = time.perf_counter()
                results[traced] = run_one(item)
                elapsed[traced] += time.perf_counter() - started
            if traced:
                absent = layers
        plain.append(results[False])
        gate.check(results[True] == results[False],
                   f"{wl.name}: traced result for {item[0]} differs from the untraced one")
    metrics.update(tracer.layer_metrics())
    metrics["trace.overhead_frac"] = elapsed[True] / elapsed[False] - 1
    (common.OUT / f"trace-{wl.name}.json").write_text(json.dumps(tracer.spans))

    if wl.p is None:
        verdicts = [json.loads(text) for text in plain]
        gates.check_deficit_verdicts(gate, verdicts, tasks, pins.get(str(seed)))
        metrics["identifiability.certificate_bytes"] = statistics.median(map(len, plain))
    else:
        check_slice(gate, wl, prepared, plain, report)
        busy = sum(r["elapsed_ms"] for r in report["rows"]) / 1e3
        metrics["sweep.worker_busy_s"] = busy
        metrics["sweep.parallel_efficiency"] = busy / (
            common.JOBS * (report["wall_seconds"] - enumerate_s))
        metrics["sweep.report_bytes"] = out.stat().st_size
        canonical = _program_canonical_bytes(report)
        if canonical is None:
            absent = absent + ["sweep.canonical_bytes"]
        else:
            metrics["sweep.canonical_bytes_ms"] = canonical[0] * 1e3
            gate.check(hashlib.sha256(canonical[1]).hexdigest() == common.canonical_sha256(report),
                       f"{wl.name}: canonical_bytes() differs from the benchmark's canonical form")
    metrics["trace.absent_layers"] = len(absent)
    return metrics, absent


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if "_bits_" in name:
        return "bits"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_calls", ".candidates", ".absent_layers")) or ".decided." in name:
        return "count"
    return "ratio"


def _git_commit() -> str:
    """The checkout's commit, read from .git without running git; 'unknown' outside one."""
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record() -> dict:
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "passes": [],
    }


def _fmt(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def print_table(rows: list[tuple[str, dict, object]]) -> None:
    """One row per workload: every end-to-end metric with its unit."""
    header = ["workload", "passes"] + [f"{m} [{u}]" for m, u in TABLE_UNITS.items()] + [
        "calls", "failed_frac"]
    print("  ".join(header))
    for name, metrics, gate in rows:
        cells = [name, _fmt(metrics.get("passes", 0))]
        cells += [_fmt(metrics.get(m, "-")) for m in TABLE_UNITS]
        cells += [_fmt(metrics.get("calls", 0)), _fmt(gate.failed / max(gate.attempted, 1))]
        print("  ".join(cells))


def finish(gate, metrics: dict, units) -> int:
    """Print failures, then the result line; the exit code says whether all checks held."""
    for message in gate.failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    if gate.failed > 20:
        print(f"... and {gate.failed - 20} more failed checks", file=sys.stderr)
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units(name)} for name, value in metrics.items()},
    }))
    return 0 if gate.failed == 0 and gate.attempted > 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*common.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run a small slice of each workload, one pass, for the self-tests")
    parser.add_argument("--check-report", metavar="FILE",
                        help="only run the correctness gate on a saved pass output")
    args = parser.parse_args(argv)

    common.require_checkout()
    from gate import Gate, check_deficit_verdicts, check_sweep_report

    common.OUT.mkdir(exist_ok=True)
    seed = common.program_seed(args.seed)
    names = list(common.WORKLOADS) if args.workload == "all" else [args.workload]
    table = common.QUICK if args.quick else common.WORKLOADS

    if args.check_report:
        wl = table[names[0]]
        data = json.loads(Path(args.check_report).read_text())
        pins = common.load_pins()[wl.pin_key]
        gate = Gate()
        if wl.p is not None:
            check_sweep_report(gate, data, wl, seed, pins)
        else:
            check_deficit_verdicts(gate, data["verdicts"], wl.tasks(seed), pins.get(str(seed)))
        return finish(gate, {}, layer_unit)

    record = run_record()
    total = Gate()
    rows, metrics = [], {}
    for name in names:
        gate = Gate()
        prefix = f"{name}." if len(names) > 1 else ""
        if args.trace:
            found, absent = trace(table[name], args.quick, seed, gate)
            for layer in absent:
                print(f"{name}: layer {layer} is absent", file=sys.stderr)
            for key, value in found.items():
                print(f"{name}  {key}  {_fmt(value)} {layer_unit(key)}")
            metrics.update({prefix + k: v for k, v in found.items()})
        else:
            found = measure(table[name], args.quick, seed, args.seconds, gate, record)
            rows.append((name, found, gate))
            metrics.update({prefix + k: found[k] for k in E2E_UNITS if k in found})
        total.attempted += gate.attempted
        total.failures += gate.failures
    if rows:
        print_table(rows)
    print("run record: " + json.dumps(record))
    if args.trace:
        return finish(total, metrics, layer_unit)
    return finish(total, metrics, lambda key: E2E_UNITS[key.rsplit(".", 1)[-1]])


if __name__ == "__main__":
    sys.exit(main())
