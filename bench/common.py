"""Shared pieces of the lyapid benchmark: paths, workload inputs, pins and process runs.

Nothing here imports lyapid, so every benchmark script can import this
module before it has checked that the checkout holds the program.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFICIT_GRAPHS = HERE / "deficit_graphs.json"
PINS = HERE / "pins.json"

JOBS = 2
# Sweep and classify seeds are taken modulo this, so every seed the benchmark
# is given maps onto one whose report hash is pinned in pins.json.
PINNED_SEEDS = 10
# (total candidates, non-identifiable, non-identifiable satisfying eq. 9)
PUBLISHED_TOTALS = {4: (80, 3, 1), 5: (4862, 68, 37)}


@dataclass(frozen=True)
class Workload:
    """What one workload runs, and how its set-up and traced slice are sized."""

    name: str
    p: int | None = None  # sweep size; None for deficit-classify
    max_edges: int | None = None  # sweep slice by edge count; None sweeps every candidate
    graphs: int | None = None  # prefix of the rank-deficit list; None uses all of it
    # Rounds of the list per deficit-classify pass: 3 x 38 graphs gives 114
    # calls, enough for a p90 with ten samples beyond it.
    rounds: int = 3
    setup_repeats: int = 1
    # A sweep's latencies and its traced run come from classifying, in
    # process, every slice_stride-th row of its report, slice_repeats times.
    slice_stride: int = 1
    slice_repeats: int = 1

    @property
    def pin_key(self) -> str:
        if self.p is None:
            return f"deficit-{self.graphs or 'all'}x{self.rounds}"
        return f"sweep-p{self.p}" + (f"-max{self.max_edges}" if self.max_edges else "")

    def tasks(self, seed: int):
        """(graph, classify seed) pairs of one deficit-classify pass, in call order."""
        graphs = load_deficit_graphs()[: self.graphs]
        return [(g, classify_seed(seed, k, g)) for k in range(self.rounds) for g in graphs]


WORKLOADS = {
    "sweep-p5": Workload("sweep-p5", p=5, setup_repeats=3, slice_stride=16),
    "deficit-classify": Workload("deficit-classify", setup_repeats=9),
    "sweep-p4-cold": Workload("sweep-p4-cold", p=4, setup_repeats=9, slice_repeats=4),
}
# Small slices of each workload for the self-tests.
QUICK = {
    "sweep-p5": Workload("sweep-p5", p=5, max_edges=10),
    "deficit-classify": Workload("deficit-classify", graphs=3, rounds=1),
    "sweep-p4-cold": Workload("sweep-p4-cold", p=4),
}


def program_seed(seed: int) -> int:
    """The pinned seed that a benchmark seed maps to."""
    return seed % PINNED_SEEDS


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------
# The shared VM this benchmark was built on changes speed by up to a third
# from one minute to the next, in CPU time as well as wall time. The time
# metrics are therefore CPU seconds at a reference speed: a measurement is
# scaled by REFERENCE_S over the CPU time of a fixed computation timed next
# to it. The computation is fraction-free elimination on ~280-bit integers,
# the same kind of work as lyapid's hot path, and lives here, so no change
# to lyapid can change it.

REFERENCE_S = 0.012  # reference_work() at the reference speed (the baseline machine)
_rng = random.Random(20220907)
_REFERENCE_ROWS = [[_rng.getrandbits(280) - (1 << 279) for _ in range(15)] for _ in range(14)]


def reference_work() -> float:
    """CPU seconds this thread takes for one fixed fraction-free elimination."""
    rows = [row[:] for row in _REFERENCE_ROWS]
    started = time.thread_time()
    prev, r = 1, 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pc, top = rows[r][c], rows[r]
        for i in range(r + 1, len(rows)):
            ric, row = rows[i][c], rows[i]
            for j in range(c, len(row)):
                row[j] = (pc * row[j] - ric * top[j]) // prev
        prev, r = pc, r + 1
        if r == len(rows):
            break
    return time.thread_time() - started


class SpeedProbe:
    """Times reference_work() around a child process, and every few seconds during it.

    The probes at the ends run while nothing else of the benchmark does. A
    pass longer than ``interval`` also gets probes while it runs, from a
    thread of the waiting parent: speed drifts within such a pass, and a
    long sweep keeps both cores busy throughout, so those probes all see the
    same sharing of the cores.
    """

    def __init__(self, interval: float = 2.0, repeats: int = 2):
        self.interval = interval
        self.repeats = repeats
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.samples.append(reference_work())

    def __enter__(self) -> "SpeedProbe":
        self.samples += [reference_work() for _ in range(self.repeats)]
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.samples += [reference_work() for _ in range(self.repeats)]

    @property
    def factor(self) -> float:
        """Multiply a CPU time measured meanwhile by this to get reference-speed seconds."""
        return REFERENCE_S / statistics.median(self.samples)


# Calls are timed in blocks of this much CPU, with a speed probe between blocks.
BLOCK_S = 0.25


def timed_calls(items, fn) -> tuple[list[float], list]:
    """(reference-speed CPU ms per call, results) of ``fn`` over ``items``, one caller.

    A call's latency is its thread CPU time: the callers are single-threaded
    and never wait, so this is their wall latency on an unshared core. Each
    block of calls is scaled by the mean of the probes before and after it.
    """
    latencies, results, block = [], [], []
    before = reference_work()
    for n, item in enumerate(items, 1):
        started = time.thread_time()
        results.append(fn(item))
        block.append(time.thread_time() - started)
        if sum(block) >= BLOCK_S or n == len(items):
            after = reference_work()
            scale = REFERENCE_S / ((before + after) / 2) * 1e3
            latencies += [t * scale for t in block]
            block, before = [], after
    return latencies, results


def require_checkout() -> None:
    """Make the checkout's ``src`` importable, or exit 2 when it is missing."""
    if not (SRC / "lyapid" / "__init__.py").is_file():
        print(f"error: {SRC / 'lyapid'} not found; run from a lyapid checkout",
              file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child processes: the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


@dataclass(frozen=True)
class ProcRun:
    """One finished child process and the resources its whole tree used."""

    returncode: int
    wall_s: float
    cpu_s: float  # user + system, including reaped descendants, as measured
    peak_rss_mb: float  # largest resident set of the process or any reaped descendant
    speed_factor: float  # SpeedProbe.factor while it ran


def run_process(argv: list[str]) -> ProcRun:
    """Run ``argv`` from the checkout root and wait for it and its children."""
    with SpeedProbe() as probe:
        started = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                              stdout=subprocess.DEVNULL) as proc:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcRun(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        speed_factor=probe.factor,
    )


def sweep_argv(wl: Workload, seed: int, out: Path) -> list[str]:
    """The CLI sweep one pass of a sweep workload runs."""
    argv = [sys.executable, "-m", "lyapid.cli", "sweep", "--p", str(wl.p),
            "--jobs", str(JOBS), "--seed", str(seed), "--out", str(out)]
    if wl.max_edges is not None:
        argv += ["--max-edges", str(wl.max_edges)]
    return argv


def child_argv(*args) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), *map(str, args)]


# ---------------------------------------------------------------------------
# Canonical forms and pins
# ---------------------------------------------------------------------------


def canonical_sha256(report: dict) -> str:
    """sha256 of ``SweepReport.canonical_bytes()``, rebuilt from the report JSON.

    The canonical body is the report without its timing fields, dumped with
    sorted keys; the CLI's indented file reloads to the same dict.
    """
    body = {k: v for k, v in report.items() if k != "wall_seconds"}
    body["rows"] = [{k: v for k, v in row.items() if k != "elapsed_ms"}
                    for row in report["rows"]]
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def verdicts_sha256(verdicts: list[dict]) -> str:
    """sha256 of a deficit-classify pass's verdicts, keys sorted."""
    return hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest()


def load_pins() -> dict:
    return json.loads(PINS.read_text())


# ---------------------------------------------------------------------------
# The rank-deficit graph list
# ---------------------------------------------------------------------------


def deficit_rows(report: dict) -> list[dict]:
    """Every ``rank-deficit-witness`` row of a sweep report as {"p", "edges"}."""
    return [
        {"p": row["p"], "edges": row["edges"]}
        for row in report["rows"]
        if row["certificate_kind"] == "rank-deficit-witness"
    ]


def load_deficit_graphs() -> list[dict]:
    return json.loads(DEFICIT_GRAPHS.read_text())["graphs"]


def classify_seed(seed: int, round_: int, graph: dict) -> int:
    """Stable 64-bit classify seed for one graph in one round of a pass."""
    payload = f"deficit:{seed}:{round_}:{graph['p']}:{graph['edges']}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")
