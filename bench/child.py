"""Steps of the lyapid benchmark that must run in a fresh process.

    python3 bench/child.py setup <workload> <quick 0|1> <seed> <out.json>
    python3 bench/child.py import <out.json>
    python3 bench/child.py deficit deficit-classify <quick 0|1> <seed> <out.json>

``setup`` times importing lyapid and building the workload's inputs;
``import`` times importing the CLI module; ``deficit`` runs one
deficit-classify pass. Times are CPU seconds at the reference speed (see
``common.reference_work``). Each step writes its result as JSON to ``out.json``.
"""

from __future__ import annotations

import json
import sys
import time

import common


def prepare_deficit(tasks):
    """(graph, volatility, config) triples for ``classify``, one per task."""
    import lyapid

    prepared = []
    for graph, seed in tasks:
        g = lyapid.DiGraph(graph["p"], frozenset(tuple(e) for e in graph["edges"]))
        prepared.append((g, lyapid.VolatilityMatrix.identity(g.p),
                         lyapid.ClassifyConfig(seed=seed)))
    return prepared


def classify_json(item) -> str:
    """One deficit-classify call: ``classify``, then the verdict as JSON text.

    ``classify`` is looked up on its module at every call, so a tracer's
    wrapper is seen.
    """
    from lyapid import identifiability

    g, vol, cfg = item
    return json.dumps(identifiability.classify(g, vol, cfg).to_json())


def _scaled_cpu(step) -> float:
    """Reference-speed CPU seconds of ``step()``, probed before and after."""
    before = common.reference_work()
    started = time.process_time()
    step()
    cpu = time.process_time() - started
    return cpu * common.REFERENCE_S / ((before + common.reference_work()) / 2)


def _workload(name: str, quick: str) -> common.Workload:
    return (common.QUICK if quick == "1" else common.WORKLOADS)[name]


def _setup(wl: common.Workload, seed: int) -> dict:
    def step():
        import lyapid

        if wl.p is None:
            prepare_deficit(wl.tasks(seed))
        else:
            list(lyapid.enumerate_candidates(wl.p, lyapid.EnumPolicy(max_edges=wl.max_edges)))

    return {"setup_s": _scaled_cpu(step)}


def _import() -> dict:
    def step():
        import lyapid.cli  # noqa: F401

    return {"import_s": _scaled_cpu(step)}


def _deficit(wl: common.Workload, seed: int) -> str:
    prepared = prepare_deficit(wl.tasks(seed))
    started = time.perf_counter()
    latencies, texts = common.timed_calls(prepared, classify_json)
    head = json.dumps({"wall_s": time.perf_counter() - started,
                       "cpu_s": sum(latencies) / 1e3, "latencies_ms": latencies})
    # The verdict texts are JSON already; splice them in rather than re-encode.
    return head[:-1] + ', "verdicts": [' + ",".join(texts) + "]}"


def main(argv: list[str]) -> int:
    mode, out = argv[0], argv[-1]
    if mode == "setup":
        text = json.dumps(_setup(_workload(argv[1], argv[2]), int(argv[3])))
    elif mode == "import":
        text = json.dumps(_import())
    elif mode == "deficit":
        text = _deficit(_workload(argv[1], argv[2]), int(argv[3]))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    with open(out, "w") as fh:
        fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
