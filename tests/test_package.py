"""The package's public surface, and how it loads numpy."""

import argparse
import json
import operator
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import lyapid
from lyapid import cli
from lyapid.catalog import two_cycle_out_edge
from lyapid.graphs import graph_to_json

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in lyapid.__all__ if not hasattr(lyapid, name)]
    assert missing == []


def test_no_name_is_exported_twice():
    assert len(set(lyapid.__all__)) == len(lyapid.__all__)


# The public surface: a name joins or leaves it only by editing this list.
PUBLIC_NAMES = [
    "Certificate", "ClassifyConfig", "CovMatrix", "DiGraph", "DriftMatrix",
    "EnumPolicy", "FiberResult", "IdentClass", "IdentVerdict", "NotStableError",
    "RankSample", "RatMatrix", "Rational", "SolutionSet",
    "SweepReport", "SweepRow", "VolatilityMatrix", "build_A", "build_H",
    "canonical_form", "classify", "det", "enumerate_candidates", "fiber",
    "format_matrix_csv", "graph_from_json", "graph_to_json",
    "is_dag", "is_positive_definite", "is_simple", "is_stable", "necessary_criterion",
    "no_trek_pairs", "parse_matrix_csv", "rank", "rat",
    "restrict_A", "restrict_H", "run_sweep", "sample_stable_drift",
    "solve_for_sigma", "solve_linear", "vech",
]


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 43
    assert sorted(lyapid.__all__) == PUBLIC_NAMES


def _wrong_type_calls():
    """(call, refused argument) pairs that give a public function a RatMatrix
    where it takes another type, or a DiGraph where it takes a RatMatrix."""
    g, m = two_cycle_out_edge(), lyapid.RatMatrix.identity(3)
    vol = lyapid.VolatilityMatrix.identity(3)
    drift = lyapid.sample_stable_drift(g, 0)
    sigma = lyapid.solve_for_sigma(drift, vol)
    a, h = lyapid.build_A(sigma), lyapid.build_H(sigma)
    calls = {
        "solve_for_sigma-drift": (lambda: lyapid.solve_for_sigma(m, vol), "drift"),
        "solve_for_sigma-vol": (lambda: lyapid.solve_for_sigma(drift, m), "vol"),
        "restrict_A": (lambda: lyapid.restrict_A(a, m), "g"),
        "restrict_H": (lambda: lyapid.restrict_H(h, m), "g"),
        "sample_stable_drift": (lambda: lyapid.sample_stable_drift(m, 0), "g"),
        "is_stable": (lambda: lyapid.is_stable(g), "m"),
    }
    for name in ("is_simple", "is_dag", "no_trek_pairs", "necessary_criterion",
                 "canonical_form", "graph_to_json"):
        calls[name] = (lambda f=getattr(lyapid, name): f(m), "g")
    return calls


@pytest.mark.parametrize("name", list(_wrong_type_calls()))
def test_an_argument_of_the_wrong_type_is_a_value_error(name):
    call, argument = _wrong_type_calls()[name]
    with pytest.raises(ValueError, match=f"^{argument} must be a "):
        call()


# RatMatrix's public attributes and operators: one joins or leaves only by
# editing this list.  bench/gate.py replays every witness with ``+``, ``@``,
# ``transpose``, ``identity`` and ``zeros``.
RATMATRIX_API = [
    "__add__", "__eq__", "__getitem__", "__matmul__", "__neg__", "col", "cols",
    "column", "entries", "from_rows", "identity", "is_square", "is_symmetric",
    "row", "rows", "select_columns", "select_rows", "shape", "to_lists",
    "transpose", "zeros",
]


def test_ratmatrix_api_is_pinned():
    # an operator is a dunder that the operator module also names
    api = [name for name in vars(lyapid.RatMatrix)
           if not name.startswith("_") or callable(vars(operator).get(name))]
    assert sorted(api) == RATMATRIX_API


# Each subcommand's option strings: an option joins or leaves only by editing
# this table.
CLI_OPTIONS = {
    "solve": ["--drift", "--vol"],
    "fiber": ["--graph", "--sigma", "--vol"],
    "classify": ["--graph", "--vol", "--seed"],
    "sweep": ["--p", "--max-edges", "--seed", "--jobs", "--out"],
}


def test_cli_options_are_pinned():
    parser = cli.build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: [s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help")]
        for name, sub in commands.choices.items()
    }
    assert options == CLI_OPTIONS


# How lyapid loads numpy (``_intkernel.numpy``): each case runs in a fresh
# interpreter, since this one has numpy loaded already.


def _run_fresh(code: str, env_extra: dict | None = None) -> str:
    """The last line ``code`` prints in a new interpreter.

    OPENBLAS_NUM_THREADS is unset there unless ``env_extra`` gives it.
    """
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_extra or {})
    path = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_leaves_numpy_unloaded():
    assert _run_fresh("""
        import sys
        import lyapid
        print("numpy" in sys.modules)
    """) == "False"


def test_import_leaves_the_example_catalog_unloaded():
    # no verdict, fiber or sweep reads the demos' example graphs
    assert _run_fresh("""
        import sys
        import lyapid
        print("lyapid.catalog" in sys.modules)
    """) == "False"


@pytest.mark.parametrize("command, inputs", [
    ("classify", ["graph"]),
    ("solve", ["drift", "vol"]),
    ("fiber", ["graph", "sigma", "vol"]),
], ids=["classify", "solve", "fiber"])
def test_command_leaves_numpy_unloaded(tmp_path, command, inputs):
    files = {
        "graph": json.dumps(graph_to_json(two_cycle_out_edge())),
        "drift": "-1,0,0\n1,-1,0\n0,0,-1",
        "sigma": "2,1,0\n1,2,0\n0,0,1",
        "vol": "1,0,0\n0,1,0\n0,0,1",
    }
    argv = [command]
    for name in inputs:
        path = tmp_path / name
        path.write_text(files[name])
        argv += [f"--{name}", str(path)]
    assert _run_fresh(f"""
        import sys
        import lyapid.cli
        assert lyapid.cli.main({argv!r}) == 0
        print("numpy" in sys.modules)
    """) == "False"


def test_import_and_classify_command_leave_multiprocessing_unloaded(tmp_path):
    # only a pooled sweep imports it
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(graph_to_json(two_cycle_out_edge())))
    assert _run_fresh(f"""
        import sys
        import lyapid
        after_import = "multiprocessing" in sys.modules
        import lyapid.cli
        assert lyapid.cli.main(["classify", "--graph", {str(graph)!r}]) == 0
        print(after_import, "multiprocessing" in sys.modules)
    """) == "False False"


def test_one_chunk_sweep_command_leaves_multiprocessing_unloaded(tmp_path):
    # p = 4 is one chunk, so --jobs 2 runs it in process even with two CPUs
    assert _run_fresh(f"""
        import os
        import sys
        os.cpu_count = lambda: 2
        import lyapid.cli
        out = {str(tmp_path / "sweep4.json")!r}
        assert lyapid.cli.main(["sweep", "--p", "4", "--jobs", "2", "--out", out]) == 0
        print("multiprocessing" in sys.modules)
    """) == "False"


def test_enumeration_leaves_numpy_unloaded():
    assert _run_fresh("""
        import sys
        from lyapid import enumerate_candidates
        assert sum(1 for _ in enumerate_candidates(5)) == 4862
        print("numpy" in sys.modules)
    """) == "False"


def test_p4_sweep_command_leaves_numpy_unloaded(tmp_path):
    # its 78 sampled graphs are too few to screen
    assert _run_fresh(f"""
        import os
        import sys
        os.cpu_count = lambda: 2
        import lyapid.cli
        out = {str(tmp_path / "sweep4.json")!r}
        assert lyapid.cli.main(["sweep", "--p", "4", "--jobs", "2", "--out", out]) == 0
        print("numpy" in sys.modules)
    """) == "False"


def test_pooled_sweep_loads_numpy_in_the_parent_before_the_fork():
    # 1,782 graphs make two chunks, so two workers start; only they screen
    assert _run_fresh("""
        import os
        import sys
        os.cpu_count = lambda: 2
        from lyapid import EnumPolicy, run_sweep
        run_sweep(5, EnumPolicy(max_edges=13), jobs=2)
        print("numpy" in sys.modules)
    """) == "True"


# The smallest p = 5 slice, 239 graphs in one chunk, 238 of which reach
# sampling: enough for the screen, so the sweep loads numpy in process.
SCREENED_SWEEP = "run_sweep(5, EnumPolicy(max_edges=11))"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")], ids=["unset", "preset"])
def test_sweep_asks_for_one_blas_thread_unless_told(preset, expected):
    env = None if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    assert _run_fresh(f"""
        import os
        import sys
        from lyapid import EnumPolicy, run_sweep
        {SCREENED_SWEEP}
        print("numpy" in sys.modules, os.environ["OPENBLAS_NUM_THREADS"])
    """, env) == f"True {expected}"


def test_numpy_loaded_by_the_host_is_left_alone():
    assert _run_fresh(f"""
        import os
        import numpy
        from lyapid import EnumPolicy, _intkernel, run_sweep
        calls = []
        load = _intkernel.numpy
        _intkernel.numpy = lambda: calls.append(1) or load()
        {SCREENED_SWEEP}
        print(bool(calls), os.environ.get("OPENBLAS_NUM_THREADS"))
    """) == "True None"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="needs /proc/self/task to count threads")
def test_sweep_parent_runs_one_thread_after_enumeration():
    assert _run_fresh(f"""
        import os
        import sys
        from lyapid import EnumPolicy, run_sweep
        {SCREENED_SWEEP}
        print("numpy" in sys.modules, len(os.listdir("/proc/self/task")))
    """) == "True 1"
