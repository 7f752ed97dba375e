"""Self-tests of the benchmark: the gate, the output names, the quick slices.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import common

common.require_checkout()

import gate as gates  # noqa: E402  (needs the checkout's src on the path)
import tracing  # noqa: E402

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(common.HERE / "run.py")]


def _run(*args, cwd=common.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*RUN, *map(str, args)], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def p4_report(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("p4") / "report.json"
    wl = common.WORKLOADS["sweep-p4-cold"]
    assert common.run_process(common.sweep_argv(wl, 0, out)).returncode == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def deficit_output(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("deficit") / "pass.json"
    argv = common.child_argv("deficit", "deficit-classify", 1, 0, out)
    assert common.run_process(argv).returncode == 0
    return json.loads(out.read_text())


def _sweep_gate(report: dict) -> gates.Gate:
    gate = gates.Gate()
    wl = common.WORKLOADS["sweep-p4-cold"]
    gates.check_sweep_report(gate, report, wl, 0, common.load_pins()[wl.pin_key])
    return gate


def _deficit_gate(output: dict) -> gates.Gate:
    gate = gates.Gate()
    wl = common.QUICK["deficit-classify"]
    gates.check_deficit_verdicts(gate, output["verdicts"], wl.tasks(0),
                                 common.load_pins()[wl.pin_key]["0"])
    return gate


def test_gate_accepts_untouched_outputs(p4_report, deficit_output):
    assert _sweep_gate(p4_report).failures == []
    assert _deficit_gate(deficit_output).failures == []


def test_gate_rejects_flipped_class(p4_report, tmp_path):
    tampered = json.loads(json.dumps(p4_report))
    row = next(r for r in tampered["rows"] if r["certificate_kind"] == "full-rank-witness")
    row["class"] = "non-identifiable"
    assert _sweep_gate(tampered).failed >= 2  # row count and hash at least

    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(tampered))
    proc = _run("--workload", "sweep-p4-cold", "--seed", 0, "--check-report", path)
    assert proc.returncode == 1 and _result(proc)["correct"] is False


def test_gate_rejects_perturbed_kernel_vector(deficit_output, tmp_path):
    tampered = json.loads(json.dumps(deficit_output))
    vector = tampered["verdicts"][0]["certificate"]["samples"][0]["kernel_vector"]
    vector[0] = str(Fraction(vector[0]) + 1)
    gate = _deficit_gate(tampered)
    assert any("not in the kernel" in m for m in gate.failures)

    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(tampered))
    proc = _run("--workload", "deficit-classify", "--quick", "--seed", 0, "--check-report", path)
    assert proc.returncode == 1 and _result(proc)["correct"] is False


def test_missing_boundary_is_reported_absent(monkeypatch):
    bogus = ("bogus.layer", "lyapid.identifiability", "no_such_function")
    monkeypatch.setattr(tracing, "BOUNDARIES", tracing.BOUNDARIES + (bogus,))
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + ("bogus.layer",))
    with tracing.Tracer().installed() as absent:
        assert absent == ["bogus.layer"]


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(common.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(common.WORKLOADS))
def test_quick_slice_runs_and_emits_the_declared_metrics(workload, trace):
    proc = _run("--workload", workload, "--quick", "--seed", 3, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_regenerating_inputs_reproduces_them():
    proc = subprocess.run(
        [sys.executable, str(common.HERE / "make_inputs.py"), "--check",
         "--keys", "sweep-p4", "sweep-p5-max10", "deficit-3x1"],
        cwd=common.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(common.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep-p4-cold",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
