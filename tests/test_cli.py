"""End-to-end tests of the command-line surface and its exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lyapid import cli
from lyapid.cli import main
from lyapid.graphs import graph_from_json, graph_to_json
from lyapid.catalog import three_cycle, two_cycle_out_edge
from lyapid.linalg import parse_matrix_csv

from _oracles import two_cycle


ROOT = Path(__file__).resolve().parent.parent
needs_dev_full = pytest.mark.skipif(not Path("/dev/full").exists(),
                                    reason="needs /dev/full, a device every write to fails")


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def _write(path, text):
    path.write_text(text)
    return str(path)


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _assert_stdout_write_fails(argv):
    """``lyapid argv`` with stdout on /dev/full exits 2 with one line naming stdout."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "lyapid.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write standard output: "), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr


# Graph JSON that must be rejected, not coerced: only JSON integers are nodes.
MALFORMED_GRAPHS = {
    "edges-not-a-list": {"p": 3, "edges": 5},
    "null-node": {"p": 3, "edges": [[1, None]]},
    "null-p": {"p": None, "edges": []},
    "float-p": {"p": 3.7, "edges": [[1, 2]]},
    "float-node": {"p": 3, "edges": [[1, 2.9]]},
    "bool-p": {"p": True, "edges": []},
}

BAD_SAMPLING_ARGS = [
    ["sweep", "--p", "3", "--jobs", "0"],
]

# (command, {file flag: CSV or graph JSON}, the library's refusal).  The CLI
# checks none of these itself: the library refuses, and its message is the line.
LIBRARY_REFUSALS = {
    "solve non-symmetric vol": (
        "solve", {"--drift": "-1,0\n0,-1\n", "--vol": "2,1\n0,2\n"},
        "volatility matrix must be symmetric positive definite"),
    "solve size mismatch": (
        "solve", {"--drift": "-1\n", "--vol": "1,0\n0,1\n"},
        "drift and volatility dimensions differ"),
    "solve non-square drift": (
        "solve", {"--drift": "-1,0\n", "--vol": "1\n"}, "drift matrix must be square"),
    "solve unstable": (
        "solve", {"--drift": "1\n", "--vol": "1\n"}, "drift matrix is not stable"),
    "fiber sigma size": (
        "fiber", {"--graph": two_cycle(), "--sigma": "1,0,0\n0,1,0\n0,0,1\n",
                  "--vol": "1,0\n0,1\n"},
        "sigma is 3x3 and the volatility matrix 2x2, but the graph has p = 2"),
    "fiber vol size": (
        "fiber", {"--graph": two_cycle(), "--sigma": "1,0\n0,1\n", "--vol": "1\n"},
        "sigma is 2x2 and the volatility matrix 1x1, but the graph has p = 2"),
    "fiber non-symmetric sigma": (
        "fiber", {"--graph": two_cycle(), "--sigma": "2,1\n0,2\n", "--vol": "1,0\n0,1\n"},
        "covariance matrix must be symmetric positive definite"),
    "classify vol size": (
        "classify", {"--graph": three_cycle(), "--vol": "1,0\n0,1\n"},
        "volatility matrix is 2x2, but the graph has p = 3"),
}


class TestSolve:
    def test_scalar(self, workdir, capsys):
        drift = _write(workdir / "m.csv", "-1\n")
        vol = _write(workdir / "c.csv", "2\n")
        assert main(["solve", "--drift", drift, "--vol", vol]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_negated_identity(self, workdir, capsys):
        drift = _write(workdir / "m.csv", "-1,0\n0,-1\n")
        vol = _write(workdir / "c.csv", "2,0\n0,2\n")
        assert main(["solve", "--drift", drift, "--vol", vol]) == 0
        sigma = parse_matrix_csv(capsys.readouterr().out)
        assert sigma.to_lists() == [[1, 0], [0, 1]]

    def test_unstable_drift_exit_2(self, workdir, capsys):
        drift = _write(workdir / "m.csv", "1\n")
        vol = _write(workdir / "c.csv", "2\n")
        assert main(["solve", "--drift", drift, "--vol", vol]) == 2

    def test_imaginary_pair_drift_exit_2(self, workdir, capsys):
        # The Lyapunov system of this drift is singular (i + (-i) = 0).
        drift = _write(workdir / "m.csv", "0,1\n-1,0\n")
        vol = _write(workdir / "c.csv", "1,0\n0,1\n")
        assert main(["solve", "--drift", drift, "--vol", vol]) == 2
        _assert_one_line_error(capsys)

    def test_non_pd_volatility_exit_2(self, workdir):
        drift = _write(workdir / "m.csv", "-1,0\n0,-1\n")
        vol = _write(workdir / "c.csv", "1,2\n2,1\n")
        assert main(["solve", "--drift", drift, "--vol", vol]) == 2

    def test_parse_error_exit_1(self, workdir):
        drift = _write(workdir / "m.csv", "nonsense\n")
        vol = _write(workdir / "c.csv", "2\n")
        assert main(["solve", "--drift", drift, "--vol", vol]) == 1

    @pytest.mark.parametrize("cell", ["1e400", "0.5", "1_0"])
    def test_literal_outside_the_grammar_exit_1(self, workdir, capsys, cell):
        drift = _write(workdir / "m.csv", f"{cell}\n")
        vol = _write(workdir / "c.csv", "2\n")
        assert main(["solve", "--drift", drift, "--vol", vol]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bad rational literal" in err, err

    def test_missing_file_exit_1(self, workdir):
        vol = _write(workdir / "c.csv", "2\n")
        assert main(["solve", "--drift", str(workdir / "nope.csv"), "--vol", vol]) == 1

    @pytest.mark.parametrize("flag", ["--drift", "--vol"])
    def test_non_utf8_file_exit_1(self, workdir, capsys, flag):
        files = {"--drift": _write(workdir / "m.csv", "-1\n"),
                 "--vol": _write(workdir / "c.csv", "2\n")}
        (workdir / "latin1.csv").write_bytes(b"-1\xe9\n")
        files[flag] = str(workdir / "latin1.csv")
        assert main(["solve", "--drift", files["--drift"], "--vol", files["--vol"]]) == 1
        _assert_one_line_error(capsys)


class TestFiberCommand:
    def test_round_trip_with_solve(self, workdir, capsys):
        # solve on the 3-cycle, feed sigma back into fiber, recover the drift
        drift_text = "-4,0,1\n2,-5,0\n0,3,-6\n"
        drift = _write(workdir / "m.csv", drift_text)
        vol = _write(workdir / "c.csv", "1,0,0\n0,1,0\n0,0,1\n")
        assert main(["solve", "--drift", drift, "--vol", vol]) == 0
        sigma_text = capsys.readouterr().out
        sigma = _write(workdir / "s.csv", sigma_text)
        graph = _write(workdir / "g.json", json.dumps(graph_to_json(three_cycle())))
        assert main(["fiber", "--graph", graph, "--sigma", sigma, "--vol", vol]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["kind"] == "unique"
        recovered = [[str(x) for x in row] for row in
                     parse_matrix_csv(drift_text).to_lists()]
        assert result["drift"] == recovered

    def test_two_cycle_affine(self, workdir, capsys):
        drift = _write(workdir / "m.csv", "-2,1\n1,-3\n")
        vol = _write(workdir / "c.csv", "1,0\n0,1\n")
        assert main(["solve", "--drift", drift, "--vol", vol]) == 0
        sigma = _write(workdir / "s.csv", capsys.readouterr().out)
        graph = _write(workdir / "g.json", json.dumps(graph_to_json(two_cycle())))
        assert main(["fiber", "--graph", graph, "--sigma", sigma, "--vol", vol]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["kind"] == "affine"
        assert result["dim"] == 1

    @pytest.mark.parametrize("sigma_text", ["1,2\n2,1\n", "2,1\n0,2\n"],
                             ids=["indefinite", "non-symmetric"])
    def test_non_pd_sigma_exit_2(self, workdir, capsys, sigma_text):
        graph = _write(workdir / "g.json", json.dumps(graph_to_json(two_cycle())))
        sigma = _write(workdir / "s.csv", sigma_text)
        vol = _write(workdir / "c.csv", "1,0\n0,1\n")
        assert main(["fiber", "--graph", graph, "--sigma", sigma, "--vol", vol]) == 2
        _assert_one_line_error(capsys)


class TestClassifyCommand:
    def test_two_cycle_out_edge(self, workdir, capsys):
        graph = _write(
            workdir / "g.json", json.dumps(graph_to_json(two_cycle_out_edge()))
        )
        code = main(
            ["classify", "--graph", graph, "--seed", "9"]
        )
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["class"] == "generically-identifiable-not-global"

    def test_simple_graph_theorem_certificate(self, workdir, capsys):
        graph = _write(workdir / "g.json", json.dumps(graph_to_json(three_cycle())))
        assert main(["classify", "--graph", graph]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["class"] == "globally-identifiable"
        assert verdict["certificate"]["kind"] == "theorem-simple"

    def test_deterministic_given_seed(self, workdir, capsys):
        graph = _write(
            workdir / "g.json", json.dumps(graph_to_json(two_cycle_out_edge()))
        )
        main(["classify", "--graph", graph, "--seed", "5"])
        first = capsys.readouterr().out
        main(["classify", "--graph", graph, "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_malformed_graph_exit_1(self, workdir):
        graph = _write(workdir / "g.json", "{not json")
        assert main(["classify", "--graph", graph]) == 1

    @pytest.mark.parametrize("raw", [
        b'{"p": 3, "edges": [[1, 2]]}\xff',  # not UTF-8
        b'{"p": 3, "edges": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",  # nested too deeply
    ], ids=["non-utf8", "deep-nesting"])
    def test_unreadable_graph_exit_1(self, workdir, capsys, raw):
        (workdir / "g.json").write_bytes(raw)
        assert main(["classify", "--graph", str(workdir / "g.json")]) == 1
        _assert_one_line_error(capsys)

    @pytest.mark.parametrize("data", MALFORMED_GRAPHS.values(), ids=MALFORMED_GRAPHS.keys())
    def test_invalid_graph_exit_1(self, workdir, capsys, data):
        with pytest.raises(ValueError):
            graph_from_json(data)
        graph = _write(workdir / "g.json", json.dumps(data))
        assert main(["classify", "--graph", graph]) == 1
        _assert_one_line_error(capsys)

    @needs_dev_full
    def test_failed_stdout_write_exit_2(self, workdir):
        # about 1 KB of verdict, so the write fails at the flush
        graph = _write(workdir / "g.json", json.dumps(graph_to_json(two_cycle_out_edge())))
        _assert_stdout_write_fails(["classify", "--graph", graph])


class TestSweepCommand:
    def test_p3_totals(self, workdir, capsys):
        out = workdir / "report.json"
        code = main(["sweep", "--p", "3", "--out", str(out), "--seed", "1"])
        assert code == 0
        report = json.loads(out.read_text())
        totals = report["totals"]
        assert totals["total_nonsimple"] == 2
        assert totals["non_identifiable"] == 0
        assert totals["non_identifiable_eq9"] == 0
        summary = capsys.readouterr().out
        assert "p,policy,total_nonsimple" in summary
        assert "3,max_edges=6;weakly-connected,2,0,0" in summary

    def test_out_into_missing_directory_exit_2_before_the_sweep(self, workdir, capsys,
                                                                 monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before --out was checked")

        monkeypatch.setattr(cli, "_write_report", no_sweep)
        out = workdir / "missing" / "report.json"
        assert main(["sweep", "--p", "3", "--out", str(out)]) == 2
        _assert_one_line_error(capsys)
        assert not out.parent.exists()

    @needs_dev_full
    def test_failed_report_to_stdout_exit_2(self):
        # the p = 4 report outgrows the stdout buffer, so the write itself fails
        _assert_stdout_write_fails(["sweep", "--p", "4"])

    @needs_dev_full
    def test_failed_report_write_exit_2(self, capsys):
        assert main(["sweep", "--p", "3", "--out", "/dev/full"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write /dev/full: ") and err.count("\n") == 1, err

    def test_p_out_of_range_exit_2(self):
        assert main(["sweep", "--p", "7"]) == 2

    # p self-loops and one 2-cycle need p + 2 = 5 edges at p = 3.
    @pytest.mark.parametrize("max_edges", ["-5", "0", "4"])
    def test_impossible_max_edges_exit_2(self, capsys, max_edges):
        assert main(["sweep", "--p", "3", "--max-edges", max_edges]) == 2
        _assert_one_line_error(capsys)

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_report_has_one_row_per_line(self, workdir, capsys, to_file):
        from lyapid.sweep import run_sweep

        def untimed(report):
            report.pop("wall_seconds")
            for row in report["rows"]:
                row.pop("elapsed_ms")
            return report

        out = workdir / "report.json"
        argv = ["sweep", "--p", "4", "--seed", "5", "--jobs", "2"]
        assert main(argv + ["--out", str(out)] if to_file else argv) == 0
        text = out.read_text() if to_file else capsys.readouterr().out
        expected = untimed(run_sweep(4, seed=5).to_json())
        assert untimed(json.loads(text)) == expected
        lines = text.splitlines()
        row_lines = [line for line in lines if line.startswith('{"p": 4, "edges"')]
        assert len(row_lines) == len(expected["rows"]) == 80
        assert len(lines) == len(row_lines) + 2

    @pytest.mark.parametrize("pooled", [False, True], ids=["in-process", "pooled"])
    def test_the_report_is_streamed(self, workdir, capsys, monkeypatch, pooled):
        # Nothing builds the whole report: each row is written before the
        # next chunk is classified, and the file still loads to the report.
        import multiprocessing

        from lyapid import sweep
        from test_sweep import _serial_pool

        expected = sweep.run_sweep(4, seed=5).to_json(include_timing=False)

        def refuse(*args, **kwargs):
            raise AssertionError("the CLI built the whole report")

        monkeypatch.setattr(sweep.SweepReport, "to_json", refuse)
        monkeypatch.setattr(sweep, "run_sweep", refuse)
        monkeypatch.setattr(cli, "run_sweep", refuse, raising=False)
        monkeypatch.setattr(sweep, "_CHUNK", 20)
        if pooled:
            monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
            _serial_pool(monkeypatch)
        else:
            monkeypatch.setattr(multiprocessing, "Pool", None)  # calling it would fail
        written, classify_chunk = [], sweep._classify_chunk

        def chunk_after_rows(chunk):
            written.append(capsys.readouterr().out)
            return classify_chunk(chunk)

        monkeypatch.setattr(sweep, "_classify_chunk", chunk_after_rows)
        argv = ["sweep", "--p", "4", "--seed", "5"]
        assert main(argv + (["--jobs", "2"] if pooled else [])) == 0
        text = "".join(written) + capsys.readouterr().out
        assert [part.count('{"p": 4, "edges"') for part in written] == [0, 20, 20, 20]
        report = json.loads(text)
        assert report.pop("wall_seconds") >= 0
        assert [row.pop("elapsed_ms") >= 0 for row in report["rows"]] == [True] * 80
        assert report == expected
        assert len(text.splitlines()) == 80 + 2

    @needs_dev_full
    def test_a_failed_write_mid_stream_leaves_no_worker(self, capsys, monkeypatch):
        import multiprocessing

        from lyapid import sweep

        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(sweep, "_CHUNK", 20)  # four chunks, so a pool of two starts
        assert main(["sweep", "--p", "4", "--jobs", "2", "--out", "/dev/full"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write /dev/full: ") and err.count("\n") == 1, err
        assert multiprocessing.active_children() == []

    def test_report_byte_reproducible_modulo_timing(self, workdir):
        from lyapid.sweep import run_sweep

        serial = run_sweep(3, seed=7, jobs=1)
        parallel = run_sweep(3, seed=7, jobs=2)
        assert serial.canonical_bytes() == parallel.canonical_bytes()
        rerun = run_sweep(3, seed=7, jobs=1)
        assert rerun.canonical_bytes() == serial.canonical_bytes()

    def test_p4_parallel_matches_serial(self):
        from lyapid.sweep import run_sweep

        serial = run_sweep(4, seed=11, jobs=1)
        parallel = run_sweep(4, seed=11, jobs=2)
        assert serial.canonical_bytes() == parallel.canonical_bytes()

    def test_totals_recomputable_from_rows(self, workdir):
        from lyapid.identifiability import IdentClass
        from lyapid.sweep import run_sweep

        report = run_sweep(4, seed=3, jobs=2)
        total, ni, ni_eq9 = report.totals
        assert total == len(report.rows) == 80
        assert ni == sum(
            1 for r in report.rows
            if r.classification is IdentClass.NON_IDENTIFIABLE
        )
        assert ni_eq9 <= ni <= total


class TestLibraryRefusals:
    @pytest.mark.parametrize("name", LIBRARY_REFUSALS)
    def test_the_library_message_exits_2(self, workdir, capsys, name):
        command, files, message = LIBRARY_REFUSALS[name]
        argv = [command]
        for flag, content in files.items():
            if flag == "--graph":
                content = json.dumps(graph_to_json(content))
            argv += [flag, _write(workdir / flag.lstrip("-"), content)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["--p", "7"], ["--p", "2"], ["--p", "4", "--max-edges", "7"], ["--p", "3", "--jobs", "0"],
    ], ids=" ".join)
    def test_a_refused_sweep_never_opens_out(self, workdir, capsys, argv):
        out = workdir / "report.json"
        assert main(["sweep", *argv, "--out", str(out)]) == 2
        _assert_one_line_error(capsys)
        assert not out.exists()

    def test_jobs_past_the_cpus_start_no_pool(self, monkeypatch, capsys):
        # workers = min(jobs, CPUs) and the two p = 3 candidates are one chunk
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "Pool", None)  # calling it would fail
        assert main(["sweep", "--p", "3", "--jobs", "1000000"]) == 0
        assert capsys.readouterr().out.startswith('{"p": 3')


class TestSamplingParameters:
    @pytest.mark.parametrize("argv", BAD_SAMPLING_ARGS, ids=" ".join)
    def test_bad_sampling_parameters_exit_2(self, workdir, capsys, argv):
        if argv[0] == "classify":
            graph = json.dumps(graph_to_json(two_cycle_out_edge()))
            argv = argv + ["--graph", _write(workdir / "g.json", graph)]
        assert main(argv) == 2
        _assert_one_line_error(capsys)

    # Options and commands that do not exist: argparse refuses them before
    # any file is read.  The trial count and entry bound are constants, so
    # no flag can weaken a deficit verdict's failure bound.
    @pytest.mark.parametrize("argv, message", [
        (["classify", "--graph", "g.json", "--identity"], "unrecognized arguments: --"),
        (["sweep", "--p", "3", "--connectivity", "weakly-connected"],
         "unrecognized arguments: --"),
        (["props", "--suite", "all"], "argument command: invalid choice: 'props'"),
        (["classify", "--graph", "g.json", "--trials", "1"], "unrecognized arguments: --"),
        (["classify", "--graph", "g.json", "--bound", "0"], "unrecognized arguments: --"),
        (["classify", "--graph", "g.json", "--bound", "-5"], "unrecognized arguments: --"),
        (["sweep", "--p", "3", "--trials", "0"], "unrecognized arguments: --"),
        (["sweep", "--p", "4", "--bound", "1"], "unrecognized arguments: --"),
    ], ids=["classify --identity", "sweep --connectivity", "props", "classify --trials",
            "classify --bound 0", "classify --bound -5", "sweep --trials", "sweep --bound"])
    def test_removed_options_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
