"""Command-line surface: solve, fiber, classify, sweep.

Matrices travel as exact rational CSV (cells "n" or "n/d"); graphs as JSON
{"p": p, "edges": [[i, j], ...]}.  Exit codes: 0 ok, 1 parse error,
2 precondition violation or failed output write.  The library owns every
precondition: each ``ValueError`` it raises exits 2 with its message.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

from .graphs import EnumPolicy, graph_from_json
from .identifiability import ClassifyConfig, classify
from .linalg import format_matrix_csv, parse_matrix_csv
from .lyapunov import CovMatrix, DriftMatrix, VolatilityMatrix, fiber, solve_for_sigma
from .sweep import _check_sweep, _write_report

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_file(path: str, parse):
    """parse(the file's text); an unreadable or malformed file exits 1."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
    try:
        return parse(text)
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, f"{path}: {exc}") from exc


def _cannot_write(target: str, exc: OSError) -> _CliError:
    return _CliError(EXIT_PRECONDITION, f"cannot write {target}: {exc}")


def _print(text: str) -> None:
    """Print ``text`` on stdout and flush it; a failed write exits 2 and says so."""
    try:
        print(text, flush=True)
    except OSError as exc:  # such as a full disk
        raise _cannot_write("standard output", exc) from exc


def _cmd_solve(args) -> int:
    drift_matrix = _read_file(args.drift, parse_matrix_csv)
    vol = VolatilityMatrix(_read_file(args.vol, parse_matrix_csv))
    sigma = solve_for_sigma(DriftMatrix.from_matrix(drift_matrix), vol)
    _print(format_matrix_csv(sigma.matrix))
    return EXIT_OK


def _cmd_fiber(args) -> int:
    g = _read_file(args.graph, graph_from_json)
    sigma_matrix = _read_file(args.sigma, parse_matrix_csv)
    vol = VolatilityMatrix(_read_file(args.vol, parse_matrix_csv))
    result = fiber(CovMatrix(sigma_matrix), g, vol)
    _print(json.dumps(result.to_json(), indent=2))
    return EXIT_OK


def _cmd_classify(args) -> int:
    g = _read_file(args.graph, graph_from_json)
    if args.vol is not None:
        vol = VolatilityMatrix(_read_file(args.vol, parse_matrix_csv))
    else:
        vol = VolatilityMatrix.identity(g.p)
    verdict = classify(g, vol, ClassifyConfig(args.seed))
    _print(json.dumps(verdict.to_json(), indent=2))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    policy = _check_sweep(args.p, EnumPolicy(max_edges=args.max_edges), args.seed, args.jobs)
    target = args.out or "standard output"
    try:  # opened before the sweep, so an unwritable path costs no sweep
        out = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        raise _cannot_write(args.out, exc) from exc
    try:
        with out as stream:  # a file closes here, so a failed flush at the close is caught too
            summary = _write_report(stream, args.p, policy, args.seed, args.jobs)
            stream.flush()
    except OSError as exc:
        raise _cannot_write(target, exc) from exc
    if args.out:
        _print(summary)
    else:
        print(summary, file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyapid",
        description="Identifiability of graphical continuous Lyapunov models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve M Sigma + Sigma M^T + C = 0 for Sigma")
    p_solve.add_argument("--drift", required=True, help="drift matrix CSV")
    p_solve.add_argument("--vol", required=True, help="volatility matrix CSV")
    p_solve.set_defaults(func=_cmd_solve)

    p_fiber = sub.add_parser("fiber", help="exact solution set of the drift recovery system")
    p_fiber.add_argument("--graph", required=True, help="graph JSON file")
    p_fiber.add_argument("--sigma", required=True, help="covariance matrix CSV")
    p_fiber.add_argument("--vol", required=True, help="volatility matrix CSV")
    p_fiber.set_defaults(func=_cmd_fiber)

    p_classify = sub.add_parser("classify", help="identifiability verdict for one graph")
    p_classify.add_argument("--graph", required=True, help="graph JSON file")
    p_classify.add_argument("--vol", help="volatility matrix CSV (default: the identity)")
    p_classify.add_argument("--seed", type=int, default=ClassifyConfig.seed)
    p_classify.set_defaults(func=_cmd_classify)

    p_sweep = sub.add_parser("sweep", help="classify all candidate graphs on p nodes")
    p_sweep.add_argument("--p", type=int, required=True)
    p_sweep.add_argument("--max-edges", type=int, default=None,
                         help="total edge bound incl. self-loops (default p(p+1)/2)")
    p_sweep.add_argument("--seed", type=int, default=ClassifyConfig.seed)
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="upper bound on the worker processes; a sweep of "
                              "one chunk of candidates, as every p <= 4 sweep is, "
                              "runs in process")
    p_sweep.add_argument("--out", help="write the full JSON report to this file")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)  # every write to stdout is flushed by _print
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # the library refused an input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:  # not an output failure: those name their target
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
