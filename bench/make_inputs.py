"""Regenerate the benchmark's committed inputs from the program in ``src``.

    python3 bench/make_inputs.py                       # write both files
    python3 bench/make_inputs.py --check               # regenerate and compare; exit 1 on a difference
    python3 bench/make_inputs.py --check --keys sweep-p4 deficit-3x1   # a fast subset

``deficit_graphs.json`` holds every ``rank-deficit-witness`` row of the
p = 4 and p = 5 sweeps at seed 0, in report order: the deficit-classify
workload's input, never a hand-picked subset. ``pins.json`` holds, for each
pinned seed, the sha256 of every sweep's canonical report and of every
deficit-classify pass's verdicts. A full regeneration runs ten p = 5 sweeps
and ten full deficit-classify passes: about 13 minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import json
import sys

import common

LIST_SOURCES = ("sweep-p4", "sweep-p5")  # pin keys whose seed-0 reports make the list


def _pass_output(wl: common.Workload, quick: bool, seed: int) -> dict:
    out = common.OUT / f"inputs-{wl.pin_key}-{seed}.json"
    argv = (common.sweep_argv(wl, seed, out) if wl.p is not None
            else common.child_argv("deficit", wl.name, int(quick), seed, out))
    proc = common.run_process(argv)
    if proc.returncode:
        raise SystemExit(f"{' '.join(argv)} exited with {proc.returncode}")
    return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed files instead of writing them")
    parser.add_argument("--keys", nargs="+", help="pin keys to regenerate (default: all)")
    args = parser.parse_args(argv)
    common.require_checkout()
    common.OUT.mkdir(exist_ok=True)

    variants = {}
    for quick, table in ((False, common.WORKLOADS), (True, common.QUICK)):
        for wl in table.values():
            variants.setdefault(wl.pin_key, (wl, quick))
    keys = args.keys or list(variants)
    unknown = set(keys) - set(variants)
    if unknown:
        parser.error(f"unknown keys {sorted(unknown)}; choose from {sorted(variants)}")
    seeds = range(common.PINNED_SEEDS)
    pins, differences = {}, []

    sources = {}
    for key in keys:
        wl, quick = variants[key]
        if wl.p is None:
            continue
        pins[key] = {}
        for seed in seeds:
            report = _pass_output(wl, quick, seed)
            pins[key][str(seed)] = common.canonical_sha256(report)
            if seed == 0 and key in LIST_SOURCES:
                sources[key] = common.deficit_rows(report)
    if len(sources) == len(LIST_SOURCES):
        graphs = [g for key in LIST_SOURCES for g in sources[key]]
        if args.check:
            if graphs != common.load_deficit_graphs():
                differences.append("deficit_graphs.json")
        else:
            common.DEFICIT_GRAPHS.write_text(
                '{"source": "every rank-deficit-witness row of `lyapid sweep --p 4` and '
                '`--p 5` at seed 0, in report order",\n "graphs": [\n'
                + ",\n".join("  " + json.dumps(g) for g in graphs) + "\n]}\n")
    elif args.check:
        # Without both full sweeps, check the part of the list they cover.
        listed = common.load_deficit_graphs()
        for key, rows in sources.items():
            if rows != [g for g in listed if g["p"] == variants[key][0].p]:
                differences.append(f"deficit_graphs.json ({key} part)")

    for key in keys:
        wl, quick = variants[key]
        if wl.p is not None:
            continue
        pins[key] = {str(seed): common.verdicts_sha256(_pass_output(wl, quick, seed)["verdicts"])
                     for seed in seeds}

    committed = common.load_pins() if common.PINS.exists() else {}
    if args.check:
        differences += [f"pins.json[{key!r}]" for key in pins if pins[key] != committed.get(key)]
        for item in differences:
            print(f"regenerated {item} differs from the committed file", file=sys.stderr)
        print("inputs reproduce" if not differences else "inputs differ")
        return 1 if differences else 0
    committed.update(pins)
    common.PINS.write_text(json.dumps(committed, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
