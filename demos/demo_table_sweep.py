#!/usr/bin/env python3
"""Run the classification sweep for 3 and 4 nodes and print the table rows.

The full 5-node sweep (4862 graphs) takes about 0.8 s wall time on two cores:
    lyapid sweep --p 5 --jobs 2 --out sweep5.json
"""

from lyapid import IdentClass, run_sweep

for p in (3, 4):
    report = run_sweep(p, jobs=2)
    total, ni, ni_eq9 = report.totals
    print(f"p={p}: {total} non-simple classes, {ni} non-identifiable, "
          f"{ni_eq9} of those satisfy the trek bound "
          f"({report.wall_seconds:.1f}s)")
    for row in report.rows:
        if row.classification is IdentClass.NON_IDENTIFIABLE:
            edges = ", ".join(f"{i}->{j}" for (i, j) in row.edges)
            print(f"    non-identifiable: [{edges}]  via {row.certificate_kind}"
                  f"  (trek bound {'met' if row.satisfies_eq9 else 'violated'})")
