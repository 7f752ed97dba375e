#!/usr/bin/env python3
"""Classify a gallery of graphs and show what each certificate looks like.

The gallery covers every verdict the classifier can produce: theorem-backed
global identifiability, a sampled full-rank witness, the trek-based bound,
the raw edge-count bound, and a rank-deficit certificate with an explicit
kernel vector.
"""

from lyapid import ClassifyConfig, VolatilityMatrix, classify
from lyapid.catalog import (
    complete_dag,
    completed_four_cycle,
    fan_in_two_cycle,
    fan_in_two_cycle_with_return,
    many_parents_two_cycle,
    three_cycle,
    two_cycle_out_edge,
    two_cycle_two_sinks,
)

GALLERY = [
    ("directed 3-cycle", three_cycle()),
    ("complete DAG on 4 nodes", complete_dag(4)),
    ("completed 4-cycle", completed_four_cycle()),
    ("2-cycle with an out-edge", two_cycle_out_edge()),
    ("2-cycle fanning into two sinks", two_cycle_two_sinks()),
    ("2-cycle + fan into one node", fan_in_two_cycle()),
    ("same + return edge", fan_in_two_cycle_with_return()),
    ("many parents + 2-cycle (p=6)", many_parents_two_cycle(6)),
]

cfg = ClassifyConfig(seed=7)
for name, g in GALLERY:
    verdict = classify(g, VolatilityMatrix.identity(g.p), cfg)
    print(f"{name:35s} {verdict.classification.value:40s} [{verdict.certificate.kind}]")

print("\nA rank-deficit certificate in detail:")
verdict = classify(two_cycle_two_sinks(), VolatilityMatrix.identity(4), cfg)
cert = verdict.certificate
print("  failure bound:", cert.failure_bound)
sample = cert.samples[0]
print("  sample rank:", sample.rank, "of", len(cert.edges), "columns")
print("  kernel vector (edge order):")
for edge, coeff in zip(cert.edges, sample.kernel_vector):
    if coeff:
        print(f"    {edge[0]}->{edge[1]}: {coeff}")
