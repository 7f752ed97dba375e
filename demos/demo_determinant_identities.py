#!/usr/bin/env python3
"""The closed-form determinant factorizations, evaluated exactly.

Two families admit exact factorizations of the restriction determinant:
the directed 3-cycle and complete DAGs.  Both are checked here at random
model covariances, which are positive definite, and the kernel-basis route
is shown to carry the same information in a smaller matrix.
"""

import random

from lyapid import (
    VolatilityMatrix,
    build_A,
    build_H,
    det,
    restrict_A,
    restrict_H,
    sample_stable_drift,
    solve_for_sigma,
)
from lyapid.catalog import complete_dag, three_cycle, two_cycle_out_edge

rng = random.Random(0)


def model_sigma(g):
    """The covariance of a random stable drift on g under C = I."""
    drift = sample_stable_drift(g, rng, bound=9)
    return solve_for_sigma(drift, VolatilityMatrix.identity(g.p))


print("3-cycle: det A(Sigma)_E = 8 det(Sigma) (S11 S22 S33 - S12 S13 S23)")
for _ in range(3):
    sigma = model_sigma(three_cycle())
    s = sigma.matrix
    lhs = det(restrict_A(build_A(sigma), three_cycle()))
    rhs = 8 * det(s) * (s[0, 0] * s[1, 1] * s[2, 2] - s[0, 1] * s[0, 2] * s[1, 2])
    print(f"  {lhs} == {rhs}: {lhs == rhs}")

print("\ncomplete DAGs: |det| = 2^p * product of trailing principal minors")
for p in (2, 3, 4, 5):
    sigma = model_sigma(complete_dag(p))
    lhs = abs(det(restrict_A(build_A(sigma), complete_dag(p))))
    rhs = 2**p
    for i in range(p):
        trailing = list(range(i, p))
        rhs *= det(sigma.matrix.select_rows(trailing).select_columns(trailing))
    print(f"  p={p}: {lhs == rhs} (value {lhs})")

print("\nkernel route: for the 2-cycle-with-out-edge the restricted kernel")
print("determinant is -S23 (S11 S22 - S12^2); it vanishes iff S23 = 0,")
print("which is where generic identifiability degenerates:")
g = two_cycle_out_edge()
for _ in range(3):
    s = model_sigma(g).matrix
    value = det(restrict_H(build_H(s), g))
    closed_form = -(s[1, 2] * (s[0, 0] * s[1, 1] - s[0, 1] * s[0, 1]))
    print(f"  {value} == {closed_form}: {value == closed_form}")
