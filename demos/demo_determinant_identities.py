#!/usr/bin/env python3
"""The closed-form determinant factorizations, evaluated exactly.

Two families admit exact factorizations of the restriction determinant:
the directed 3-cycle and complete DAGs.  Both are checked here at random
rational positive definite points, and the kernel-basis route is shown to
carry the same information in a smaller matrix.
"""

import random

from lyapid import CovMatrix, build_H, det, restrict_H
from lyapid.catalog import three_cycle, two_cycle_out_edge
from lyapid.identifiability import cycle3_determinant_identity, dag_determinant_identity
from lyapid.properties import random_pd_matrix

rng = random.Random(0)

print("3-cycle: det A(Sigma)_E = 8 det(Sigma) (S11 S22 S33 - S12 S13 S23)")
for _ in range(3):
    sigma = CovMatrix(random_pd_matrix(3, rng))
    lhs, rhs = cycle3_determinant_identity(sigma)
    print(f"  {lhs} == {rhs}: {lhs == rhs}")

print("\ncomplete DAGs: |det| = 2^p * product of trailing principal minors")
for p in (2, 3, 4, 5):
    sigma = CovMatrix(random_pd_matrix(p, rng))
    lhs, rhs = dag_determinant_identity(sigma)
    print(f"  p={p}: {lhs == rhs} (value {lhs})")

print("\nkernel route: for the 2-cycle-with-out-edge the restricted kernel")
print("determinant is -S23 (S11 S22 - S12^2); it vanishes iff S23 = 0,")
print("which is where generic identifiability degenerates:")
g = two_cycle_out_edge()
for _ in range(3):
    s = random_pd_matrix(3, rng)
    value = det(restrict_H(build_H(s), g))
    closed_form = -(s[1, 2] * (s[0, 0] * s[1, 1] - s[0, 1] * s[0, 1]))
    print(f"  {value} == {closed_form}: {value == closed_form}")
