"""Identifiability of graphical continuous Lyapunov models.

Decides whether the drift matrix of an Ornstein-Uhlenbeck-type model with
sparsity pattern given by a directed graph can be recovered from the
equilibrium covariance matrix, using exact rational linear algebra
throughout.  See the README for the library tour and the command-line
interface.
"""

from .graphs import (
    DiGraph,
    EnumPolicy,
    canonical_form,
    enumerate_candidates,
    graph_from_json,
    graph_to_json,
    is_dag,
    is_simple,
    necessary_criterion,
    no_trek_pairs,
)
from .identifiability import (
    Certificate,
    ClassifyConfig,
    IdentClass,
    IdentVerdict,
    RankSample,
    classify,
)
from .linalg import (
    RatMatrix,
    Rational,
    SolutionSet,
    det,
    format_matrix_csv,
    is_positive_definite,
    parse_matrix_csv,
    rank,
    rat,
    solve_linear,
    vech,
)
from .lyapunov import (
    CovMatrix,
    DriftMatrix,
    FiberResult,
    NotStableError,
    VolatilityMatrix,
    build_A,
    build_H,
    fiber,
    is_stable,
    restrict_A,
    restrict_H,
    sample_stable_drift,
    solve_for_sigma,
)
from .sweep import SweepReport, SweepRow, run_sweep

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ClassifyConfig",
    "CovMatrix",
    "DiGraph",
    "DriftMatrix",
    "EnumPolicy",
    "FiberResult",
    "IdentClass",
    "IdentVerdict",
    "NotStableError",
    "RankSample",
    "RatMatrix",
    "Rational",
    "SolutionSet",
    "SweepReport",
    "SweepRow",
    "VolatilityMatrix",
    "build_A",
    "build_H",
    "canonical_form",
    "classify",
    "det",
    "enumerate_candidates",
    "fiber",
    "format_matrix_csv",
    "graph_from_json",
    "graph_to_json",
    "is_dag",
    "is_positive_definite",
    "is_simple",
    "is_stable",
    "necessary_criterion",
    "no_trek_pairs",
    "parse_matrix_csv",
    "rank",
    "rat",
    "restrict_A",
    "restrict_H",
    "run_sweep",
    "sample_stable_drift",
    "solve_for_sigma",
    "solve_linear",
    "vech",
]
