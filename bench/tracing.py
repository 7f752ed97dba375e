"""Layer spans for the lyapid benchmark, recorded from outside the program.

Each layer boundary is a call site that lyapid looks up as a module
attribute at call time (``identifiability`` calls ``sample_stable_drift``,
``_intkernel.int_rank`` and so on through its module globals). While a
:class:`Tracer` is installed, each such attribute is replaced by a wrapper
that records a span, and the original is put back afterwards. A boundary
whose module or attribute no longer exists is reported as absent instead of
failing, so renaming or deleting an internal helper needs no benchmark edit.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

CLASSIFY = "identifiability.classify"
SAMPLE_DRIFT = "lyapunov.sample_drift"
SOLVE_SIGMA = "lyapunov.solve_sigma"
INT_RANK = "intkernel.int_rank"

# (layer, module, attribute path). A layer is the union of its boundaries.
BOUNDARIES = (
    (CLASSIFY, "lyapid.identifiability", "classify"),
    ("graphs.trek", "lyapid.identifiability", "necessary_criterion"),
    ("graphs.trek", "lyapid.identifiability", "no_trek_pairs"),
    (SAMPLE_DRIFT, "lyapid.identifiability", "sample_stable_drift"),
    ("linalg.is_stable", "lyapid.lyapunov", "is_stable"),
    (SOLVE_SIGMA, "lyapid.identifiability", "_solve_sigma_scaled"),
    ("intkernel.solve", "lyapid._intkernel", "solve_square_int"),
    ("lyapunov.build_A", "lyapid.identifiability", "_build_A_int"),
    ("lyapunov.build_A", "lyapid.identifiability", "build_A"),
    ("lyapunov.build_H", "lyapid.identifiability", "_build_H_int"),
    (INT_RANK, "lyapid._intkernel", "int_rank"),
    ("identifiability.kernel_vector", "lyapid.identifiability", "_kernel_vector"),
    ("linalg.solve_linear", "lyapid.identifiability", "solve_linear"),
    ("identifiability.to_json", "lyapid.identifiability", "IdentVerdict.to_json"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in BOUNDARIES))
DECIDED_KINDS = ("full-rank-witness", "rank-deficit-witness", "trek-bound")


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value), or None when absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    return (owner, name, value) if callable(value) else None


def _observe(layer: str, index: int, args, result):
    """The value a layer's result contributes to its counters, if any.

    A result of another shape (after a refactor) is skipped, not an error.
    """
    try:
        if layer == SOLVE_SIGMA:  # (numerators, denominator): largest numerator bits
            return max(abs(v).bit_length() for row in result[0] for v in row)
        if layer == INT_RANK:  # full column rank?
            return result == len(args[0][0])
        if layer == CLASSIFY:
            return index, result.certificate.kind
    except (AttributeError, IndexError, TypeError, ValueError):
        pass
    return None


class Tracer:
    """Spans kept in memory: [layer, start, end, parent index, request index].

    A request is the outermost span of a call chain, so every span of one
    ``classify`` call shares that call's request index.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.results: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []

    def _wrap(self, layer: str, fn):
        spans, stack, results = self.spans, self._stack, self.results

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            request = stack[0] if stack else index
            span = [layer, 0.0, 0.0, parent, request]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            observed = _observe(layer, index, args, result)
            if observed is not None:
                results[layer].append(observed)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every boundary that exists; yield the layers with none present."""
        saved = []
        present = set()
        try:
            for layer, module, path in BOUNDARIES:
                found = _resolve(module, path)
                if found is None:
                    continue
                owner, name, fn = found
                saved.append((owner, name, fn))
                setattr(owner, name, self._wrap(layer, fn))
                present.add(layer)
            yield [layer for layer in LAYERS if layer not in present]
        finally:
            for owner, name, fn in reversed(saved):
                setattr(owner, name, fn)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer time and counts, classify self time and span coverage."""
        total = defaultdict(float)
        calls = defaultdict(int)
        child_time = defaultdict(float)
        samples_in_request = defaultdict(int)
        for layer, start, end, parent, request in self.spans:
            total[layer] += end - start
            calls[layer] += 1
            if parent >= 0:
                child_time[parent] += end - start
            if layer == SAMPLE_DRIFT:
                samples_in_request[request] += 1

        def per_call_ms(layer):
            return total[layer] / calls[layer] * 1e3 if calls[layer] else 0.0

        out = {f"{layer}_ms": per_call_ms(layer) for layer in LAYERS}
        out.update({f"{layer}_calls": calls[layer] for layer in LAYERS})

        classify_spans = [i for i, span in enumerate(self.spans) if span[0] == CLASSIFY]
        self_time = [
            (self.spans[i][2] - self.spans[i][1]) - child_time[i] for i in classify_spans
        ]
        out["identifiability.classify_self_ms"] = (
            sum(self_time) / len(self_time) * 1e3 if self_time else 0.0
        )
        out["trace.span_coverage"] = (
            1 - sum(self_time) / total[CLASSIFY] if total[CLASSIFY] else 0.0
        )
        kinds = dict(self.results[CLASSIFY])
        sampled = [i for i in classify_spans if samples_in_request[i]]
        first = sum(1 for i in sampled
                    if kinds.get(i) == "full-rank-witness" and samples_in_request[i] == 1)
        out["identifiability.first_draw_ratio"] = first / len(sampled) if sampled else 0.0
        for kind in DECIDED_KINDS:
            out[f"identifiability.decided.{kind}"] = sum(1 for k in kinds.values() if k == kind)

        bits = self.results[SOLVE_SIGMA]
        out["lyapunov.sigma_bits_p50"] = statistics.median(bits) if bits else 0
        out["lyapunov.sigma_bits_max"] = max(bits, default=0)
        ranks = self.results[INT_RANK]
        out["intkernel.full_rank_ratio"] = sum(ranks) / len(ranks) if ranks else 0.0
        return out
