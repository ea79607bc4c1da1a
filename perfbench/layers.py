"""Per-layer metrics: the module-level view of the traced passes.

A layer is a module of the program.  Each metric sums spans recorded by the
outside tracer over one traced pass; a run reports the median over its
traced passes.  README.md maps each metric to the end-to-end metric and the
workload it should move.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

# Spans summed into one metric where a public helper does its caller's work.
GROUPS = {
    "algebra.load": ("algebra.load", "algebra.from_json_dict"),
    "algebra.save": ("algebra.save", "algebra.to_json_dict"),
    "forms.save": ("forms.save", "forms.to_json_dict"),
    "algebra.scans": ("algebra.check_skew", "algebra.check_metricity",
                      "algebra.check_full_antisym_lowered",
                      "algebra.check_symmetry_property", "algebra.check_cyclic",
                      "algebra.cyclic_sum"),
    "linalg.EchelonBasis.insert": ("linalg.EchelonBasis.insert",
                                   "linalg.EchelonBasis.reduce"),
}

SELF_TIMES = (
    "construct.derivation_residual", "construct.associated_leibniz",
    "algebra.check_filippov", "algebra.filippov_residual", "algebra.scans",
    "algebra.load", "algebra.save", "tensor.contract", "tensor.raise_lower",
    "tensor.RationalTensor.init", "forms.mixed_trace", "forms.nondegenerate",
    "forms.save", "young.isotypic_project", "adjoint.lie_closure",
    "adjoint.ad_kernel", "adjoint.centre", "linalg.EchelonBasis.insert",
    "linalg.rref", "cli.run",
)
CALLS = (
    "algebra.check_filippov", "algebra.NaryAlgebra.lowered", "tensor.contract",
    "young.isotypic_project", "linalg.EchelonBasis.insert",
)
COUNTS = (
    ("algebra.load", "entries"), ("tensor.contract", "in_nnz"),
    ("tensor.contract", "out_nnz"), ("tensor.raise_lower", "out_nnz"),
    ("tensor.RationalTensor.init", "entries"), ("forms.mixed_trace", "out_nnz"),
    ("young.isotypic_project", "perm_terms"),
)


def pass_trace(done) -> dict:
    """Sum the traces of one traced pass's requests."""
    self_s, calls = defaultdict(float), Counter()
    counts = defaultdict(Counter)
    startup = 0.0
    for outcome in done.outcomes:
        trace = outcome.trace
        if trace is None:
            continue
        for name, value in trace["self_s"].items():
            self_s[name] += value
        calls.update(trace["calls"])
        for name, c in trace["counts"].items():
            counts[name].update(c)
        if trace["ready"] is not None:
            startup += trace["ready"] - outcome.child.spawned
    metrics = {}
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = (sum(self_s[s] for s in GROUPS.get(name, (name,))), "s")
    for name in CALLS:
        metrics[f"{name}.calls"] = (calls[name], "count")
    for name, key in COUNTS:
        metrics[f"{name}.{key}"] = (counts[name][key], "count")
    inserts = calls["linalg.EchelonBasis.insert"]
    accepted = counts["linalg.EchelonBasis.insert"]["accepted"]
    metrics["linalg.EchelonBasis.insert.accept_ratio"] = (
        accepted / inserts if inserts else 0.0, "ratio")
    metrics["cli.startup_s"] = (startup, "s")
    return metrics


def layer_metrics(traced_passes, overhead_ratio: float) -> dict:
    """Median of each metric over the traced passes, plus tracing overhead."""
    out = {}
    for name, (_, unit) in traced_passes[0].items():
        out[name] = (statistics.median(p[name][0] for p in traced_passes), unit)
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
