"""Per-layer metrics of the traced run: which etklab calls get a span, and
how the recorded spans and counters reduce to the metrics in BENCHMARK.json.

Span names follow ``<module>.<function>``; metric names add a stat:
``calls``, ``busy_s`` and ``self_s`` are per traced operation, as are the
work counts.  ``core_dim``, ``core_bytes`` and ``bond_max`` are maxima over
the run; ``core_bytes`` and ``bond_max`` are computed from array shapes.
``*.oracle.failed`` and ``cli.determinism.failed`` count failed operations
of the whole run.
"""

from __future__ import annotations

import math

from spans import Probe, Recorder, busy_and_self

# spans with calls / busy_s / self_s, in layer order
TIMED = [
    "quantum.etk_from_circuit",
    "etk.etk_from_feature_set",
    "etk.gram_matrix_real.dense",
    "etk.gram_matrix_real.mpo",
    "etk.gram_matrix_real.lpmpo",
    "mercer.mercer_decompose",
    "mercer.basis_from_etk",
    "mercer.component_gram",
    "mercer.gram_schmidt_basis",
    "mercer.transform_truncate",
    "mercer.diagonalize",
    "single_layer.sample_psi2",
    "single_layer.spectrum_arrays",
    "single_layer.spectrum_to_mercer",
    "learning.learning_comparison_experiment",
    "learning.learning_curve",
    "learning.self_gram",
    "learning.cross_gram",
    "learning.kernel_target_alignment",
    "learning.generate_dataset",
    "learning.tailored_target",
    "learning.krr_fit",
    "learning.krr_predict",
    "tables.write",
    "svgplot.write_plot",
    "cli.main",
]

COUNTS = [
    ("quantum.route_dense.calls", "count"),
    ("quantum.route_ptm.calls", "count"),
    ("quantum.simulate_kernel.calls", "count"),
    ("quantum.simulate_kernel.busy_s", "s"),
    ("quantum.etk_from_circuit.core_dim", "count"),
    ("quantum.oracle.failed", "count"),
    ("etk.gram_matrix_real.dense.entries", "count"),
    ("etk.gram_matrix_real.mpo.entries", "count"),
    ("etk.gram_matrix_real.lpmpo.entries", "count"),
    ("tensor_core.core_bytes", "B"),
    ("tensor_core.bond_max", "count"),
    ("tensor_core.oracle.failed", "count"),
    ("feature_maps.local_vectors.busy_s", "s"),
    ("feature_maps.local_vectors.points", "count"),
    ("mercer.components", "count"),
    ("mercer.rank", "count"),
    ("mercer.useful_ratio", "ratio"),
    ("mercer.eigenfunction.evals", "count"),
    ("mercer.oracle.failed", "count"),
    ("single_layer.terms", "count"),
    ("learning.krr_predict.entries", "count"),
    ("tables.csv_bytes", "B"),
    ("cli.determinism.failed", "count"),
    ("bench.op.busy_s", "s"),
    ("bench.op.self_s", "s"),
    ("bench.ops_per_s.untraced", "1/s"),
    ("bench.ops_per_s.traced", "1/s"),
    ("bench.trace_overhead.ops_per_s", "1/s"),
]

PER_LAYER = [
    (f"{name}.{stat}", unit)
    for name in TIMED
    for stat, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
] + COUNTS


def _core_kind(args, kwargs) -> str:
    from etklab.tensor_core import LPMPO, MPO

    kernel = args[0] if args else kwargs["kernel"]
    if isinstance(kernel.core, LPMPO):
        return "etk.gram_matrix_real.lpmpo"
    if isinstance(kernel.core, MPO):
        return "etk.gram_matrix_real.mpo"
    return "etk.gram_matrix_real.dense"


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _after_extract(rec: Recorder, args, kwargs, kernel):
    from etklab import quantum

    circ = _arg(args, kwargs, 0, "circ")
    route = _arg(args, kwargs, 1, "route", "auto")
    if route == "auto":
        dense = circ.num_sites <= quantum.DENSE_ROUTE_MAX_SITES
        route = "dense" if dense else "ptm"
    rec.count(f"quantum.route_{route}.calls")
    rec.peak("quantum.etk_from_circuit.core_dim", math.prod(kernel.local_dims))


def _after_kernel(rec: Recorder, args, kwargs, kernel):
    core = kernel.core
    if hasattr(core, "sites"):
        rec.peak("tensor_core.core_bytes", sum(t.nbytes for t in core.sites))
        rec.peak("tensor_core.bond_max", max(t.shape[0] for t in core.sites))
    else:
        rec.peak("tensor_core.core_bytes", core.nbytes)


def _after_gram(rec: Recorder, args, kwargs, gram):
    rec.count(_core_kind(args, kwargs) + ".entries", gram.size)


def _after_gram_schmidt(rec: Recorder, args, kwargs, gs):
    rec.count("mercer.components", gs.gram.shape[0])
    rec.count("mercer.rank", gs.rank)


def _after_spectrum(rec: Recorder, args, kwargs, result):
    rec.count("single_layer.terms", result[0].size)


def _after_predict(rec: Recorder, args, kwargs, pred):
    model = _arg(args, kwargs, 0, "model")
    rec.count("learning.krr_predict.entries", pred.size * len(model.train_inputs))


PROBES = [
    Probe("etklab.quantum:etk_from_circuit", "quantum.etk_from_circuit", _after_extract),
    Probe("etklab.etk:etk_from_feature_set", "etk.etk_from_feature_set", _after_kernel),
    Probe("etklab.etk:gram_matrix_real", _core_kind, _after_gram),
    Probe("etklab.mercer:mercer_decompose", "mercer.mercer_decompose"),
    Probe("etklab.mercer:basis_from_etk", "mercer.basis_from_etk"),
    Probe("etklab.mercer:FunctionBasis.gram", "mercer.component_gram"),
    Probe("etklab.mercer:gram_schmidt_basis", "mercer.gram_schmidt_basis",
          _after_gram_schmidt),
    Probe("etklab.mercer:transform_truncate", "mercer.transform_truncate"),
    Probe("etklab.mercer:diagonalize", "mercer.diagonalize"),
    Probe("etklab.mercer:MercerDecomposition.eigenfunctions_at",
          "mercer.eigenfunction.evals", span=False),
    Probe("etklab.single_layer:sample_psi2", "single_layer.sample_psi2"),
    Probe("etklab.single_layer:spectrum_arrays", "single_layer.spectrum_arrays",
          _after_spectrum),
    Probe("etklab.single_layer:spectrum_to_mercer", "single_layer.spectrum_to_mercer"),
    Probe("etklab.learning:learning_comparison_experiment",
          "learning.learning_comparison_experiment"),
    Probe("etklab.learning:learning_curve", "learning.learning_curve"),
    Probe("etklab.learning:self_gram", "learning.self_gram"),
    Probe("etklab.learning:cross_gram", "learning.cross_gram"),
    Probe("etklab.learning:kernel_target_alignment", "learning.kernel_target_alignment"),
    Probe("etklab.learning:generate_dataset", "learning.generate_dataset"),
    Probe("etklab.learning:tailored_target", "learning.tailored_target"),
    Probe("etklab.learning:krr_fit", "learning.krr_fit"),
    Probe("etklab.learning:krr_predict", "learning.krr_predict", _after_predict),
    Probe("etklab.tables:ResultTable.write", "tables.write"),
    Probe("etklab.svgplot:write_plot", "svgplot.write_plot"),
    Probe("etklab.cli:main", "cli.main"),
]


def layer_metrics(rec: Recorder, traced_ops: int, extra: dict) -> dict:
    """Every PER_LAYER metric from the recorder; ``extra`` supplies the
    run-level values (failure counts, csv bytes, ops per second)."""
    per_op = 1.0 / max(traced_ops, 1)
    calls: dict = {}
    for s in rec.spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    times = busy_and_self(rec.spans)
    values = {}
    for name in TIMED + ["quantum.simulate_kernel", "feature_maps.local_vectors",
                         "bench.op"]:
        busy, self_s = times.get(name, (0.0, 0.0))
        values[f"{name}.calls"] = calls.get(name, 0) * per_op
        values[f"{name}.busy_s"] = busy * per_op
        values[f"{name}.self_s"] = self_s * per_op
    for name, n in rec.counts.items():
        values[name] = n * per_op
    values.update(rec.maxima)
    components = rec.counts.get("mercer.components", 0)
    values["mercer.useful_ratio"] = (
        rec.counts.get("mercer.rank", 0) / components if components else 0.0
    )
    values.update(extra)
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER
    }
