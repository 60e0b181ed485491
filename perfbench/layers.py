"""Which sedlab calls the traced run wraps, and the per-layer metrics.

A layer is one sedlab module: kernels, kinetic, transport, micro, metrics
and harness (sampling, runner, sweeps, IO).  ``bounds`` is closed-form and
too cheap to trace.  Every span name below is ``<layer>.<operation>``; the
per-layer metric ``<span>.<stat>`` reads ``stat`` (calls, busy_s, self_s or
ms_p50) off that span's summary.  The remaining metrics are counters filled
from return values, and two that describe the trace itself.
"""

from __future__ import annotations

import os
import sys

from sedlab import kernels, kinetic, metrics, micro, transport
from sedlab.harness import runner, sampling

import spans

# span name -> function; each is replaced wherever a sedlab module names it
FUNCTIONS = {
    "kernels.brinkman": kernels.brinkman_solve,
    "kernels.stokes_solve": kernels.stokes_solve,
    "kernels.deposit": kernels.deposit,
    "kernels.interpolate": kernels.interpolate,
    "kernels.velocity_gradient": kernels.velocity_gradient,
    "kinetic.vlasov_step": kinetic.vlasov_step,
    "kinetic.energy_budget": kinetic.energy_budget,
    "transport.transport_step": transport.transport_step,
    "micro.closure": micro.implicit_velocities,
    "micro.contact_check": micro.pairwise_min_distance,
    "micro.stats": micro.stats,
    "micro.check_assumptions": micro.check_assumptions,
    "metrics.w2_exact": metrics.wasserstein2_exact,
    "metrics.steady_field": metrics.steady_field_velocities,
    "metrics.modulated_energies": metrics.modulated_energies,
    "harness.sample_initial": sampling.sample_initial,
    "harness.outputs": runner._write_outputs,
}

# span name -> (class, method); patched on the class itself
METHODS = {
    "kernels.apply": (kernels.StokesOperator, "apply"),
    "kernels.operator_build": (kernels.StokesOperator, "__init__"),
}


def _apply_bytes(counts, args, result):
    # Computed, not measured: float64 bytes of the arrays one apply reads or
    # writes at grid size n, padded size 2n and half-spectrum (2n)^2 (n + 1):
    # force in and velocity out (3 n^3 each), the padded force (3 (2n)^3),
    # three forward spectra and three accumulated products (complex, so two
    # words each), the six kernel components, three inverse transforms.
    n = args[0].spec.n
    grid, padded, spectrum = n**3, (2 * n) ** 3, (2 * n) ** 2 * (n + 1)
    words = 2 * 3 * grid + 3 * padded + 2 * 3 * 2 * spectrum + 6 * spectrum + 3 * padded
    counts["kernels.apply.bytes_computed"] += 8 * words


def _brinkman_iterations(counts, args, result):
    counts["kernels.brinkman.iters"] += result.iterations


def _output_bytes(counts, args, result):
    # summary.csv holds walltime_s as repr(float), whose length differs from
    # run to run; leave that field out so the count repeats on one seed.
    record = args[0]
    size = sum(os.path.getsize(p) for p in record.csv_paths.values())
    if "summary" in record.csv_paths and "walltime_s" in record.summary:
        size -= len(repr(record.summary["walltime_s"]))
    counts["harness.outputs.bytes"] += size


ON_RETURN = {
    "kernels.apply": _apply_bytes,
    "kernels.brinkman": _brinkman_iterations,
    "harness.outputs": _output_bytes,
}
COUNTERS = ("kernels.apply.bytes_computed", "kernels.brinkman.iters", "harness.outputs.bytes")

# Counts that must repeat exactly between two traced runs on one seed.
REPEATABLE = (
    "kernels.apply.calls",
    "kernels.brinkman.iters",
    "micro.closure.calls",
    "metrics.w2_exact.calls",
    "kernels.velocity_gradient.calls",
    "harness.outputs.bytes",
)


def sedlab_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "sedlab" or name.startswith("sedlab.")]


def install(tracer):
    modules = sedlab_modules()
    for name, fn in FUNCTIONS.items():
        tracer.patch_function(name, fn, modules, ON_RETURN.get(name))
    for name, (cls, attr) in METHODS.items():
        tracer.patch_method(name, cls, attr, ON_RETURN.get(name))


def leftover_wrappers():
    """Names in sedlab that still hold a span wrapper; empty after removal."""
    owners = sedlab_modules() + [cls for cls, _ in METHODS.values()]
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner in owners
        for attr, value in vars(owner).items()
        if hasattr(value, "span_name")
    ]


def layer_metrics(span_list, counts, names):
    """Values of the named per-layer metrics for one traced repetition.

    Names under ``trace.`` describe the trace itself and are left to the caller.
    """
    summary = spans.summarize(span_list)
    values = {}
    for name in names:
        if name in COUNTERS:
            values[name] = counts.get(name, 0)
        elif name == "kernels.operator_build_s":
            values[name] = summary.get("kernels.operator_build", {}).get("busy_s", 0.0)
        elif not name.startswith("trace."):
            span, stat = name.rsplit(".", 1)
            values[name] = summary.get(span, {}).get(stat, 0)
    return values
