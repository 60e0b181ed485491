"""The benchmark's workloads: generated inputs, one operation, its checks.

Each workload has a ``setup(seed)`` that builds the Stokes tables through
``kernels.get_operator`` and draws the initial data wherever the entry point
accepts a draw, and an ``op(state, work_dir)`` that calls public sedlab entry
points on those inputs and returns an ``Outcome``.  Shapes follow the
acceptance fixtures; horizons are cut so that one operation takes seconds,
not minutes, on a 2-core machine.
"""

from __future__ import annotations

import hashlib
import math
import tempfile
from dataclasses import dataclass, field

import numpy as np

from sedlab import harness, kernels
from sedlab.kernels import GridSpec

BOX = 16.0
BUDGET_GATE = 0.02  # worst per-step |residual| / term scale on the energy budget
HYDRO_LAMBDAS = (10.0, 20.0, 40.0, 80.0)
MEANFIELD_COUNTS = (250, 500, 1000)


@dataclass
class Outcome:
    digest: str  # hash of the final state and any sweep table
    problems: list = field(default_factory=list)  # failed checks; empty when correct
    figures: dict = field(default_factory=dict)  # named accuracy values


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _not_finite(label, *arrays):
    return [] if all(np.all(np.isfinite(a)) for a in arrays) else [f"{label}: non-finite values"]


def _record_problems(label, record):
    if not record.ok:
        return [f"{label} aborted: {record.abort}"]
    final = record.final_state
    return _not_finite(f"{label} final state", final.x, getattr(final, "v", 0.0))


def _grid(cells):
    grid = GridSpec(BOX, cells)
    kernels.get_operator(grid)
    return grid


# --- kinetic-64: harness.run on a 64^3 vlasov config with a prebuilt draw

KINETIC_STEPS = 3


def setup_kinetic(seed):
    grid = _grid(64)
    config = harness.default_config(
        {
            "run": {"tier": "vlasov", "n": 20000, "lambda": 20.0, "dt": 1.0 / 160.0,
                    "t_final": KINETIC_STEPS / 160.0, "seed": seed},
            "grid": {"box": BOX, "cells": 64},
        }
    )
    draw = harness.sample_initial(
        config.initial, config.n, config.seed, config.lam, grid=grid, want_ensemble=False
    )
    return config, draw


def op_kinetic(state, work_dir):
    config, draw = state
    with tempfile.TemporaryDirectory(dir=work_dir) as out:
        record = harness.run(config, out_dir=out, draw=draw)
    problems = _record_problems("run", record)
    rel = []
    for b in record.budgets:
        if not b.term_scale > 0.0:
            problems.append(f"budget at t={b.t}: term scale {b.term_scale} not positive")
            continue
        rel.append(abs(b.residual) / b.term_scale)
    if len(rel) != KINETIC_STEPS or not all(r <= BUDGET_GATE for r in rel):
        problems.append(f"energy budget residuals {rel} (gate {BUDGET_GATE})")
    final = record.final_state
    return Outcome(
        digest=_digest(final.x, final.v, [b.residual for b in record.budgets]),
        problems=problems,
        figures={"budget_residual_rel": max(rel, default=math.nan)},
    )


# --- hydro-32: sweep_hydrodynamic over four relaxation rates at 32^3


def setup_hydro(seed):
    _grid(32)
    return harness.default_config(
        {
            "run": {"tier": "vlasov", "n": 2000, "lambda": 10.0, "t_final": 0.25,
                    "dt": 1.0 / 80.0, "seed": seed},
            "grid": {"box": BOX, "cells": 32},
            "hydro": {"steps_per_relaxation": 4.0, "transport_dt": 0.02},
        }
    )


def op_hydro(base, work_dir):
    report = harness.sweep_hydrodynamic(base, HYDRO_LAMBDAS)
    problems = _record_problems("transport", report.transport_record)
    for m in report.members:
        problems += _record_problems(f"lam={m.lam:g}", m.record)
    if not (report.slope <= -0.7 and report.slope_r2 >= 0.9):
        problems.append(f"W2 slope {report.slope:.4f} (r2 {report.slope_r2:.4f}) misses <= -0.7, r2 >= 0.9")
    if not report.rate_ratio_ok:
        problems.append(f"S decay rate ratio off by {report.rate_ratio_worst:.3f}")
    if not report.plateau_ok:
        problems.append("S plateaus do not fall with lambda")
    table = [[m.lam, m.dt, m.w2_final, m.s_rate, m.s_rate_r2, m.s_plateau] for m in report.members]
    problems += _not_finite("hydro table", table)
    finals = [m.record.final_state for m in report.members]
    return Outcome(
        digest=_digest(report.transport_record.final_state.x, table,
                       *[a for c in finals for a in (c.x, c.v)]),
        problems=problems,
        figures={"hydro_w2_slope": report.slope,
                 # fitted share of the lambda = 10 gap left at lambda = 80
                 "hydro_gap_ratio": (HYDRO_LAMBDAS[-1] / HYDRO_LAMBDAS[0]) ** report.slope},
    )


# --- meanfield-micro: sweep_meanfield over three particle counts


def setup_meanfield(seed):
    _grid(32)
    return harness.default_config(
        {
            "run": {"tier": "micro", "n": max(MEANFIELD_COUNTS), "lambda": 20.0,
                    "t_final": 0.05, "dt": 1.0 / 160.0, "seed": seed},
            "grid": {"box": BOX, "cells": 32},
            "meanfield": {"n_ref": 2000},
        }
    )


def op_meanfield(base, work_dir):
    report = harness.sweep_meanfield(base, MEANFIELD_COUNTS)
    problems = _record_problems("reference", report.reference_record)
    for m in report.members:
        problems += _record_problems(f"n={m.n}", m.record)
    for flag in ("spread_ok", "h4_ok", "dmin_ok"):
        if not getattr(report, flag):
            problems.append(f"{flag} is false (growth spread {report.growth_spread:.4f})")
    table = [[m.n, m.w2_initial, m.w2_final, m.growth, m.dmin_constant, m.v_moment9_max]
             for m in report.members]
    problems += _not_finite("meanfield table", table)
    ref = report.reference_record.final_state
    finals = [m.record.final_state for m in report.members]
    return Outcome(
        digest=_digest(ref.x, ref.v, table, *[a for e in finals for a in (e.x, e.v)]),
        problems=problems,
        figures={"growth_spread": report.growth_spread},
    )


@dataclass(frozen=True)
class Workload:
    setup: object
    op: object
    figure: str  # the accuracy figure reported end to end


WORKLOADS = {
    "kinetic-64": Workload(setup_kinetic, op_kinetic, "budget_residual_rel"),
    "hydro-32": Workload(setup_hydro, op_hydro, "hydro_gap_ratio"),
    "meanfield-micro": Workload(setup_meanfield, op_meanfield, "growth_spread"),
}
