"""Single-run orchestration: sample, march to T, record, persist.

A run never escapes as an unexplained traceback: tier-specific aborts
(contact, non-convergence, leaving the grid, violated assumptions) are
caught, stamped into the record with their exit code, and the partial
series are still written.
"""

import time as _time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import kinetic, metrics, micro, transport
from ..csvfile import write_csv
from ..errors import SedlabError
from ..kernels import GridSpec
from .config import SimConfig
from .sampling import sample_initial


@dataclass
class RunRecord:
    """One run's series: every snapshot time, and the first and latest states (all with `every_state`)."""
    config: SimConfig
    config_hash: str
    every_state: bool = False
    times: list = field(default_factory=list)  # every snapshot time, t = 0 first
    snapshots: list = field(default_factory=list)  # (t, cloud/ensemble): first and latest, or all
    budgets: list = field(default_factory=list)  # vlasov: filled EnergyBudget series
    stats: list = field(default_factory=list)  # micro: (t, EnsembleStats)
    s_series: list = field(default_factory=list)  # (t, S) for kinetic runs
    sample_report: object = None
    assumptions: object = None
    summary: dict = field(default_factory=dict)
    csv_paths: dict = field(default_factory=dict)
    abort: dict = field(default_factory=dict)  # empty when the run completed
    error: SedlabError = None  # the exception behind `abort`, traceback included

    @property
    def ok(self) -> bool:
        return not self.abort

    @property
    def final_state(self):
        return self.snapshots[-1][1]

    def keep(self, t, state):
        """Record a snapshot at t; its state replaces the latest unless every state is kept."""
        self.times.append(t)
        self.snapshots[len(self.snapshots) if self.every_state else 1 :] = [(t, state)]


def fit_dmin_constant(times, d_series):
    """Smallest C >= 1 with d(t) >= d(0) e^{-C t}/C along the series.

    Returns inf when even C = 1e6 fails, which flags a collapse faster
    than the admissible family."""
    times = np.asarray(times, dtype=float)
    d = np.asarray(d_series, dtype=float)
    if times.shape != d.shape or times.size == 0:
        raise ValueError("times and d_series must be matching nonempty arrays")
    d0 = d[0]

    def feasible(c):
        return bool(np.all(d * (1.0 + 1e-12) >= d0 * np.exp(-c * times) / c))

    lo, hi = 1.0, 1e6
    if not feasible(hi):
        return np.inf
    if feasible(lo):
        return lo
    for _ in range(80):
        mid = np.sqrt(lo * hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _cadence(steps, snapshots_target):
    return max(1, steps // max(1, int(snapshots_target)))


def _run_micro(record, draw, config, grid):
    ens = draw.ensemble
    dt = config.dt
    tol = float(config.tolerances.get("closure", 1e-12))
    every = _cadence(config.steps, config.output.get("snapshots", 50))

    def observe(e):
        w = micro.implicit_velocities(e, tol=tol)
        st = micro.stats(e, force_values=micro.forces(e, w))
        record.stats.append((e.time, st))
        record.keep(e.time, e)
        return w

    # one closure solve per state: a snapshot's w drives the step from it
    w = observe(ens)
    for step_index in range(config.steps):
        ens = micro.step(ens, dt, w=w, tol=tol)
        w = None
        if (step_index + 1) % every == 0 or step_index + 1 == config.steps:
            w = observe(ens)
    return ens


def _run_vlasov(record, draw, config, grid):
    cloud = draw.cloud
    dt = config.dt
    tol = float(config.tolerances.get("brinkman", 1e-9))
    every = _cadence(config.steps, config.output.get("snapshots", 50))
    s_every_step = config.output.get("s_cadence", "snapshot") == "step"
    with_budget = bool(config.output.get("energy_budget", 1))

    def record_s(c):
        record.s_series.append((c.time, metrics.s_functional(c, grid, c.gravity, c.w)))

    record.keep(cloud.time, cloud)
    record_s(cloud)
    warm = None
    for step_index in range(config.steps):
        cloud, fluid, budget = kinetic.vlasov_step(cloud, grid, dt, tol=tol, u0=warm, budget=with_budget)
        warm = fluid.warm_start
        if budget is not None:
            record.budgets.append(budget)
        last = step_index + 1 == config.steps
        if s_every_step or (step_index + 1) % every == 0 or last:
            record_s(cloud)
        if (step_index + 1) % every == 0 or last:
            record.keep(cloud.time, cloud)
    final_m2 = float(cloud.w @ np.sum(cloud.v**2, axis=1))
    record.budgets = kinetic.finalize_budgets(record.budgets, final_m2, dt)
    return cloud


def _run_transport(record, draw, config, grid):
    cloud = draw.spatial_cloud()
    every = _cadence(config.steps, config.output.get("snapshots", 50))
    record.keep(cloud.time, cloud)
    for step_index in range(config.steps):
        cloud = transport.transport_step(cloud, grid, config.dt)
        if (step_index + 1) % every == 0 or step_index + 1 == config.steps:
            record.keep(cloud.time, cloud)
    return cloud


def _write_samples(state, path):
    """One row per sample: id, x, y, z, then vx, vy, vz if the state has v, then w if it has w."""
    header, columns = ["id", "x", "y", "z"], [state.x]
    if hasattr(state, "v"):
        header += ["vx", "vy", "vz"]
        columns.append(state.v)
    if hasattr(state, "w"):
        header.append("w")
        columns.append(state.w[:, None])
    table = np.hstack(columns)
    write_csv(path, header, ([i, *r.tolist()] for i, r in enumerate(table)))


def _write_outputs(record, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = record.config

    echo = out / "config.txt"
    with open(echo, "w") as fh:
        for section, mapping in config.sections().items():
            fh.write(f"[{section}]\n")
            for key, value in mapping.items():
                if isinstance(value, list):
                    value = ",".join(str(v) for v in value)
                fh.write(f"{key} = {value}\n")
    record.csv_paths["config"] = str(echo)

    if record.snapshots:
        snap = out / "final_state.csv"
        _write_samples(record.final_state, snap)
        record.csv_paths["final_state"] = str(snap)

    if record.budgets:
        path = out / "energy_budget.csv"
        kinetic.save_budget_csv(record.budgets, path)
        record.csv_paths["energy_budget"] = str(path)

    if record.stats:
        path = out / "ensemble_stats.csv"
        rows = (
            (t, st.d_min, st.s_beta[1.0], st.s_beta[2.25], st.v_moment9, st.force_moment9)
            for t, st in record.stats
        )
        write_csv(path, ["t", "d_min", "s_1", "s_94", "v_moment9", "force_moment9"], rows)
        record.csv_paths["ensemble_stats"] = str(path)

    if record.s_series:
        path = out / "s_series.csv"
        rows = [(t, "S", value) for t, value in record.s_series]
        metrics.write_metrics_csv(path, record.config_hash, rows)
        record.csv_paths["s_series"] = str(path)

    path = out / "summary.csv"
    rows = [("config_hash", record.config_hash), *sorted(record.summary.items())]
    rows += [(f"abort_{key}", value) for key, value in sorted(record.abort.items())]
    write_csv(path, ["key", "value"], rows)
    record.csv_paths["summary"] = str(path)


def run(config: SimConfig, out_dir=None, draw=None, every_state=False) -> RunRecord:
    """Execute one run to T (or to its abort), returning its record.

    The record keeps the initial and latest states, or with `every_state`
    the state at every snapshot time.  A pre-built draw bypasses sampling;
    sweeps use this to start every member from the same initial data.
    """
    grid = GridSpec(float(config.box), int(config.cells))
    record = RunRecord(config=config, config_hash=config.config_hash(), every_state=every_state)
    started = _time.perf_counter()
    try:
        if draw is None:
            draw = sample_initial(
                config.initial,
                config.n,
                config.seed,
                config.lam,
                grid=grid,
                want_ensemble=config.tier == "micro",
            )
        record.sample_report = draw.report
        record.assumptions = draw.assumptions
        runner = {"micro": _run_micro, "vlasov": _run_vlasov, "transport": _run_transport}
        runner[config.tier](record, draw, config, grid)
    except SedlabError as err:
        record.error = err
        record.abort = {
            "type": type(err).__name__,
            "message": str(err),
            "exit_code": err.exit_code,
        }
        record.summary["aborted_at"] = record.times[-1] if record.times else 0.0

    record.summary["walltime_s"] = _time.perf_counter() - started
    record.summary["tier"] = config.tier
    record.summary["steps"] = config.steps
    if record.stats:
        dmins = [st.d_min for _, st in record.stats]  # one per snapshot time
        record.summary["d_min_final"] = dmins[-1]
        record.summary["d_min_constant"] = float(fit_dmin_constant(record.times, dmins))
        record.summary["v_moment9_max"] = max(st.v_moment9 for _, st in record.stats)
    if record.budgets:
        rel = [abs(b.residual) / b.term_scale for b in record.budgets if b.term_scale > 0]
        if rel:
            record.summary["budget_residual_max_rel"] = float(max(rel))
    if record.s_series:
        record.summary["s_final"] = record.s_series[-1][1]
    if record.sample_report is not None:
        record.summary["resamples"] = record.sample_report.resamples
        record.summary["clipped_fraction"] = record.sample_report.clipped_fraction
    if record.assumptions is not None:
        for name in ("h1", "h3", "h4"):
            record.summary[f"assumption_{name}"] = getattr(record.assumptions, name)

    if out_dir is not None:
        _write_outputs(record, out_dir)
    return record
