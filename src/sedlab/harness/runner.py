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


def _march(record, config, state, advance, observe):
    """Take config.steps steps of `advance`; observe, then keep, the initial
    state, every cadence hit and the last state.

    A step from an observed state gets what `observe` returned for it, any
    other step None.  Returns the last state.
    """
    every = max(1, config.steps // max(1, int(config.output["snapshots"])))
    seen = observe(state)
    record.keep(state.time, state)
    for k in range(1, config.steps + 1):
        state, seen = advance(state, seen), None
        if k % every == 0 or k == config.steps:
            seen = observe(state)
            record.keep(state.time, state)
    return state


def _run_micro(record, draw, config, grid):
    tol = float(config.tolerances["closure"])

    def observe(e):
        w = micro.implicit_velocities(e, tol=tol)
        record.stats.append((e.time, micro.stats(e, force_values=micro.forces(e, w))))
        return w

    # one closure solve per state: a snapshot's w drives the step from it
    _march(record, config, draw.ensemble, lambda e, w: micro.step(e, config.dt, w=w, tol=tol), observe)


def _run_vlasov(record, draw, config, grid):
    tol = float(config.tolerances["brinkman"])
    with_budget = bool(config.output["energy_budget"])
    warm = None

    def step(c, _):
        nonlocal warm
        c, fluid, budget = kinetic.vlasov_step(c, grid, config.dt, tol=tol, u0=warm, budget=with_budget)
        warm = fluid
        if budget is not None:
            record.budgets.append(budget)
        return c

    def observe(c):  # S at every snapshot time; snapshots = steps takes it at every step
        record.s_series.append((c.time, metrics.s_functional(c, grid, c.gravity, c.w)))

    cloud = _march(record, config, draw.cloud, step, observe)
    final_m2 = float(cloud.w @ np.sum(cloud.v**2, axis=1))
    record.budgets = kinetic.finalize_budgets(record.budgets, final_m2, config.dt)


def _run_transport(record, draw, config, grid):
    _march(record, config, draw.spatial_cloud(),
           lambda c, _: transport.transport_step(c, grid, config.dt), lambda c: None)


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

    def path_of(name, suffix=".csv"):
        record.csv_paths[name] = str(out / f"{name}{suffix}")
        return record.csv_paths[name]

    with open(path_of("config", ".txt"), "w") as fh:
        for section, mapping in record.config.sections().items():
            fh.write(f"[{section}]\n")
            for key, value in mapping.items():
                if isinstance(value, list):
                    value = ",".join(str(v) for v in value)
                fh.write(f"{key} = {value}\n")

    if record.snapshots:
        _write_samples(record.final_state, path_of("final_state"))

    if record.budgets:
        kinetic.save_budget_csv(record.budgets, path_of("energy_budget"))

    if record.stats:
        rows = (
            (t, st.d_min, st.s_beta[1.0], st.s_beta[2.25], st.v_moment9, st.force_moment9)
            for t, st in record.stats
        )
        write_csv(path_of("ensemble_stats"), ["t", "d_min", "s_1", "s_94", "v_moment9", "force_moment9"], rows)

    if record.s_series:
        rows = [(t, "S", value) for t, value in record.s_series]
        metrics.write_metrics_csv(path_of("s_series"), record.config_hash, rows)

    rows = [("config_hash", record.config_hash), *sorted(record.summary.items())]
    rows += [(f"abort_{key}", value) for key, value in sorted(record.abort.items())]
    write_csv(path_of("summary"), ["key", "value"], rows)


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
