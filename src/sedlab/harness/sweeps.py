"""Parameter sweeps: relaxation-rate scaling and particle-count stability.

Members of a sweep share one seeded initial draw, so differences between
runs come from the swept parameter alone.  Aggregation refuses to mix
members whose assumption flags differ.

The members run in one forked worker process per usable CPU; the run they
are all compared with (transport, or the n_ref reference) stays in the calling
process.  With one usable CPU they run in-process, one after another, so
`taskset -c 0 sedlab sweep-hydro ...` runs serially.  A worker runs with one
BLAS thread, and its results are bitwise those of the serial path run with one.
"""

import ctypes
import multiprocessing
import os
import threading
import traceback
from dataclasses import dataclass, replace
from functools import partial
from multiprocessing.connection import wait
from pathlib import Path
from types import SimpleNamespace

import numpy as np

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

from .. import metrics, micro
from ..csvfile import write_csv
from ..errors import AssumptionError
from ..kernels import GridSpec
from ..kinetic import PhaseCloud
from .runner import RunRecord, run
from .sampling import SampleDraw, sample_initial

# gates: the hydro W2 slope must reach SLOPE_GATE with fit quality R2_GATE,
# and the mean-field growth factors may differ by at most SPREAD_GATE
SLOPE_GATE = -0.7
R2_GATE = 0.9
SPREAD_GATE = 2.0


def _raise_member_abort(label, record):
    """Re-raise the member run's own exception, noting which member it was."""
    err = record.error
    err.add_note(f"sweep member {label} aborted")
    raise err


def _map_members(job, values, label):
    """[job(v) for v in values], run in one forked worker per usable CPU.

    A member's cost grows with its value (steps with lam, pairs with N), so
    the largest goes first and each worker takes the next as it finishes.
    Workers inherit the sweep's state by fork, without pickling or re-running
    the caller's script; results come back over pipes to this thread.  A
    worker's exception is re-raised with its traceback as a note, a dead
    worker raises ChildProcessError, and no worker outlives the call.  Runs
    in-process with one usable CPU, where `os.sched_getaffinity` is missing
    (it exists only where fork does), or beside other threads, since a fork
    would copy the locks they hold.
    """
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(usable, len(values))
    if workers < 2 or threading.active_count() > 1:
        return [job(v) for v in values]
    fork = multiprocessing.get_context("fork")
    pending = sorted(range(len(values)), key=values.__getitem__)  # pop() takes the largest
    results = [None] * len(values)
    busy, procs, ends = {}, [], []  # busy: our pipe end -> (worker, member index)

    def hand_out(conn, proc):
        i = pending.pop() if pending else None
        conn.send(i)  # None tells the worker to exit
        if i is not None:
            busy[conn] = (proc, i)

    try:
        for _ in range(workers):
            ours, theirs = fork.Pipe()
            proc = fork.Process(target=_serve, args=(theirs, [*ends, ours], job, values), daemon=True)
            proc.start()
            theirs.close()
            procs.append(proc)
            ends.append(ours)
            hand_out(ours, proc)
        while busy:
            for conn in wait(list(busy)):
                proc, i = busy.pop(conn)
                member = label.format(values[i])
                try:
                    ok, payload, trace = conn.recv()
                except EOFError:
                    proc.join()
                    raise ChildProcessError(
                        f"sweep worker {proc.pid} died (exit code {proc.exitcode}) "
                        f"running member {member}"
                    ) from None
                if not ok:
                    payload.add_note(f"raised by sweep member {member} in worker {proc.pid}:\n{trace}")
                    raise payload
                results[i] = payload
                hand_out(conn, proc)
        for proc in procs:
            proc.join()
    finally:
        for proc in procs:
            proc.terminate()  # a no-op for a worker already joined
            proc.join()
        for conn in ends:
            conn.close()
    return results


def _serve(conn, parent_ends, job, values):
    """Worker loop: run each member whose index arrives, send back its result."""
    for end in parent_ends:
        end.close()  # so that recv sees EOF if the parent dies
    # BLAS threads left idle spin for a while, and two workers with a BLAS
    # thread per CPU each ran slower than the serial sweep
    _blas_threads(1)
    for i in iter(conn.recv, None):
        try:
            reply = (True, job(values[i]), None)
        except Exception as err:
            reply = (False, err, traceback.format_exc())
        conn.send(reply)


def _blas_threads(count):
    """Set the thread count of numpy's OpenBLAS; returns the old count, or None
    (and changes nothing) when numpy links another BLAS."""
    lib = ctypes.CDLL(_multiarray_umath.__file__)  # resolves the BLAS it links
    for prefix, suffix in (("scipy_", "64_"), ("", "")):
        get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
        if get is not None:
            old = get()
            getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")(count)
            return old
    return None


def _uniform_view(x, v=None):
    n = x.shape[0]
    if v is None:
        return SimpleNamespace(x=x, w=np.full(n, 1.0 / n))
    return SimpleNamespace(x=x, v=v, w=np.full(n, 1.0 / n))


def _w2(a, b, space):
    """W2 between a cloud of n samples and one of m >= n.

    Exact when n divides m and m fits EXACT_CAP (`metrics.wasserstein2_exact`
    splits each atom of `a` into m / n equal copies); entropic otherwise.
    """
    n, m = a.x.shape[0], b.x.shape[0]
    if m % n == 0 and m <= metrics.EXACT_CAP:
        return metrics.wasserstein2_exact(a, b, space=space).distance
    return metrics.wasserstein2_entropic(a, b, space=space).distance


def fit_s_relaxation(times, s_values):
    """(decay rate, r2, plateau) of an S series over its initial layer.

    The plateau is the mean of the last quarter of the series; the fit runs
    on the contiguous early window where the excess over the plateau still
    tops 5% of its initial value.
    """
    t = np.asarray(times, dtype=float)
    s = np.asarray(s_values, dtype=float)
    if t.size < 6:
        raise ValueError("need at least 6 samples to fit the relaxation layer")
    tail = s[int(round(0.75 * s.size)) :]
    plateau = float(tail.mean())
    excess = s - plateau
    if excess[0] <= 0.0:
        return np.nan, np.nan, plateau
    above = excess > 0.05 * excess[0]
    end = int(np.argmin(above)) if not above.all() else above.size
    end = max(end, 4)
    rate, r2 = metrics.rate_fit(t[:end], excess[:end], model="exponential")
    return -float(rate), float(r2), plateau


@dataclass
class HydroMember:
    lam: float
    dt: float
    w2_final: float
    s_rate: float
    s_rate_r2: float
    s_plateau: float
    record: RunRecord


@dataclass
class HydroReport:
    members: list
    transport_record: RunRecord
    slope: float
    slope_r2: float
    slope_ok: bool
    rate_ratio_ok: bool
    plateau_ok: bool
    rate_ratio_worst: float

    @property
    def ok(self) -> bool:
        return self.slope_ok and self.rate_ratio_ok and self.plateau_ok


def _hydro_member(base, draw, transport_final, steps_per_relax, out_dir, lam):
    """One lam member: its vlasov run, S relaxation fit and W2 to the transport state.

    An aborted run comes back with NaN figures for the caller to raise.
    """
    dt = base.t_final / max(1, round(steps_per_relax * lam * base.t_final))
    config = replace(base, tier="vlasov", lam=lam, dt=dt, output={**base.output, "s_cadence": "step"})
    member_draw = SampleDraw(cloud=replace(draw.cloud, lam=lam), ensemble=None, report=draw.report)
    sub = None if out_dir is None else Path(out_dir) / f"lam_{lam:g}"
    record = run(config, out_dir=sub, draw=member_draw)
    if not record.ok:
        return HydroMember(lam, dt, np.nan, np.nan, np.nan, np.nan, record)
    rate, rate_r2, plateau = fit_s_relaxation(*zip(*record.s_series))
    w2 = _w2(record.final_state, transport_final, "spatial")
    return HydroMember(lam, dt, w2, rate, rate_r2, plateau, record)


def sweep_hydrodynamic(base, lambdas, out_dir=None):
    """Kinetic-vs-transport gap across a ladder of relaxation strengths.

    One well-prepared draw (taken at the smallest lam, whose Lipschitz
    condition is the binding one) seeds every member; the transport
    solution does not depend on lam and runs once.
    """
    lambdas = sorted(float(l) for l in lambdas)
    if len(lambdas) < 3:
        raise ValueError("need at least 3 lambda values")
    grid = GridSpec(float(base.box), int(base.cells))
    hydro_opts = base.extra.get("hydro", {})
    steps_per_relax = float(hydro_opts.get("steps_per_relaxation", 4.0))
    transport_dt = float(hydro_opts.get("transport_dt", 0.02))

    draw = sample_initial(
        base.initial, base.n, base.seed, lambdas[0], grid=grid, want_ensemble=False
    )

    # assumption flags must agree across members before aggregation
    c_v = float(base.initial.get("c_v", 10.0))
    flags = [
        (draw.report.field_lipschitz <= 0.5 * lam, micro.h4_value(draw.cloud.v, lam) <= c_v)
        for lam in lambdas
    ]
    if len(set(flags)) > 1:
        raise AssumptionError(f"members disagree on assumption flags: {flags}")

    t_final = base.t_final
    transport_config = replace(
        base,
        tier="transport",
        lam=lambdas[0],
        dt=t_final / max(1, round(t_final / transport_dt)),
    )
    transport_record = run(
        transport_config,
        out_dir=None if out_dir is None else Path(out_dir) / "transport",
        draw=draw,
    )
    if not transport_record.ok:
        _raise_member_abort("transport", transport_record)
    job = partial(_hydro_member, base, draw, transport_record.final_state, steps_per_relax, out_dir)
    members = _map_members(job, lambdas, "lam={:g}")
    for m in members:
        if not m.record.ok:
            _raise_member_abort(f"lam={m.lam:g}", m.record)

    slope, slope_r2 = metrics.rate_fit(
        [m.lam for m in members], [m.w2_final for m in members], model="powerlaw"
    )
    worst_ratio = 0.0
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            expected = members[j].lam / members[i].lam
            got = members[j].s_rate / members[i].s_rate
            worst_ratio = max(worst_ratio, abs(got / expected - 1.0))
    plateau_ok = all(
        members[i + 1].s_plateau < members[i].s_plateau for i in range(len(members) - 1)
    )
    report = HydroReport(
        members=members,
        transport_record=transport_record,
        slope=float(slope),
        slope_r2=float(slope_r2),
        slope_ok=bool(slope <= SLOPE_GATE and slope_r2 >= R2_GATE),
        rate_ratio_ok=bool(worst_ratio <= 0.30),
        plateau_ok=plateau_ok,
        rate_ratio_worst=float(worst_ratio),
    )
    if out_dir is not None:
        rows = ((m.lam, m.dt, m.w2_final, m.s_rate, m.s_rate_r2, m.s_plateau) for m in members)
        header = ["lambda", "dt", "w2_final", "s_rate", "s_rate_r2", "s_plateau"]
        write_csv(Path(out_dir) / "hydro_sweep.csv", header, rows)
    return report


@dataclass
class MeanfieldMember:
    n: int
    lam: float
    w2_initial: float
    w2_final: float
    growth: float
    dmin_constant: float
    dmin_above_contact: bool
    v_moment9_max: float
    energies: list
    record: RunRecord


@dataclass
class MeanfieldReport:
    members: list
    reference_record: RunRecord
    growth_spread: float
    spread_ok: bool
    fitted_growth_constant: float
    h4_ok: bool
    dmin_ok: bool

    @property
    def ok(self) -> bool:
        return self.spread_ok and self.h4_ok and self.dmin_ok


def _meanfield_member(base, draws, ref_record, grid, out_dir, n):
    """One N member: its micro run, W2 to the reference at both ends, E/H series.

    An aborted run comes back with NaN figures for the caller to raise.
    """
    ensemble = draws[n].ensemble
    sub = None if out_dir is None else Path(out_dir) / f"n_{n}"
    record = run(replace(base, tier="micro", n=n), out_dir=sub, draw=draws[n])
    if not record.ok:
        return MeanfieldMember(n, base.lam, np.nan, np.nan, np.nan, np.nan, False, np.nan, [], record)

    # phase-space distances against the larger reference cloud
    final_ens = record.final_state
    w2_0 = _w2(_uniform_view(ensemble.x, ensemble.v), ref_record.snapshots[0][1], "phase")
    w2_t = _w2(_uniform_view(final_ens.x, final_ens.v), ref_record.final_state, "phase")
    return MeanfieldMember(
        n=n,
        lam=base.lam,
        w2_initial=float(w2_0),
        w2_final=float(w2_t),
        growth=float(w2_t / w2_0),
        dmin_constant=float(record.summary.get("d_min_constant", np.inf)),
        dmin_above_contact=all(st.d_min > 2.0 * ensemble.radius for _, st in record.stats),
        v_moment9_max=float(record.summary.get("v_moment9_max", np.nan)),
        energies=_prefix_energies(record, ref_record, n, grid),
        record=record,
    )


def sweep_meanfield(base, n_values, out_dir=None):
    """Discrete-vs-kinetic stability at fixed lam across particle counts.

    Each member's particles are the first N samples of one reference
    cloud, so every micro run starts exactly coupled to the kinetic
    reference.  The reference uses more samples than the largest member
    (default twice as many): the member's initial distance to it is then
    a genuine sampling gap rather than zero.
    """
    n_values = sorted(int(n) for n in n_values)
    if len(n_values) < 3:
        raise ValueError("need at least 3 particle counts")
    mf_opts = base.extra.get("meanfield", {})
    n_ref = int(mf_opts.get("n_ref", 2 * max(n_values)))
    if n_ref <= max(n_values):
        raise ValueError("reference sample count must exceed every member")
    c_v = float(base.initial.get("c_v", 10.0))
    grid = GridSpec(float(base.box), int(base.cells))

    ref_draw = sample_initial(
        base.initial, n_ref, base.seed, base.lam, grid=grid, want_ensemble=False
    )
    ref_config = replace(base, tier="vlasov", n=n_ref)
    ref_record = run(
        ref_config,
        out_dir=None if out_dir is None else Path(out_dir) / "reference",
        draw=ref_draw,
    )
    if not ref_record.ok:
        _raise_member_abort("reference", ref_record)

    draws, flag_sets = {}, []
    for n in n_values:
        x0 = ref_draw.cloud.x[:n].copy()
        v0 = ref_draw.cloud.v[:n].copy()
        ensemble = micro.ParticleEnsemble(
            x=x0, v=v0, lam=base.lam, gravity=ref_draw.cloud.gravity
        )
        checks = micro.check_assumptions(ensemble, c_v=c_v)
        flag_sets.append((checks.h1, checks.h3, checks.h4))
        prefix_cloud = PhaseCloud(
            x=x0.copy(),
            v=v0.copy(),
            w=np.full(n, 1.0 / n),
            lam=base.lam,
            gravity=ref_draw.cloud.gravity,
        )
        member_report = replace(
            ref_draw.report,
            d_min=micro.pairwise_min_distance(x0),
            h3_ratio=checks.h3_ratio,
            h4_value=checks.h4_value,
        )
        draws[n] = SampleDraw(
            cloud=prefix_cloud, ensemble=ensemble, report=member_report, assumptions=checks
        )
    if len(set(flag_sets)) > 1:
        raise AssumptionError(f"members disagree on assumption flags: {flag_sets}")

    job = partial(_meanfield_member, base, draws, ref_record, grid, out_dir)
    members = _map_members(job, n_values, "n={}")
    for m in members:
        if not m.record.ok:
            _raise_member_abort(f"n={m.n}", m.record)

    growths = np.array([m.growth for m in members])
    spread = float(growths.max() / growths.min())
    report = MeanfieldReport(
        members=members,
        reference_record=ref_record,
        growth_spread=spread,
        spread_ok=bool(spread <= SPREAD_GATE),
        fitted_growth_constant=float(np.log(growths.max()) / base.t_final),
        h4_ok=bool(all(m.v_moment9_max <= c_v for m in members)),
        dmin_ok=bool(
            all(np.isfinite(m.dmin_constant) and m.dmin_above_contact for m in members)
        ),
    )
    if out_dir is not None:
        rows = (
            (float(m.n), m.lam, m.w2_initial, m.w2_final, m.growth, m.dmin_constant, m.v_moment9_max)
            for m in members
        )
        header = ["n", "lambda", "w2_initial", "w2_final", "growth", "dmin_constant", "v_moment9_max"]
        write_csv(Path(out_dir) / "meanfield_sweep.csv", header, rows)
    return report


def _prefix_energies(member_record, ref_record, n, grid):
    """E/H series between a micro run and the first n reference samples."""
    times, snaps_a, snaps_b = [], [], []
    ref_by_time = {round(t, 12): snap for t, snap in ref_record.snapshots}
    for t, ens in member_record.snapshots:
        ref_snap = ref_by_time.get(round(t, 12))
        if ref_snap is None:
            continue
        times.append(t)
        snaps_a.append(_uniform_view(ens.x, ens.v))
        snaps_b.append(_uniform_view(ref_snap.x[:n], ref_snap.v[:n]))
    if not times:
        return []
    coupled = metrics.CoupledRun(
        times=np.asarray(times),
        snapshots_a=snaps_a,
        snapshots_b=snaps_b,
        pairing="identity",
        gravity=ref_record.snapshots[0][1].gravity,
        lam=member_record.config.lam,
        grid=grid,
    )
    return metrics.modulated_energies(coupled)


@dataclass
class CompareReport:
    tiers: tuple
    w2_final: float
    energies: list
    records: tuple


def compare_tiers(base, tiers=("vlasov", "transport"), out_dir=None):
    """Run two tiers from one draw and measure their terminal gap.

    vlasov/transport pairs compare position marginals; micro/vlasov pairs
    share sample counts, so they also carry the paired energy series.
    """
    tiers = tuple(tiers)
    if len(tiers) != 2 or len(set(tiers)) != 2:
        raise ValueError("compare needs two distinct tiers")
    grid = GridSpec(float(base.box), int(base.cells))
    want_ensemble = "micro" in tiers
    draw = sample_initial(
        base.initial, base.n, base.seed, base.lam, grid=grid, want_ensemble=want_ensemble
    )
    records = []
    for tier in tiers:
        config = replace(base, tier=tier)
        record = run(
            config,
            out_dir=None if out_dir is None else Path(out_dir) / tier,
            draw=draw,
        )
        if not record.ok:
            _raise_member_abort(tier, record)
        records.append(record)

    finals = [r.final_state for r in records]
    # transport states carry no velocities, so their view is spatial only
    views = [_uniform_view(state.x, getattr(state, "v", None)) for state in finals]
    space = "phase" if all(hasattr(v, "v") for v in views) else "spatial"
    w2 = _w2(views[0], views[1], space)

    energies = []
    if set(tiers) == {"micro", "vlasov"}:
        micro_idx = tiers.index("micro")
        micro_record, vlasov_record = records[micro_idx], records[1 - micro_idx]
        energies = _prefix_energies(micro_record, vlasov_record, base.n, grid)

    report = CompareReport(tiers=tiers, w2_final=float(w2), energies=energies, records=tuple(records))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        rows = [("tiers", "+".join(tiers)), ("space", space), ("w2_final", float(w2))]
        write_csv(out / "compare.csv", ["key", "value"], rows)
        if energies:
            metrics.write_metrics_csv(
                out / "energies.csv", base.config_hash(), metrics.energies_to_rows(energies)
            )
    return report
