"""Parameter sweeps: relaxation-rate scaling and particle-count stability.

Members of a sweep share one seeded initial draw, so differences between
runs come from the swept parameter alone.  Aggregation refuses to mix
members whose assumption flags differ.
"""

from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .. import metrics, micro
from ..csvfile import write_csv
from ..errors import AssumptionError
from ..kernels import GridSpec
from ..kinetic import PhaseCloud
from .runner import RunRecord, run
from .sampling import SampleDraw, sample_initial

def _raise_member_abort(label, record):
    """Re-raise the member run's own exception, noting which member it was."""
    err = record.error
    err.add_note(f"sweep member {label} aborted")
    raise err


def _uniform_view(x, v=None):
    n = x.shape[0]
    if v is None:
        return SimpleNamespace(x=x, w=np.full(n, 1.0 / n))
    return SimpleNamespace(x=x, v=v, w=np.full(n, 1.0 / n))


def _w2(a, b, space):
    """W2 between equal-size clouds: exact up to EXACT_CAP samples, entropic beyond."""
    if a.x.shape[0] <= metrics.EXACT_CAP:
        return metrics.wasserstein2_exact(a, b, space=space).distance
    return metrics.wasserstein2_entropic(a, b, space=space).distance


def _phase_distance(small, ref, entropic_opts):
    """W2 between phase clouds of different sizes.

    When the larger count is a multiple of the smaller and fits the exact
    solver, each small atom splits into equal copies (which leaves the
    measure unchanged) and the distance is exact; otherwise the entropic
    estimate steps in.
    """
    n, m = small.x.shape[0], ref.x.shape[0]
    if m % n == 0 and m <= metrics.EXACT_CAP:
        reps = m // n
        expanded = _uniform_view(
            np.repeat(small.x, reps, axis=0), np.repeat(small.v, reps, axis=0)
        )
        return metrics.wasserstein2_exact(expanded, ref, space="phase").distance
    return metrics.wasserstein2_entropic(small, ref, space="phase", **entropic_opts).distance


def fit_s_relaxation(times, s_values, plateau_fraction=0.25, threshold=0.05):
    """(decay rate, r2, plateau) of an S series over its initial layer.

    The plateau is the tail mean; the fit runs on the contiguous early
    window where the excess over the plateau still tops `threshold` of
    its initial value.
    """
    t = np.asarray(times, dtype=float)
    s = np.asarray(s_values, dtype=float)
    if t.size < 6:
        raise ValueError("need at least 6 samples to fit the relaxation layer")
    tail = s[int(round((1.0 - plateau_fraction) * s.size)) :]
    plateau = float(tail.mean())
    excess = s - plateau
    if excess[0] <= 0.0:
        return np.nan, np.nan, plateau
    above = excess > threshold * excess[0]
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


def sweep_hydrodynamic(base, lambdas, out_dir=None, slope_threshold=-0.7, r2_threshold=0.9):
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
    transport_final = transport_record.final_state

    members = []
    for lam in lambdas:
        steps = max(1, round(steps_per_relax * lam * t_final))
        member_config = replace(
            base,
            tier="vlasov",
            lam=lam,
            dt=t_final / steps,
            output={**base.output, "s_cadence": "step"},
        )
        member_draw = SampleDraw(
            cloud=replace(draw.cloud, lam=lam), ensemble=None, report=draw.report
        )
        record = run(
            member_config,
            out_dir=None if out_dir is None else Path(out_dir) / f"lam_{lam:g}",
            draw=member_draw,
        )
        if not record.ok:
            _raise_member_abort(f"lam={lam:g}", record)
        s_t = [t for t, _ in record.s_series]
        s_v = [v for _, v in record.s_series]
        rate, rate_r2, plateau = fit_s_relaxation(s_t, s_v)
        members.append(
            HydroMember(
                lam=lam,
                dt=member_config.dt,
                w2_final=_w2(record.final_state, transport_final, "spatial"),
                s_rate=rate,
                s_rate_r2=rate_r2,
                s_plateau=plateau,
                record=record,
            )
        )

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
        slope_ok=bool(slope <= slope_threshold and slope_r2 >= r2_threshold),
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


def sweep_meanfield(base, n_values, out_dir=None, spread_threshold=2.0):
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
    lam_mode = str(mf_opts.get("lambda_coupling", "fixed"))
    if lam_mode not in ("fixed", "cuberoot"):
        raise ValueError("lambda_coupling must be 'fixed' or 'cuberoot'")
    entropic_opts = {
        "eps_final_factor": float(mf_opts.get("eps_final_factor", 0.01)),
        "eps_stages": int(mf_opts.get("eps_stages", 5)),
        "tol": float(mf_opts.get("sinkhorn_tol", 1e-6)),
    }
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

    members = []
    flag_sets = []
    for n in n_values:
        lam_n = base.lam if lam_mode == "fixed" else base.lam * (n / n_ref) ** (1.0 / 3.0)
        x0 = ref_draw.cloud.x[:n].copy()
        v0 = ref_draw.cloud.v[:n].copy()
        ensemble = micro.ParticleEnsemble(
            x=x0, v=v0, lam=lam_n, gravity=ref_draw.cloud.gravity
        )
        checks = micro.check_assumptions(ensemble, c_v=c_v)
        flag_sets.append((checks.h1, checks.h3, checks.h4))
        prefix_cloud = PhaseCloud(
            x=x0.copy(),
            v=v0.copy(),
            w=np.full(n, 1.0 / n),
            lam=lam_n,
            gravity=ref_draw.cloud.gravity,
        )
        member_report = replace(
            ref_draw.report,
            d_min=micro.pairwise_min_distance(x0),
            h3_ratio=checks.h3_ratio,
            h4_value=checks.h4_value,
        )
        member_draw = SampleDraw(cloud=prefix_cloud, ensemble=ensemble, report=member_report)
        member_config = replace(base, tier="micro", n=n, lam=lam_n)
        record = run(
            member_config,
            out_dir=None if out_dir is None else Path(out_dir) / f"n_{n}",
            draw=member_draw,
        )
        if not record.ok:
            _raise_member_abort(f"n={n}", record)

        # phase-space distances against the reference cloud: sizes differ,
        # so the entropic solver does both endpoints
        initial_view = _uniform_view(x0, v0)
        final_ens = record.final_state
        final_view = _uniform_view(final_ens.x, final_ens.v)
        ref_initial = ref_record.snapshots[0][1]
        ref_final = ref_record.final_state
        w2_0 = _phase_distance(initial_view, ref_initial, entropic_opts)
        w2_t = _phase_distance(final_view, ref_final, entropic_opts)

        energies = _prefix_energies(record, ref_record, n, grid)
        members.append(
            MeanfieldMember(
                n=n,
                lam=lam_n,
                w2_initial=float(w2_0),
                w2_final=float(w2_t),
                growth=float(w2_t / w2_0),
                dmin_constant=float(record.summary.get("d_min_constant", np.inf)),
                dmin_above_contact=all(
                    st.d_min > 2.0 * ensemble.radius for _, st in record.stats
                ),
                v_moment9_max=float(record.summary.get("v_moment9_max", np.nan)),
                energies=energies,
                record=record,
            )
        )

    if len(set(flag_sets)) > 1:
        raise AssumptionError(f"members disagree on assumption flags: {flag_sets}")

    growths = np.array([m.growth for m in members])
    spread = float(growths.max() / growths.min())
    report = MeanfieldReport(
        members=members,
        reference_record=ref_record,
        growth_spread=spread,
        spread_ok=bool(spread <= spread_threshold),
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
