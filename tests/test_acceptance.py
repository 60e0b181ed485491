"""End-to-end acceptance checks for the three-tier laboratory.

Every test prints one PASS/FAIL line with the measured numbers so a -s
run reads as a checklist.  The two expensive sweeps are shared between
consecutive checks: the relaxation-rate sweep feeds both the
hydrodynamic-rate and the velocity-relaxation tests, and the
particle-count sweep feeds both the stability and the minimal-distance
tests.  Runtime ceilings are asserted where a check carries one.
"""

import math
import time
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import full_window, whole_fluid
from sedlab import bounds, kinetic, metrics, micro
from sedlab.harness import default_config, run, sweep_hydrodynamic, sweep_meanfield
from sedlab.kernels import (
    GridSpec,
    brinkman_solve,
    deposit,
    dissipation_check,
    get_operator,
    oseen_tensor,
    stokes_solve,
)

GRAVITY = np.array([0.0, 0.0, -1.0])


def _report(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
    print(line)
    assert ok, line


def _uniform_view(x):
    n = x.shape[0]
    return SimpleNamespace(x=np.asarray(x, dtype=float), v=None, w=np.full(n, 1.0 / n))


# ---------------------------------------------------------------------------
# kernels


@pytest.fixture(scope="module")
def grid64():
    """Shared 64-cell box with its convolution tables already built, so the
    timed sections below measure the checks rather than the one-time setup
    the grid-based tests have in common."""
    grid = GridSpec(16.0, 64)
    get_operator(grid)
    return grid


def test_stokeslet_kernel_exactness():
    start = time.perf_counter()
    diag = np.diag(oseen_tensor(np.array([1.0, 0.0, 0.0])))
    expected = np.array([1.0 / (4.0 * np.pi), 1.0 / (8.0 * np.pi), 1.0 / (8.0 * np.pi)])
    diag_err = float(np.max(np.abs(diag - expected)))

    rng = np.random.default_rng(100)
    pts = rng.normal(size=(1000, 3)) * rng.uniform(0.1, 10.0, size=(1000, 1))
    phi = oseen_tensor(pts)
    sym_err = float(np.max(np.abs(phi - np.swapaxes(phi, -1, -2))))
    parity_err = float(np.max(np.abs(oseen_tensor(-pts) - phi)))
    scales = rng.uniform(0.5, 5.0, size=(1000,))
    hom_err = float(np.max(np.abs(oseen_tensor(pts * scales[:, None]) * scales[:, None, None] - phi)))
    elapsed = time.perf_counter() - start

    ok = (
        diag_err <= 1e-14
        and max(sym_err, parity_err, hom_err) <= 1e-13
        and elapsed < 1.0
    )
    _report(
        "stokeslet kernel exactness",
        ok,
        f"diag err {diag_err:.2e}, identity err {max(sym_err, parity_err, hom_err):.2e}, {elapsed:.2f}s",
    )


def test_stokeslet_far_field(grid64):
    start = time.perf_counter()
    grid = grid64
    xs = grid.centers()
    idx = np.array([24, 28, 32])
    x0 = np.array([xs[idx[0]], xs[idx[1]], xs[idx[2]]])
    force = np.array([1.0, 0.5, -2.0])

    # a unit-weight sample sitting exactly on a cell center deposits into
    # a single cell, so the grid field is a discrete point force
    cloud = SimpleNamespace(x=x0[None, :], v=force[None, :], w=np.array([1.0]))
    _, j = deposit(cloud, full_window(grid))
    u = stokes_solve(j, full_window(grid)).velocity

    X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
    diffs = np.stack([X - x0[0], Y - x0[1], Z - x0[2]], axis=-1)
    dist = np.linalg.norm(diffs, axis=-1)
    exact = oseen_tensor(diffs.reshape(-1, 3)) @ force
    exact = exact.reshape(grid.n, grid.n, grid.n, 3)

    far = dist >= 5.0 * grid.h
    rel = np.linalg.norm(u - exact, axis=-1)[far] / np.linalg.norm(exact, axis=-1)[far]
    worst = float(rel.max())
    elapsed = time.perf_counter() - start

    ok = worst <= 0.02 and elapsed < 10.0
    _report(
        "stokeslet far field",
        ok,
        f"worst relative error {worst:.4f} over {int(far.sum())} cells at >= 5h, {elapsed:.1f}s",
    )


def _gaussian_density(grid, center, sigma, mass):
    xs = grid.centers()
    X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
    r2 = (X - center[0]) ** 2 + (Y - center[1]) ** 2 + (Z - center[2]) ** 2
    vals = np.exp(-r2 / (2.0 * sigma**2))
    vals *= mass / (vals.sum() * grid.cell_volume)
    return vals


def test_brinkman_dissipation_identity(grid64):
    start = time.perf_counter()
    grid = grid64
    rho = _gaussian_density(grid, (8.0, 8.0, 8.0), 1.5, 1.0)
    bulk = np.broadcast_to(GRAVITY, (grid.n, grid.n, grid.n, 3)).copy()
    j = rho[..., None] * bulk
    fluid = brinkman_solve(rho, j, full_window(grid), tol=1e-12)
    rep = dissipation_check(rho, bulk, fluid)
    elapsed = time.perf_counter() - start

    ok = rep.rel_residual <= 0.01 and elapsed < 30.0
    _report(
        "Brinkman dissipation identity",
        ok,
        f"relative residual {rep.rel_residual:.5f} "
        f"(drag {rep.lhs:.4f} = grad {rep.grad_term:.4f} + friction {rep.friction_term:.4f}), {elapsed:.1f}s",
    )


def test_brinkman_coercivity_sign():
    rng = np.random.default_rng(41)
    grid = GridSpec(16.0, 32)
    xs = grid.centers()
    X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
    ratios = []
    for _ in range(20):
        center = rng.uniform(6.0, 10.0, size=3)
        rho = _gaussian_density(grid, center, rng.uniform(0.8, 2.0), rng.uniform(0.5, 2.0))
        vals = np.empty((grid.n, grid.n, grid.n, 3))
        for a in range(3):
            k = rng.integers(1, 3, size=3)
            phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
            vals[..., a] = rng.normal(0.0, 1.0) + 0.5 * (
                np.sin(2.0 * np.pi * k[0] * X / grid.box_length + phase[0])
                * np.sin(2.0 * np.pi * k[1] * Y / grid.box_length + phase[1])
                * np.sin(2.0 * np.pi * k[2] * Z / grid.box_length + phase[2])
            )
        j = rho[..., None] * vals
        fluid = brinkman_solve(rho, j, full_window(grid), tol=1e-11)
        rep = dissipation_check(rho, vals, fluid)
        norm_sq = float(np.sum(vals**2 * rho[..., None]) * grid.cell_volume)
        ratios.append(rep.lhs / norm_sq)
    worst = min(ratios)
    _report(
        "Brinkman coercivity sign",
        worst > 0.0,
        f"min of drag pairing over bulk L2(rho) norm = {worst:.4f} across 20 instances",
    )


# ---------------------------------------------------------------------------
# particle tier


def test_closure_matches_dense_solve():
    rng = np.random.default_rng(52)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 65))
        ens = micro.ParticleEnsemble(
            x=rng.normal(0.0, 2.0, size=(n, 3)),
            v=rng.normal(0.0, 1.0, size=(n, 3)),
            lam=10.0,
            gravity=GRAVITY,
        )
        w_iter = micro.implicit_velocities(ens, tol=1e-14)
        mat = micro._interaction_matrix(ens.x) / n
        w_dense = np.linalg.solve(np.eye(3 * n) + mat, mat @ ens.v.reshape(-1)).reshape(n, 3)
        worst = max(worst, float(np.max(np.abs(w_iter - w_dense))))
    _report(
        "closure matches dense solve",
        worst <= 1e-10,
        f"worst deviation {worst:.2e} across 50 instances with N <= 64",
    )


def test_relaxation_integrator_exactness():
    rng = np.random.default_rng(63)
    lam = 5.0
    worst = 0.0
    for lam_dt in (0.1, 1.0, 10.0):
        dt = lam_dt / lam
        ens = micro.ParticleEnsemble(
            x=rng.normal(0.0, 1.0, size=(1, 3)),
            v=rng.normal(0.0, 1.0, size=(1, 3)),
            lam=lam,
            gravity=GRAVITY,
        )
        x0, v0 = ens.x.copy(), ens.v.copy()
        state = ens
        for k in range(1, 11):
            state = micro.step(state, dt)
            t = k * dt
            decay = np.exp(-lam * t)
            v_exact = GRAVITY + (v0 - GRAVITY) * decay
            x_exact = x0 + t * GRAVITY + (1.0 - decay) / lam * (v0 - GRAVITY)
            worst = max(
                worst,
                float(np.max(np.abs(state.v - v_exact))),
                float(np.max(np.abs(state.x - x_exact))),
            )
    _report(
        "relaxation integrator exactness",
        worst <= 1e-12,
        f"worst deviation {worst:.2e} from the closed form at lam dt up to 10",
    )


# ---------------------------------------------------------------------------
# kinetic tier


def test_energy_budget_identity():
    start = time.perf_counter()
    config = default_config(
        {
            "run": {"tier": "vlasov", "n": 20000, "lambda": 20.0, "t_final": 0.5, "dt": 1.0 / 160.0, "seed": 2},
            "grid": {"box": 16.0, "cells": 64},
            "initial": {"family": "well_prepared", "sigma_x": 1.5, "sigma_v": 0.2},
        }
    )
    record = run(config)
    elapsed = time.perf_counter() - start

    assert record.ok, record.abort
    assert len(record.budgets) == config.steps
    assert all(b.term_scale > 0.0 for b in record.budgets)
    rels = [abs(b.residual) / b.term_scale for b in record.budgets]
    worst, interior = max(rels), max(rels[1:])
    # the first step's dM2/dt is the one-sided stencil; past it, a push that reads g + 0.8 u or g
    # alone reads at least 1.99e-3 or 9.64e-3 on every step here, against at most 4.21e-4 on the model
    ok = worst <= 0.02 and interior <= 1e-3 and elapsed <= 600.0
    _report(
        "energy budget identity",
        ok,
        f"worst per-step residual {worst:.4f} of the term scale over {len(rels)} steps, "
        f"{interior:.1e} from step 1 on (20000 samples, 64^3), {elapsed:.0f}s",
    )


@pytest.fixture(scope="module")
def hydro_sweep():
    base = default_config(
        {
            "run": {"tier": "vlasov", "n": 2000, "lambda": 10.0, "t_final": 1.0, "dt": 1.0 / 80.0, "seed": 12},
            "grid": {"box": 16.0, "cells": 32},
            "initial": {"family": "well_prepared", "sigma_x": 1.5, "sigma_v": 0.2},
            "hydro": {"steps_per_relaxation": 8.0, "transport_dt": 0.02},
        }
    )
    start = time.perf_counter()
    report = sweep_hydrodynamic(base, [10.0, 20.0, 40.0, 80.0])
    return report, time.perf_counter() - start


def test_hydrodynamic_rate(hydro_sweep):
    report, elapsed = hydro_sweep
    w2 = ", ".join(f"{m.w2_final:.5f}" for m in report.members)
    ok = report.slope <= -0.7 and report.slope_r2 >= 0.9 and elapsed <= 1800.0
    _report(
        "hydrodynamic rate",
        ok,
        f"log-log slope {report.slope:.3f} (r2 {report.slope_r2:.4f}) for final spatial W2 [{w2}], {elapsed:.0f}s",
    )


def test_velocity_relaxation_rate(hydro_sweep):
    report, _ = hydro_sweep
    rates = ", ".join(f"{m.s_rate:.1f}" for m in report.members)
    plateaus = ", ".join(f"{m.s_plateau:.1e}" for m in report.members)
    ok = report.rate_ratio_ok and report.plateau_ok
    _report(
        "velocity relaxation rate",
        ok,
        f"decay rates [{rates}] (worst pairwise ratio deviation {report.rate_ratio_worst:.3f}), "
        f"plateaus [{plateaus}] strictly decreasing: {report.plateau_ok}",
    )


# ---------------------------------------------------------------------------
# mean-field tier


@pytest.fixture(scope="module")
def meanfield_sweep():
    base = default_config(
        {
            "run": {"tier": "micro", "n": 2000, "lambda": 20.0, "t_final": 1.0, "dt": 1.0 / 160.0, "seed": 12},
            "grid": {"box": 16.0, "cells": 32},
            "initial": {"family": "well_prepared", "sigma_x": 1.5, "sigma_v": 0.2},
            "meanfield": {"n_ref": 4000},
        }
    )
    start = time.perf_counter()
    report = sweep_meanfield(base, [250, 500, 1000, 2000])
    return report, time.perf_counter() - start


def test_meanfield_stability(meanfield_sweep):
    report, elapsed = meanfield_sweep
    growths = ", ".join(f"N={m.n}: {m.growth:.3f}" for m in report.members)
    ok = report.spread_ok and elapsed <= 3600.0
    _report(
        "mean-field stability",
        ok,
        f"growth factors [{growths}], largest/smallest {report.growth_spread:.3f} <= 2, {elapsed:.0f}s",
    )


def test_minimal_distance_bound(meanfield_sweep):
    report, _ = meanfield_sweep
    worst_margin = np.inf
    worst_contact = np.inf
    for m in report.members:
        assert m.record.ok, m.record.abort
        times = np.array([t for t, _ in m.record.stats])
        dmins = np.array([st.d_min for _, st in m.record.stats])
        chat = m.dmin_constant
        assert np.isfinite(chat)
        floor = dmins[0] * np.exp(-chat * times) / chat
        worst_margin = min(worst_margin, float(np.min(dmins - floor)))
        radius = 1.0 / (6.0 * np.pi * m.n)
        worst_contact = min(worst_contact, float(dmins.min() / (2.0 * radius)))
        assert m.dmin_above_contact
    ok = worst_margin >= -1e-12 and worst_contact > 1.0
    _report(
        "minimal distance bound",
        ok,
        f"worst envelope margin {worst_margin:.2e}, min d_min over contact diameter {worst_contact:.1f}",
    )


# ---------------------------------------------------------------------------
# diagnostics


def test_w2_solver_correctness():
    rng = np.random.default_rng(74)
    perms_by_n = {n: np.array(list(permutations(range(n)))) for n in range(2, 9)}
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        x = rng.normal(size=(n, 3))
        y = rng.normal(size=(n, 3))
        exact = metrics.wasserstein2_exact(_uniform_view(x), _uniform_view(y)).distance
        costs = np.sum((x[None, :, :] - y[perms_by_n[n]]) ** 2, axis=(1, 2)) / n
        brute = math.sqrt(float(costs.min()))
        worst = max(worst, abs(exact - brute))

    x = rng.normal(size=(64, 3))
    y = rng.normal(size=(64, 3)) + np.array([0.5, 0.0, 0.0])
    exact64 = metrics.wasserstein2_exact(_uniform_view(x), _uniform_view(y)).distance
    entropic = metrics.wasserstein2_entropic(_uniform_view(x), _uniform_view(y)).distance
    rel = abs(entropic - exact64) / exact64

    ok = worst <= 1e-12 and rel <= 0.01
    _report(
        "W2 solver correctness",
        ok,
        f"assignment vs brute force worst {worst:.2e} on 200 instances <= 8 points, "
        f"entropic vs exact {rel:.4f} relative on 64 points",
    )


def test_gronwall_envelope_domination():
    rng = np.random.default_rng(1234)
    t = np.linspace(0.0, 3.0, 301)
    dominated = 0
    for _ in range(100):
        env = bounds.GronwallEnvelope(
            C=rng.uniform(1, 3),
            c=rng.uniform(1, 3),
            lam=rng.uniform(0.5, 50),
            d=rng.uniform(0, 2),
            a0=rng.uniform(0, 2),
            b0=rng.uniform(0, 2),
        )
        assert env.guarantees_domination
        sol = solve_ivp(
            bounds.comparison_system(env),
            (t[0], t[-1]),
            [env.a0, env.b0],
            method="DOP853",
            rtol=1e-11,
            atol=1e-13,
            t_eval=t,
        )
        assert sol.success
        a, b = sol.y
        if np.all(a <= bounds.envelope_a(env, t) * (1 + 1e-9) + 1e-12) and np.all(
            b <= bounds.envelope_b(env, t) * (1 + 1e-9) + 1e-12
        ):
            dominated += 1

    unit = bounds.GronwallEnvelope(C=1.0, c=1.0, lam=1.0, d=0.0, a0=1.0, b0=0.0)
    eq_err = abs(bounds.envelope_a(unit, 1.0) - np.e)

    ok = dominated == 100 and eq_err <= 1e-12
    _report(
        "Gronwall envelope domination",
        ok,
        f"{dominated}/100 integrated extremal runs dominated on [0,3], equality case off e by {eq_err:.2e}",
    )


def _history_from_steps(cloud, grid, dt, steps, coupling):
    history = kinetic.FieldHistory([], [], [])
    state = cloud
    for _ in range(steps):
        if coupling:
            state, fluid, _ = kinetic.vlasov_step(state, grid, dt, tol=1e-10)
            fluid = whole_fluid(fluid)  # the frozen field off the window too
            history.append(dt, fluid, fluid.grad_sup_norm)
        else:  # u = 0: replay_flow pushes through a None field by g alone
            history.append(dt, None, 0.0)
    return history


def test_jacobian_volume_bounds():
    rng = np.random.default_rng(85)

    # free flow: the map is affine and the determinant is exact
    grid = GridSpec(16.0, 16)
    lam, dt, steps = 8.0, 0.02, 10
    cloud = kinetic.PhaseCloud(
        x=rng.normal(8.0, 1.2, size=(64, 3)),
        v=rng.normal(0.0, 0.3, size=(64, 3)),
        w=np.full(64, 1.0 / 64.0),
        lam=lam,
        gravity=GRAVITY,
    )
    history = _history_from_steps(cloud, grid, dt, steps, coupling=False)
    rep = kinetic.jacobian_check(cloud, history, probes=4, seed=2)
    target = np.exp(-3.0 * lam * steps * dt)
    free_err = float(np.max(np.abs(rep.det_values - target) / target))

    # coupled flow: determinants stay under the expansion-corrected ceiling
    grid2 = GridSpec(16.0, 32)
    lam2, dt2, steps2 = 16.0, 0.005, 10
    cloud2 = kinetic.PhaseCloud(
        x=rng.normal(8.0, 1.2, size=(500, 3)),
        v=rng.normal(0.0, 0.3, size=(500, 3)),
        w=np.full(500, 1.0 / 500.0),
        lam=lam2,
        gravity=GRAVITY,
    )
    history2 = _history_from_steps(cloud2, grid2, dt2, steps2, coupling=True)
    rep2 = kinetic.jacobian_check(cloud2, history2, probes=3, seed=4)
    assert rep2.applicable
    det_ratio = float(np.max(rep2.det_values / rep2.det_bound))
    inv_ratio = float(np.max(rep2.inverse_lip / rep2.inverse_bound))

    ok = free_err <= 1e-8 and det_ratio <= 1.05 and inv_ratio <= 1.05
    _report(
        "Jacobian volume bounds",
        ok,
        f"free-flow determinant off e^(-3 lam t) by {free_err:.2e}; "
        f"coupled run at {det_ratio:.3f} of the volume ceiling, {inv_ratio:.3f} of the inverse-map ceiling",
    )
