"""Config parsing, seeded sampling, run orchestration, sweeps, CLI."""

import csv
import dataclasses
import functools
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from sedlab import kinetic, micro
from sedlab.errors import AssumptionError, ConvergenceError, DomainExhaustedError
from sedlab.harness import sweeps
from sedlab.harness import cli
from sedlab.harness.config import DEFAULTS, build_config, default_config, load_config, parse_config_text
from sedlab.harness.runner import _write_samples, fit_dmin_constant, run
from sedlab.harness.sampling import sample_initial
from sedlab.harness.sweeps import compare_tiers, fit_s_relaxation, sweep_hydrodynamic, sweep_meanfield
from sedlab.kernels import GridSpec
from sedlab.kinetic import PhaseCloud
from sedlab.micro import ParticleEnsemble
from sedlab.transport import SpatialCloud

GRAVITY = np.array([0.0, 0.0, -1.0])


# h = 2: the cloud's stencils span 8 cells along z, as many as the grid has; falling through
# the lattice, they come to span 9 at t = 1.3, and the run ends with exit 4
OUTGROWING_CONFIG = {
    "run": {"tier": "transport", "n": 150, "lambda": 5.0, "t_final": 5.0, "dt": 0.05, "seed": 6},
    "grid": {"cells": 8},
    "initial": {"family": "gaussian", "sigma_x": 2.2, "sigma_v": 0.0},
}


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = default_config()
        assert cfg.tier == "vlasov"
        assert cfg.cells == 32
        assert cfg.steps == round(cfg.t_final / cfg.dt)

    def test_parse_sections_and_lists(self):
        text = """
        # comment
        tier = micro
        n = 42

        [notes]
        tags = 7.5, 8, 8.5

        [grid]
        cells = 16
        """
        cfg = build_config(parse_config_text(text))
        assert cfg.tier == "micro"
        assert cfg.n == 42
        assert cfg.extra["notes"]["tags"] == [7.5, 8, 8.5]
        assert cfg.cells == 16

    def test_unread_keys_rejected(self):
        # keys that no run reads are errors, not silent no-ops
        for section, key in [
            ("meanfield", "lambda_coupling"),
            ("meanfield", "sinkhorn_tol"),
            ("initial", "d_min_floor"),
            ("initial", "jitter_wavenumber"),
            ("run", "lamda"),
        ]:
            with pytest.raises(ValueError, match=key):
                build_config({section: {key: 1}})
        cfg = build_config(
            {
                "initial": {"family": "uniform_ball", "x_radius": 2.0, "v_radius": 0.1},
                "hydro": {"steps_per_relaxation": 4.0, "transport_dt": 0.02},
                "meanfield": {"n_ref": 512},
                "notes": {"anything": "goes"},
            }
        )
        assert cfg.initial["x_radius"] == 2.0
        assert cfg.extra["meanfield"] == {"n_ref": 512}
        assert cfg.extra["notes"] == {"anything": "goes"}

    def test_hash_ignores_ordering(self):
        a = build_config(parse_config_text("tier = micro\nn = 7\n[grid]\ncells = 16"))
        b = build_config(parse_config_text("[grid]\ncells = 16\n[run]\nn = 7\ntier = micro"))
        assert a.config_hash() == b.config_hash()

    def test_hash_sensitive_to_values(self):
        a = default_config({"run": {"seed": 1}})
        b = default_config({"run": {"seed": 2}})
        assert a.config_hash() != b.config_hash()

    def test_validation(self):
        with pytest.raises(ValueError, match="tier"):
            default_config({"run": {"tier": "mesoscale"}})
        with pytest.raises(ValueError, match="dt"):
            default_config({"run": {"dt": 0.0}})
        with pytest.raises(ValueError, match="t_final"):
            default_config({"run": {"t_final": 0.001, "dt": 0.01}})
        with pytest.raises(ValueError, match="power of two"):
            default_config({"grid": {"cells": 24}})
        with pytest.raises(ValueError, match="lambda"):
            default_config({"run": {"lambda": -1.0}})
        with pytest.raises(ValueError, match="s_cadence"):
            default_config({"output": {"s_cadence": "steps"}})
        with pytest.raises(ValueError, match="energy_budget"):
            default_config({"output": {"energy_budget": 2}})

    def test_energy_budget_default_and_hash(self):
        assert default_config({"output": {"energy_budget": 0}}).output["energy_budget"] == 0
        assert default_config().output == {"snapshots": 50, "energy_budget": 1}
        # pinned since [output] lists energy_budget = 1 and no longer s_cadence (was 11d26ecb7ac7331e)
        assert default_config().config_hash() == "6355f46c408d8c74"

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config_text("tier = micro\nbogus line without equals")

    def test_file_overrides(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("tier = transport\nn = 9\n")
        cfg = load_config(path, {"run": {"n": 5}})
        assert cfg.tier == "transport"
        assert cfg.n == 5


class TestSampling:
    def test_bit_identical_given_seed(self):
        a = sample_initial({"family": "gaussian", "sigma_x": 1.5, "sigma_v": 0.1}, 200, 7, 10.0)
        b = sample_initial({"family": "gaussian", "sigma_x": 1.5, "sigma_v": 0.1}, 200, 7, 10.0)
        assert np.array_equal(a.cloud.x, b.cloud.x)
        assert np.array_equal(a.cloud.v, b.cloud.v)
        assert np.array_equal(a.ensemble.x, b.ensemble.x)
        c = sample_initial({"family": "gaussian", "sigma_x": 1.5, "sigma_v": 0.1}, 200, 8, 10.0)
        assert not np.array_equal(a.cloud.x, c.cloud.x)

    def test_gaussian_respects_contact_and_moment_caps(self):
        draw = sample_initial({"family": "gaussian", "sigma_x": 1.5, "sigma_v": 0.2}, 500, 3, 20.0)
        report = draw.report
        assert report.d_min > 2.0 * draw.ensemble.radius
        assert report.h4_value <= 10.0
        assert report.clipped_fraction <= 0.05
        assert np.isnan(report.s0)

    def test_monokinetic_makes_h3_vacuous(self):
        draw = sample_initial({"family": "gaussian", "sigma_x": 1.5, "sigma_v": 0.0}, 300, 5, 10.0)
        assert draw.assumptions.h3_ratio == 0.0
        assert draw.report.clipped_fraction == 0.0

    def test_uniform_ball_family(self):
        draw = sample_initial(
            {"family": "uniform_ball", "x_radius": 2.0, "v_radius": 0.1}, 400, 11, 10.0
        )
        assert np.linalg.norm(draw.cloud.x - draw.cloud.x.mean(axis=0), axis=1).max() <= 2.1
        dev = draw.cloud.v - np.array([0.0, 0.0, -1.0])
        assert np.linalg.norm(dev, axis=1).max() <= 0.1 + 1e-12

    def test_report_and_assumption_check_agree(self, monkeypatch):
        from sedlab import micro
        from sedlab.micro import check_assumptions, h3_ratio

        draw = sample_initial({"family": "gaussian", "sigma_x": 1.0, "sigma_v": 0.2}, 600, 4, 12.0)
        checks = check_assumptions(draw.ensemble, DEFAULTS["initial"]["c_v"])
        assert checks.h3_ratio == draw.assumptions.h3_ratio > 0.0
        assert checks.h4_value == draw.report.h4_value
        # the row blocks only split the scan
        x, v = draw.cloud.x, draw.cloud.v
        monkeypatch.setattr(micro, "PAIR_BLOCK_BYTES", 8 * 600 * 7)  # blocks of 7 rows
        assert micro._pair_rows(600) == 7
        assert h3_ratio(x, v, 12.0) == checks.h3_ratio
        dx = np.linalg.norm(x[:, None] - x[None], axis=2)
        dv = np.linalg.norm(v[:, None] - v[None], axis=2)
        np.fill_diagonal(dx, np.inf)
        assert checks.h3_ratio == pytest.approx((dv / dx).max() / 6.0, rel=1e-14)

    def test_well_prepared_needs_grid(self):
        with pytest.raises(ValueError, match="grid"):
            sample_initial({"family": "well_prepared", "sigma_v": 0.1}, 100, 1, 10.0)

    def test_well_prepared_s0_is_exact(self):
        from sedlab.metrics import s_functional

        grid = GridSpec(16.0, 16)
        sigma_v = 0.12
        draw = sample_initial(
            {"family": "well_prepared", "sigma_x": 1.3, "sigma_v": sigma_v},
            600,
            13,
            12.0,
            grid=grid,
            want_ensemble=False,
        )
        assert draw.ensemble is None
        expected = 1.5 * sigma_v**2
        assert draw.report.s0 == expected
        assert abs(s_functional(draw.cloud, grid, draw.cloud.gravity, draw.cloud.w) - expected) < 1e-12
        assert draw.report.field_lipschitz <= 6.0

    def test_well_prepared_rejects_steep_field(self):
        grid = GridSpec(16.0, 16)
        with pytest.raises(AssumptionError, match="Lipschitz"):
            sample_initial(
                {"family": "well_prepared", "sigma_x": 1.3, "sigma_v": 0.5},
                200,
                13,
                0.05,
                grid=grid,
            )

    def test_exhaustion_reports_attempts(self):
        with pytest.raises(AssumptionError, match="attempt"):
            sample_initial(
                {"family": "gaussian", "sigma_x": 1.5, "sigma_v": 0.1, "c_v": 1e-6, "max_resamples": 2},
                100,
                3,
                10.0,
            )

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            sample_initial({"family": "ring"}, 100, 3, 10.0)


class TestRunner:
    def test_micro_run_and_determinism(self):
        cfg = default_config(
            {
                "run": {"tier": "micro", "n": 48, "lambda": 8.0, "t_final": 0.1, "dt": 0.0125, "seed": 5},
                "grid": {"cells": 16},
                "initial": {"family": "gaussian", "sigma_x": 1.2, "sigma_v": 0.1},
            }
        )
        rec1 = run(cfg)
        rec2 = run(cfg)
        assert rec1.ok and rec2.ok
        assert np.array_equal(rec1.final_state.x, rec2.final_state.x)
        assert np.array_equal(rec1.final_state.v, rec2.final_state.v)
        assert rec1.summary["d_min_constant"] >= 1.0
        assert rec1.summary["assumption_h1"] is True

    def test_micro_run_solves_closure_once_per_state(self, monkeypatch):
        from sedlab import micro

        cfg = default_config(
            {
                "run": {"tier": "micro", "n": 48, "lambda": 8.0, "t_final": 0.05, "dt": 0.0125, "seed": 5},
                "grid": {"cells": 16},
                "initial": {"family": "gaussian", "sigma_x": 1.2, "sigma_v": 0.1},
            }
        )
        solve = micro.implicit_velocities
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].time)
            return solve(*args, **kwargs)

        monkeypatch.setattr(micro, "implicit_velocities", counted)
        rec = run(cfg)
        assert rec.ok and len(rec.times) == cfg.steps + 1  # a snapshot every step
        assert len(calls) == cfg.steps + 1
        # by hand: each solve starts from the relaxation-mode extrapolation of the last three
        tol, state, past = float(cfg.tolerances["closure"]), rec.snapshots[0][1], []
        for _ in range(cfg.steps):
            weights = kinetic.relaxation_weights(math.exp(-state.lam * cfg.dt), len(past))
            w = solve(state, tol=tol, w0=sum(c * p for c, p in zip(weights, past)) if past else None).w
            past = [w, *past[:2]]
            state = micro.step(state, cfg.dt, w=w)
        assert np.array_equal(state.x, rec.final_state.x)
        assert np.array_equal(state.v, rec.final_state.v)

    def test_micro_run_scans_h3_once(self, monkeypatch):
        from sedlab import micro

        cfg = default_config(
            {
                "run": {"tier": "micro", "n": 48, "lambda": 8.0, "t_final": 0.025, "dt": 0.0125, "seed": 5},
                "grid": {"cells": 16},
                "initial": {"family": "gaussian", "sigma_x": 1.2, "sigma_v": 0.1},
            }
        )
        scan = micro.h3_ratio
        scans = []
        monkeypatch.setattr(micro, "h3_ratio", lambda *a, **k: scans.append(a[0].shape[0]) or scan(*a, **k))
        rec = run(cfg)
        assert rec.ok and scans == [48]  # the draw's check, which the run records
        assert rec.assumptions.h3_ratio == micro.check_assumptions(rec.snapshots[0][1], cfg.initial["c_v"]).h3_ratio
        scans.clear()
        draw = sample_initial(cfg.initial, cfg.n, cfg.seed, cfg.lam, want_ensemble=False)
        assert scans == []
        assert draw.ensemble is None and draw.assumptions is None

    def test_run_keeps_first_and_latest_states(self):
        cfg = default_config(
            {
                "run": {"tier": "vlasov", "n": 300, "lambda": 10.0, "t_final": 0.25, "dt": 0.0125, "seed": 3},
                "grid": {"cells": 16},
                "initial": {"sigma_x": 1.2, "sigma_v": 0.1},
                "output": {"energy_budget": 0},
            }
        )
        rec, every = run(cfg), run(cfg, every_state=True)
        assert rec.ok and every.ok and cfg.steps == 20
        assert len(rec.times) == 21 and len(rec.snapshots) == 2
        assert rec.times == every.times == [t for t, _ in every.snapshots]
        assert [t for t, _ in rec.snapshots] == [0.0, rec.times[-1]]
        for mine, full in ((rec.snapshots[0][1], every.snapshots[0][1]), (rec.final_state, every.final_state)):
            for name in ("x", "v", "w"):
                assert getattr(mine, name).tobytes() == getattr(full, name).tobytes()

    def test_vlasov_budgets_finalized(self):
        cfg = default_config(
            {
                "run": {"tier": "vlasov", "n": 300, "lambda": 10.0, "t_final": 0.1, "dt": 0.0125, "seed": 3},
                "grid": {"cells": 16},
                "initial": {"sigma_x": 1.2, "sigma_v": 0.1},
            }
        )
        rec = run(cfg)
        assert rec.ok
        assert len(rec.budgets) == cfg.steps
        assert all(np.isfinite(b.dm2_dt) for b in rec.budgets)
        assert rec.summary["budget_residual_max_rel"] <= 0.02

    @pytest.mark.parametrize("tier", ["micro", "vlasov", "transport"])
    def test_snapshot_cadence(self, tier):
        # 7 steps at a cadence of 7 // 3 = 2: t = 0, three cadence hits and the last step
        cfg = default_config(
            {
                "run": {"tier": tier, "n": 64, "lambda": 5.0, "t_final": 0.07, "dt": 0.01, "seed": 9},
                "grid": {"cells": 16},
                "initial": {"family": "gaussian", "sigma_x": 1.0, "sigma_v": 0.0},
                "output": {"snapshots": 3},
            }
        )
        rec = run(cfg)
        assert rec.ok
        assert rec.times == pytest.approx([0.0, 0.02, 0.04, 0.06, 0.07], rel=1e-12)
        # a snapshot's observations carry its own time
        if tier == "vlasov":
            assert [t for t, _ in rec.s_series] == rec.times
        if tier == "micro":
            assert [t for t, _ in rec.stats] == rec.times

    def test_abort_recorded_with_outputs(self, tmp_path):
        rec = run(default_config(OUTGROWING_CONFIG), out_dir=tmp_path)
        assert not rec.ok
        assert rec.abort["type"] == "DomainExhaustedError"
        assert rec.abort["exit_code"] == DomainExhaustedError.exit_code
        assert "span 9 cells" in rec.abort["message"]
        assert rec.summary["aborted_at"] > 0.0
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "final_state.csv").exists()
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = {row[0]: row[1] for row in csv.reader(fh)}
        assert rows["abort_type"] == "DomainExhaustedError"

    def test_transport_run_falls_through_the_old_box_floor(self):
        # the cloud falls below z = 0, the floor of the configured 16-unit box, and the run completes
        cfg = default_config(
            {
                "run": {"tier": "transport", "n": 150, "lambda": 5.0, "t_final": 5.0, "dt": 0.05, "seed": 11},
                "grid": {"cells": 16},
                "initial": {"family": "gaussian", "sigma_x": 2.0, "sigma_v": 0.0},
            }
        )
        rec = run(cfg)
        assert rec.ok and rec.times[-1] == pytest.approx(5.0)
        assert rec.final_state.x[:, 2].min() < 0.0

    def test_brinkman_miss_aborts_with_exit_3(self, monkeypatch):
        # one apply per solve: a cold start's first defect is exactly 1, far above tol
        monkeypatch.setattr(kinetic, "brinkman_solve", functools.partial(kinetic.brinkman_solve, max_iter=1))
        cfg = default_config(
            {
                "run": {"tier": "vlasov", "n": 200, "lambda": 10.0, "t_final": 0.0125, "dt": 0.00625},
                "grid": {"cells": 16},
            }
        )
        rec = run(cfg)
        assert rec.abort["exit_code"] == 3
        assert rec.abort["type"] == "ConvergenceError"
        assert isinstance(rec.error, ConvergenceError)
        assert (rec.error.iterations, rec.error.residual) == (1, 1.0)

    def test_output_files_well_formed(self, tmp_path):
        cfg = default_config(
            {
                "run": {"tier": "vlasov", "n": 200, "lambda": 10.0, "t_final": 0.05, "dt": 0.0125, "seed": 3},
                "grid": {"cells": 16},
                "initial": {"sigma_x": 1.2, "sigma_v": 0.1},
            }
        )
        rec = run(cfg, out_dir=tmp_path)
        assert rec.ok
        for name in ("config.txt", "final_state.csv", "energy_budget.csv", "s_series.csv", "summary.csv"):
            assert (tmp_path / name).exists(), name
        with open(tmp_path / "final_state.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["id", "x", "y", "z", "vx", "vy", "vz", "w"]
        echoed = (tmp_path / "config.txt").read_text()
        assert "[run]" in echoed and "lambda = 10.0" in echoed

    @pytest.mark.parametrize("tier", ["micro", "vlasov", "transport"])
    def test_final_state_columns(self, tmp_path, tier):
        rng = np.random.default_rng(15)
        n = 5
        x, v, w = 8.0 + rng.normal(size=(n, 3)), rng.normal(size=(n, 3)), np.full(n, 1.0 / n)
        state, header = {
            "micro": (ParticleEnsemble(x=x, v=v, lam=2.0, gravity=GRAVITY), "id,x,y,z,vx,vy,vz"),
            "vlasov": (PhaseCloud(x=x, v=v, w=w, lam=2.0, gravity=GRAVITY), "id,x,y,z,vx,vy,vz,w"),
            "transport": (SpatialCloud(x=x, w=w, gravity=GRAVITY), "id,x,y,z,w"),
        }[tier]
        path = tmp_path / "final_state.csv"
        _write_samples(state, path)
        lines = path.read_bytes().decode().split("\r\n")
        assert lines[0] == header
        assert len([ln for ln in lines if ln]) == n + 1
        first = lines[1].split(",")
        assert int(first[0]) == 0 and float(first[1]) == x[0, 0]
        if tier != "micro":
            assert float(first[-1]) == pytest.approx(1.0 / n)

    def test_fit_dmin_constant_minimal_feasible(self):
        times = np.linspace(0.0, 2.0, 40)
        d = 0.5 * np.exp(-3.0 * times)
        c_hat = fit_dmin_constant(times, d)
        assert np.all(d * (1 + 1e-9) >= d[0] * np.exp(-c_hat * times) / c_hat)
        tighter = 0.99 * c_hat
        assert not np.all(d >= d[0] * np.exp(-tighter * times) / tighter)

    def test_fit_dmin_constant_edges(self):
        times = np.linspace(0.0, 1.0, 10)
        assert fit_dmin_constant(times, np.full(10, 0.3)) == 1.0
        # a collapse at rate 8e7 outruns even C = 1e6, the largest C tried
        fast = times * 1e-6
        assert fit_dmin_constant(fast, 0.3 * np.exp(-8e7 * fast)) == np.inf

    @staticmethod
    def bisected_dmin_constant(times, d):
        """The least feasible C by geometric bisection over [1, 1e6]; inf when 1e6 fails."""
        def feasible(c):
            return bool(np.all(d * (1.0 + 1e-12) >= d[0] * np.exp(-c * times) / c))

        lo, hi = 1.0, 1e6
        if not feasible(hi):
            return np.inf
        if feasible(lo):
            return lo
        for _ in range(80):
            mid = np.sqrt(lo * hi)
            lo, hi = (lo, mid) if feasible(mid) else (mid, hi)
        return hi

    @pytest.mark.parametrize("noise", [0.0, 0.2], ids=["decaying", "noisy"])
    def test_fit_dmin_constant_is_the_bisected_constant(self, noise):
        rng = np.random.default_rng(29)
        for _ in range(200):
            times = np.linspace(0.0, rng.uniform(0.1, 3.0), rng.integers(2, 60))
            d = rng.uniform(0.1, 1.0) * np.exp(-rng.uniform(0.0, 20.0) * times)
            d *= np.exp(noise * rng.standard_normal(times.size))
            expected = self.bisected_dmin_constant(times, d)
            assert fit_dmin_constant(times, d) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_fit_dmin_constant_degenerate_series(self):
        times = np.linspace(0.0, 1.0, 10)
        assert fit_dmin_constant([0.0], [0.3]) == 1.0  # the bound at t = 0 holds for every C >= 1
        assert fit_dmin_constant(times, 0.3 + times) == 1.0
        for bad in (0.0, np.nan):
            d = np.full(10, 0.3)
            d[6] = bad
            assert fit_dmin_constant(times, d) == np.inf


class TestRelaxationStart:
    """Each Brinkman and closure solve of a run starts from the relaxation-mode extrapolation of its
    last three solutions (`kinetic.relaxation_weights`)."""

    def test_vlasov_run_takes_fewer_brinkman_sweeps_than_the_previous_field_start(self):
        # the hydro sweep's lam = 40 member: 32^3, four steps per relaxation time, to t = 0.25
        cfg = default_config(
            {
                "run": {"tier": "vlasov", "n": 2000, "lambda": 40.0, "t_final": 0.25, "dt": 1.0 / 160.0, "seed": 1},
                "grid": {"box": 16.0, "cells": 32},
                "output": {"snapshots": 1, "energy_budget": 0},
            }
        )
        rec = run(cfg)
        assert rec.ok and rec.summary["solver_solves"] == cfg.steps == 40
        tol, cloud, fluid, sweeps = float(cfg.tolerances["brinkman"]), rec.snapshots[0][1], None, 0
        for _ in range(cfg.steps):  # each solve from the previous step's field
            cloud, fluid, _ = kinetic.vlasov_step(cloud, GridSpec(16.0, 32), cfg.dt, tol=tol, u0=fluid, budget=False)
            sweeps += fluid.iterations
        assert rec.summary["solver_sweeps"] <= 0.7 * sweeps  # measured: 93 against 163
        final = rec.final_state
        assert max(np.abs(final.x - cloud.x).max(), np.abs(final.v - cloud.v).max()) <= 1e-10

    def test_micro_run_averages_few_closure_sweeps(self):
        cfg = default_config(
            {
                "run": {"tier": "micro", "n": 500, "lambda": 20.0, "t_final": 0.25, "dt": 1.0 / 160.0, "seed": 1},
                "grid": {"box": 16.0, "cells": 32},
                "output": {"snapshots": 1},
            }
        )
        rec = run(cfg)
        assert rec.ok and rec.summary["solver_solves"] == cfg.steps + 1
        assert rec.summary["solver_sweeps"] <= 4.0 * rec.summary["solver_solves"]  # measured: 2.46 per solve
        state = rec.snapshots[0][1]
        for _ in range(cfg.steps):  # each solve from w = 0
            state = micro.step(state, cfg.dt, tol=float(cfg.tolerances["closure"]))
        assert np.abs(state.x - rec.final_state.x).max() <= 1e-12


class TestTelemetry:
    VLASOV = {
        "run": {"tier": "vlasov", "n": 300, "lambda": 10.0, "t_final": 0.0625, "dt": 0.0125, "seed": 3},
        "grid": {"cells": 32},
    }

    def test_vlasov_series_is_each_steps_own_solve(self, tmp_path, monkeypatch):
        from sedlab import kernels

        solves, applies, solve, apply = [], [], kinetic.brinkman_solve, kernels.StokesOperator.apply
        monkeypatch.setattr(kinetic, "brinkman_solve", lambda *a, **k: solves.append(solve(*a, **k)) or solves[-1])
        monkeypatch.setattr(kernels.StokesOperator, "apply",
                            lambda op, f, direction=None: applies.append(direction is None) or apply(op, f, direction))
        cfg = default_config(self.VLASOV)
        rec = run(cfg, out_dir=tmp_path)
        assert rec.ok and len(solves) == cfg.steps
        expected = [(t, f.iterations, f.residual, f.window.spec.n) for t, f in zip(rec.times, solves)]
        assert rec.solver == expected
        # no solve beside the run's own: the series' sweeps are every vector apply the run made
        assert rec.summary["solver_sweeps"] == sum(applies) == sum(f.iterations for f in solves)
        assert rec.summary["solver_solves"] == cfg.steps and "solver_dense" not in rec.summary
        with open(tmp_path / "telemetry.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "sweeps", "defect", "side"]
        assert [tuple(map(float, r)) for r in rows[1:]] == [tuple(map(float, e)) for e in expected]

    def test_micro_series_flags_the_dense_fallback(self, tmp_path, monkeypatch):
        solve, closures = micro.implicit_velocities, []
        monkeypatch.setattr(micro, "implicit_velocities",  # one sweep: the cold start misses and falls back
                            lambda *a, **k: closures.append(solve(*a, max_iter=1, **k)) or closures[-1])
        cfg = default_config(
            {
                "run": {"tier": "micro", "n": 48, "lambda": 8.0, "t_final": 0.05, "dt": 0.0125, "seed": 5},
                "grid": {"cells": 16},
                "initial": {"family": "gaussian", "sigma_x": 1.2, "sigma_v": 0.1},
                "output": {"snapshots": 2},
            }
        )
        rec = run(cfg, out_dir=tmp_path)
        assert rec.ok and len(closures) == cfg.steps + 1  # one solve per state, observed or not
        expected = [(k * cfg.dt, c.sweeps, int(c.dense)) for k, c in enumerate(closures)]
        assert [(pytest.approx(t), s, d) for t, s, d in expected] == rec.solver
        assert closures[0].dense and rec.summary["solver_dense"] == sum(c.dense for c in closures)
        assert rec.summary["solver_sweeps"] == cfg.steps + 1
        with open(tmp_path / "telemetry.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "sweeps", "dense"] and len(rows) == cfg.steps + 2

    def test_transport_run_writes_no_series(self, tmp_path):
        rec = run(default_config({**self.VLASOV, "run": {**self.VLASOV["run"], "tier": "transport"}}), out_dir=tmp_path)
        assert rec.ok and rec.solver == [] and not (tmp_path / "telemetry.csv").exists()
        assert "solver_sweeps" not in rec.summary


def hydro_base_config():
    return default_config(
        {
            "run": {"tier": "vlasov", "n": 300, "lambda": 6.0, "t_final": 0.25, "dt": 0.0125, "seed": 3},
            "grid": {"cells": 16},
            "initial": {"family": "well_prepared", "sigma_x": 1.2, "sigma_v": 0.1},
        }
    )


def meanfield_base_config(**initial_extra):
    sections = {
        "run": {"tier": "micro", "n": 256, "lambda": 8.0, "t_final": 0.2, "dt": 1 / 32, "seed": 9},
        "grid": {"cells": 16},
        "initial": {"family": "well_prepared", "sigma_x": 1.2, "sigma_v": 0.1, **initial_extra},
    }
    return default_config(sections)


def compare_base_config():
    return default_config(
        {
            "run": {"tier": "micro", "n": 128, "lambda": 8.0, "t_final": 0.2, "dt": 1 / 32, "seed": 4},
            "grid": {"cells": 16},
            "initial": {"family": "well_prepared", "sigma_x": 1.2, "sigma_v": 0.1},
        }
    )


def use_cpus(monkeypatch, count):
    """Make the sweeps see `count` usable CPUs, whatever this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def assert_bitwise_equal(a, b, where="report"):
    """Field-by-field equality of two results, floats and arrays compared by their bytes."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for f in dataclasses.fields(a):
            assert_bitwise_equal(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            assert_bitwise_equal(a[key], b[key], f"{where}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), where
        for k, (x, y) in enumerate(zip(a, b)):
            assert_bitwise_equal(x, y, f"{where}[{k}]")
    elif isinstance(a, (float, np.ndarray)):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), where
    else:
        assert a == b, where


class TestSweepWorkers:
    """Sweep members run in forked workers; the reports match the serial path."""

    @pytest.mark.parametrize(
        "sweep, base, values, key, reference",
        [
            (sweep_hydrodynamic, hydro_base_config, [6.0, 12.0, 24.0], "lam", "transport_record"),
            (sweep_meanfield, meanfield_base_config, [32, 64, 128], "n", "reference_record"),
        ],
    )
    def test_parallel_matches_serial_bitwise(self, monkeypatch, sweep, base, values, key, reference):
        def stamped_run(*args, **kwargs):
            record = plain_run(*args, **kwargs)
            record.summary["pid"] = os.getpid()
            return record

        plain_run = sweeps.run
        monkeypatch.setattr(sweeps, "run", stamped_run)
        # workers run with one BLAS thread, whose sums differ in the last bits
        # from those of a multithreaded BLAS: the serial leg runs with one too
        use_cpus(monkeypatch, 1)
        blas_threads = sweeps._blas_threads(1)
        try:
            serial = sweep(base(), values)
        finally:
            if blas_threads is not None:
                sweeps._blas_threads(blas_threads)
        use_cpus(monkeypatch, 2)
        parallel = sweep(base(), values)
        assert multiprocessing.active_children() == []
        assert all(m.record.summary["pid"] == os.getpid() for m in serial.members)
        pids = {m.record.summary["pid"] for m in parallel.members}
        assert os.getpid() not in pids and len(pids) == 2
        for report in (serial, parallel):
            for record in [m.record for m in report.members] + [getattr(report, reference)]:
                del record.summary["pid"], record.summary["walltime_s"]
        assert [getattr(m, key) for m in parallel.members] == values
        assert_bitwise_equal(serial, parallel)

    def test_hydro_member_sends_back_its_final_state(self, monkeypatch):
        # the stiffest member of the benchmark's hydro sweep: a worker pickles
        # its result back, and the sweep reads only its S series and final state
        base = default_config(
            {
                "run": {"tier": "vlasov", "n": 2000, "lambda": 10.0, "t_final": 0.25, "dt": 1 / 80, "seed": 1},
                "grid": {"box": 16.0, "cells": 32},
                "hydro": {"steps_per_relaxation": 4.0, "transport_dt": 0.02},
            }
        )
        runs = []

        def kept_run(*args, **kwargs):
            record = plain_run(*args, **kwargs)
            runs.append((len(record.snapshots), record.final_state))
            return record

        plain_run = sweeps.run
        monkeypatch.setattr(sweeps, "run", kept_run)
        draw = sample_initial(base.initial, base.n, base.seed, base.lam, grid=base.grid, want_ensemble=False)
        member = sweeps._hydro_member(base, draw, draw.spatial_cloud(), 4.0, None, 80.0)
        # 7.8 MB while a record kept all 81 states, 0.21 MB with the initial state too
        assert len(pickle.dumps(member)) < 0.15e6
        assert member.record.ok and len(member.record.times) == 81 and len(member.record.snapshots) == 1
        assert len(runs) == 1 and runs[0][0] == 2 and runs[0][1] is member.record.final_state
        assert member.record.snapshots[0][0] == member.record.times[-1]

    def test_hydro_member_takes_s_at_every_step(self):
        # 128 steps, over twice the 50 snapshots of the base: the member still takes a snapshot,
        # and with it S, at every step
        base = default_config(
            {
                "run": {"n": 200, "lambda": 20.0, "t_final": 0.4, "seed": 3},
                "grid": {"cells": 16},
                "initial": {"sigma_x": 1.2, "sigma_v": 0.1},
            }
        )
        grid = GridSpec(float(base.box), int(base.cells))
        draw = sample_initial(base.initial, base.n, base.seed, base.lam, grid=grid, want_ensemble=False)
        member = sweeps._hydro_member(base, draw, draw.spatial_cloud(), 4.0, None, 80.0)
        record = member.record
        assert record.ok and record.config.steps == 128 and member.dt == 0.4 / 128
        assert len(record.s_series) == 129 and [t for t, _ in record.s_series] == record.times

    def test_workers_run_one_blas_thread(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        # each worker reports the count it had before this call set it to 1
        counts = sweeps._map_members(sweeps._blas_threads, [1, 1], "{}")
        assert counts in ([1, 1], [None, None])
        assert multiprocessing.active_children() == []

    def test_runs_in_process_without_sched_getaffinity(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert sweeps._map_members(lambda v: os.getpid(), [1, 2], "{}") == [os.getpid()] * 2
        assert multiprocessing.active_children() == []

    def test_runs_in_process_beside_another_thread(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(600,))
        other.start()
        try:
            assert sweeps._map_members(lambda v: os.getpid(), [1, 2], "{}") == [os.getpid()] * 2
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert multiprocessing.active_children() == []
        # with the thread gone the same call forks two workers
        pids = sweeps._map_members(lambda v: os.getpid(), [1, 2], "{}")
        assert len(set(pids)) == 2 and os.getpid() not in pids
        assert multiprocessing.active_children() == []

    def test_member_abort_comes_back_with_its_exit_code(self, monkeypatch):
        # one apply per solve misses tol on every member's first step; the forked workers inherit the patch
        monkeypatch.setattr(kinetic, "brinkman_solve", functools.partial(kinetic.brinkman_solve, max_iter=1))
        use_cpus(monkeypatch, 2)
        with pytest.raises(ConvergenceError) as err:
            sweep_hydrodynamic(hydro_base_config(), [6.0, 12.0, 24.0])
        assert err.value.exit_code == 3
        assert "sweep member lam=6 aborted" in err.value.__notes__
        assert multiprocessing.active_children() == []

    def test_worker_exception_is_reraised_with_its_traceback(self, monkeypatch):
        def failing_run(config, *args, **kwargs):
            if config.tier == "micro" and config.n == 64:
                raise ValueError("member 64 cannot run")
            return plain_run(config, *args, **kwargs)

        plain_run = sweeps.run
        monkeypatch.setattr(sweeps, "run", failing_run)
        use_cpus(monkeypatch, 2)
        with pytest.raises(ValueError, match="member 64 cannot run") as err:
            sweep_meanfield(meanfield_base_config(), [32, 64, 128])
        (note,) = err.value.__notes__
        assert "sweep member n=64" in note and "in failing_run" in note
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises_naming_its_member(self, monkeypatch):
        parent = os.getpid()

        def dying_run(config, *args, **kwargs):
            if config.tier == "micro" and config.n == 64:
                assert os.getpid() != parent, "member ran in the test process"
                os._exit(1)
            return plain_run(config, *args, **kwargs)

        plain_run = sweeps.run
        monkeypatch.setattr(sweeps, "run", dying_run)
        use_cpus(monkeypatch, 2)
        with pytest.raises(ChildProcessError, match=r"exit code 1\) running member n=64"):
            sweep_meanfield(meanfield_base_config(), [32, 64, 128])
        assert multiprocessing.active_children() == []

    def test_forked_sweep_writes_nothing_to_stdout(self, capfd, monkeypatch):
        # a benchmark reads its result from the last line of a stdout that the
        # forked workers share: they write nothing there, and every figure is
        # finite, so that a strict JSON line of them parses
        def stamped_run(*args, **kwargs):
            record = plain_run(*args, **kwargs)
            record.summary["pid"] = os.getpid()
            return record

        plain_run = sweeps.run
        monkeypatch.setattr(sweeps, "run", stamped_run)
        use_cpus(monkeypatch, 2)
        report = sweep_meanfield(meanfield_base_config(), [32, 64, 128])
        out, _ = capfd.readouterr()
        assert out == ""
        assert os.getpid() not in {m.record.summary["pid"] for m in report.members}
        figures = [report.growth_spread] + [
            getattr(m, name) for m in report.members
            for name in ("w2_initial", "w2_final", "growth", "dmin_constant", "v_moment9_max")
        ]
        assert np.all(np.isfinite(figures))  # json.dumps would write a bare NaN

    def test_unguarded_script_runs_a_parallel_sweep(self, tmp_path):
        # a forked worker does not re-import the caller's script, so a sweep
        # at a script's top level, with no __main__ guard, runs once
        script = tmp_path / "unguarded.py"
        script.write_text(
            textwrap.dedent(
                """
                import os
                from sedlab.harness import default_config, sweep_meanfield

                os.sched_getaffinity = lambda pid: {0, 1}
                base = default_config({
                    "run": {"tier": "micro", "n": 256, "lambda": 8.0, "t_final": 0.2,
                            "dt": 1 / 32, "seed": 9},
                    "grid": {"cells": 16},
                    "initial": {"family": "well_prepared", "sigma_x": 1.2, "sigma_v": 0.1},
                })
                report = sweep_meanfield(base, [32, 64, 128])
                print("spread_ok", report.spread_ok)
                """
            )
        )
        src = str(Path(sweeps.__file__).parents[2])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=600
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "spread_ok True"


class TestSweeps:
    def test_hydro_sweep_gates(self, tmp_path):
        report = sweep_hydrodynamic(hydro_base_config(), [6.0, 12.0, 24.0], out_dir=tmp_path)
        assert report.ok
        assert report.slope <= -0.7 and report.slope_r2 >= 0.9
        # gap and plateau both shrink as the relaxation stiffens
        w2 = [m.w2_final for m in report.members]
        assert w2 == sorted(w2, reverse=True)
        assert (tmp_path / "hydro_sweep.csv").exists()
        assert (tmp_path / "transport" / "summary.csv").exists()
        # members read only S and the final state: no energy budget
        assert (tmp_path / "lam_6" / "s_series.csv").exists()
        assert not list(tmp_path.glob("lam_*/energy_budget.csv"))
        assert all("budget_residual_max_rel" not in m.record.summary for m in report.members)
        # finer members take their own step sizes
        assert report.members[0].dt > report.members[-1].dt

    def test_hydro_rate_ratio_gate_fails_on_a_nan_rate(self, monkeypatch):
        # a member whose S never tops its plateau has no fitted rate: the gate must not skip it
        def fit(times, s_values):
            rate, r2, plateau = plain_fit(times, s_values)
            return (np.nan if len(times) == 13 else rate), r2, plateau  # lam = 12 takes 4 lam t = 12 steps

        plain_fit = sweeps.fit_s_relaxation
        monkeypatch.setattr(sweeps, "fit_s_relaxation", fit)
        use_cpus(monkeypatch, 1)
        report = sweep_hydrodynamic(hydro_base_config(), [6.0, 12.0, 24.0])
        assert [np.isnan(m.s_rate) for m in report.members] == [False, True, False]
        assert report.rate_ratio_ok is False and np.isnan(report.rate_ratio_worst)
        assert not report.ok

    def test_hydro_needs_three_lambdas(self):
        with pytest.raises(ValueError, match="3 lambda"):
            sweep_hydrodynamic(hydro_base_config(), [6.0, 12.0])

    def test_meanfield_sweep_gates(self, tmp_path):
        report = sweep_meanfield(meanfield_base_config(), [32, 64, 128], out_dir=tmp_path)
        assert report.ok
        assert report.growth_spread <= 2.0
        # sampling gap shrinks with more particles
        w2_0 = [m.w2_initial for m in report.members]
        assert w2_0 == sorted(w2_0, reverse=True)
        for member in report.members:
            assert member.dmin_above_contact
            assert np.isfinite(member.dmin_constant)
        assert (tmp_path / "meanfield_sweep.csv").exists()
        assert not (tmp_path / "reference" / "energy_budget.csv").exists()
        assert not list(tmp_path.glob("n_*/final_checkpoint.bin"))

    def test_meanfield_checks_each_member_once(self, monkeypatch):
        from sedlab import micro

        check = micro.check_assumptions
        checked = []

        def counted(ens, *args, **kwargs):
            checked.append((ens, check(ens, *args, **kwargs)))
            return checked[-1][1]

        monkeypatch.setattr(micro, "check_assumptions", counted)
        use_cpus(monkeypatch, 1)
        report = sweep_meanfield(meanfield_base_config(), [32, 64, 128])
        # one check per member ensemble: the runner reuses the sweep's report
        assert [ens.n for ens, _ in checked] == [32, 64, 128]
        for member, (ens, _) in zip(report.members, checked):
            assert member.record.snapshots[0][1] is ens
            assert member.record.summary["assumption_h4"] is True
        # from a worker, the record holds a copy of the sweep's report
        checked.clear()
        use_cpus(monkeypatch, 2)
        report = sweep_meanfield(meanfield_base_config(), [32, 64, 128])
        assert [ens.n for ens, _ in checked] == [32, 64, 128]
        for member, (_, result) in zip(report.members, checked):
            assert_bitwise_equal(member.record.assumptions, result)

    def test_meanfield_members_are_prefixes(self):
        base = meanfield_base_config()
        grid = GridSpec(float(base.box), int(base.cells))
        ref = sample_initial(base.initial, 512, base.seed, base.lam, grid=grid, want_ensemble=False)
        cfg = default_config(
            {
                "run": {"tier": "micro", "n": 256, "lambda": 8.0, "t_final": 0.2, "dt": 1 / 32, "seed": 9},
                "grid": {"cells": 16},
                "initial": {"family": "well_prepared", "sigma_x": 1.2, "sigma_v": 0.1},
                "meanfield": {"n_ref": 512},
            }
        )
        report = sweep_meanfield(cfg, [32, 64, 128])
        member = report.members[0]
        assert np.array_equal(member.record.snapshots[0][1].x, ref.cloud.x[:32])

    def test_meanfield_refuses_split_flags(self):
        # pick a ninth-moment cap between two members' values so the
        # assumption flags disagree
        base = meanfield_base_config()
        grid = GridSpec(float(base.box), int(base.cells))
        ref = sample_initial(base.initial, 256, base.seed, base.lam, grid=grid, want_ensemble=False)
        values = []
        for n in (32, 64, 128):
            speeds = np.linalg.norm(ref.cloud.v[:n], axis=1)
            values.append(float(np.mean(speeds**9) + speeds.max() / base.lam))
        values.sort()
        split = 0.5 * (values[-2] + values[-1])
        # the full cloud must stay below the cap or sampling would redraw it
        assert ref.report.h4_value <= split < values[-1]
        cfg = default_config(
            {
                "run": {"tier": "micro", "n": 256, "lambda": 8.0, "t_final": 0.2, "dt": 1 / 32, "seed": 9},
                "grid": {"cells": 16},
                "initial": {
                    "family": "well_prepared", "sigma_x": 1.2, "sigma_v": 0.1, "c_v": split,
                },
                "meanfield": {"n_ref": 256},
            }
        )
        with pytest.raises(AssumptionError, match="disagree"):
            sweep_meanfield(cfg, [32, 64, 128])

    def test_compare_micro_vlasov(self):
        report = compare_tiers(compare_base_config(), ("micro", "vlasov"))
        assert report.w2_final < 0.05
        assert [e.t for e in report.energies] == report.records[0].times
        # the energies read every state of both runs
        assert all([t for t, _ in r.snapshots] == r.times for r in report.records)
        assert len(report.energies) == len(report.records[1].times) > 2
        assert report.energies[0].t == 0.0
        assert report.energies[0].E == report.energies[0].H == 0.0

    def test_compare_rejects_unmatched_snapshot_times(self, monkeypatch):
        def thinned_run(config, **kwargs):
            record = sweeps_run(config, **kwargs)
            if config.tier == "vlasov":
                del record.times[1]
            return record

        sweeps_run = sweeps.run
        monkeypatch.setattr(sweeps, "run", thinned_run)
        with pytest.raises(ValueError, match="snapshot times"):
            compare_tiers(compare_base_config(), ("micro", "vlasov"))

    def test_member_abort_reraises_the_run_error(self, monkeypatch):
        records = []

        def recording_run(*args, **kwargs):
            records.append(sweeps_run(*args, **kwargs))
            return records[-1]

        sweeps_run = sweeps.run
        monkeypatch.setattr(sweeps, "run", recording_run)
        base = default_config(OUTGROWING_CONFIG)
        with pytest.raises(DomainExhaustedError) as err:
            compare_tiers(base, ("transport", "vlasov"))
        assert len(records) == 1 and err.value is records[0].error
        assert err.value.exit_code == records[0].abort["exit_code"] == 4
        assert "sweep member transport aborted" in err.value.__notes__

    def test_fit_s_relaxation_recovers_rate(self):
        times = np.linspace(0.0, 1.0, 200)
        series = 0.015 * np.exp(-14.0 * times) + 2e-4
        rate, r2, plateau = fit_s_relaxation(times, series)
        assert rate == pytest.approx(14.0, rel=0.05)
        assert r2 > 0.99
        assert plateau == pytest.approx(2e-4, rel=0.05)


class TestCli:
    def test_check_identities_passes(self, capsys):
        assert cli.main(["check-identities"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 11 and "FAIL" not in out

    def test_simulate_assumption_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "tier = micro\nn = 64\nlambda = 8.0\nt_final = 0.05\ndt = 0.0125\n"
            "[grid]\ncells = 16\n"
            "[initial]\nfamily = gaussian\nsigma_x = 1.2\nsigma_v = 0.1\n"
            "c_v = 1e-6\nmax_resamples = 1\n"
        )
        assert cli.main(["simulate", "--config", str(cfg)]) == 2

    def test_simulate_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(
            "tier = vlasov\nn = 200\nlambda = 10.0\nt_final = 0.05\ndt = 0.0125\n"
            "[grid]\ncells = 16\n[initial]\nsigma_x = 1.2\nsigma_v = 0.1\n"
        )
        out_dir = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out_dir), "--seed", "4"]) == 0
        assert (out_dir / "summary.csv").exists()
        assert "budget_residual_max_rel" in capsys.readouterr().out

    def test_oracle_csv(self, capsys, tmp_path):
        args = ["oracle", "--times", "0:1:3", "--params", "C=1,c=1,lambda=1,a0=1"]
        assert cli.main(args) == 0
        printed = capsys.readouterr().out
        lines = printed.strip().splitlines()
        assert lines[0] == "t,envelope_a,envelope_b"
        final = [float(v) for v in lines[-1].split(",")]
        assert final[1] == pytest.approx(np.e, abs=1e-12)
        # standard output and --out go through the one CSV writer
        path = tmp_path / "oracle.csv"
        assert cli.main(args + ["--out", str(path)]) == 0
        assert printed.encode() == path.read_bytes()

    def test_unread_config_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "stale.cfg"
        cfg.write_text("tier = micro\nn = 64\n[meanfield]\nlambda_coupling = cuberoot\n")
        assert cli.main(["simulate", "--config", str(cfg)]) == 1
        assert "lambda_coupling" in capsys.readouterr().err

    def test_stale_s_cadence_key_exits_1(self, tmp_path, capsys):
        # S follows the snapshots now; a file that still sets the removed key must not run
        cfg = tmp_path / "cadence.cfg"
        cfg.write_text("tier = vlasov\nn = 64\n[output]\ns_cadence = step\n")
        assert cli.main(["simulate", "--config", str(cfg)]) == 1
        assert "unknown key(s) in [output]: s_cadence" in capsys.readouterr().err

    def test_energy_budget_off_writes_no_budget(self, tmp_path, capsys):
        cfg = tmp_path / "nobudget.cfg"
        cfg.write_text(
            "tier = vlasov\nn = 200\nlambda = 10.0\nt_final = 0.05\ndt = 0.0125\n"
            "[grid]\ncells = 16\n[initial]\nsigma_x = 1.2\nsigma_v = 0.1\n[output]\nenergy_budget = 0\n"
        )
        out_dir = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out_dir)]) == 0
        assert (out_dir / "final_state.csv").exists() and (out_dir / "s_series.csv").exists()
        assert not (out_dir / "energy_budget.csv").exists()
        assert "budget_residual_max_rel" not in capsys.readouterr().out

    def test_misspelt_output_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "budget.cfg"
        cfg.write_text("tier = vlasov\nn = 64\n[output]\nenergy_budgets = 0\n")
        assert cli.main(["simulate", "--config", str(cfg)]) == 1
        assert "energy_budgets" in capsys.readouterr().err

    def test_oracle_rejects_malformed_params(self, capsys):
        assert cli.main(["oracle", "--params", "C"]) == 1

    def test_console_script_registered(self):
        result = subprocess.run(
            [sys.executable, "-m", "sedlab.harness.cli", "check-identities"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.count("PASS") == 11
