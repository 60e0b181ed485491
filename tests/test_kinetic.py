import numpy as np
import pytest

from sedlab.errors import DomainExhaustedError
from sedlab.kernels import GridSpec
from sedlab.kinetic import (
    EnergyBudget,
    FieldHistory,
    PhaseCloud,
    energy_budget,
    finalize_budgets,
    jacobian_check,
    moments,
    replay_flow,
    save_budget_csv,
    save_cloud_csv,
    vlasov_step,
)

GRAVITY = np.array([0.0, 0.0, -1.0])


def gaussian_cloud(n, lam, seed, sigma_x=1.5, sigma_v=0.3, box=16.0, v_mean=None):
    rng = np.random.default_rng(seed)
    x = box / 2 + sigma_x * rng.standard_normal((n, 3))
    v_mean = GRAVITY if v_mean is None else np.asarray(v_mean)
    v = v_mean + sigma_v * rng.standard_normal((n, 3))
    w = np.full(n, 1.0 / n)
    return PhaseCloud(x=x, v=v, w=w, lam=lam, gravity=GRAVITY)


class TestPhaseCloud:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PhaseCloud(
                x=np.zeros((2, 3)) + 8.0,
                v=np.zeros((2, 3)),
                w=np.array([0.5, 0.6]),
                lam=1.0,
                gravity=GRAVITY,
            )

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PhaseCloud(
                x=np.zeros((2, 3)) + 8.0,
                v=np.zeros((2, 3)),
                w=np.array([1.5, -0.5]),
                lam=1.0,
                gravity=GRAVITY,
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            PhaseCloud(
                x=np.zeros((2, 3)) + 8.0,
                v=np.zeros((3, 3)),
                w=np.full(2, 0.5),
                lam=1.0,
                gravity=GRAVITY,
            )

    def test_gravity_must_be_unit(self):
        with pytest.raises(ValueError, match="unit"):
            PhaseCloud(
                x=np.zeros((2, 3)) + 8.0,
                v=np.zeros((2, 3)),
                w=np.full(2, 0.5),
                lam=1.0,
                gravity=np.array([0.0, 0.0, -2.0]),
            )

    def test_nonfinite_rejected(self):
        v = np.zeros((2, 3))
        v[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            PhaseCloud(
                x=np.zeros((2, 3)) + 8.0,
                v=v,
                w=np.full(2, 0.5),
                lam=1.0,
                gravity=GRAVITY,
            )


class TestStep:
    def test_decoupled_relaxation_matches_closed_form(self):
        # with u = 0 the integrator is exact: after total time t,
        # v = g + (v0 - g) e^{-lam t},  x = x0 + t g + (1 - e^{-lam t})(v0 - g)/lam
        grid = GridSpec(16.0, 16)
        for lam, dt in [(5.0, 0.1), (50.0, 0.1)]:
            cloud = gaussian_cloud(64, lam, seed=7)
            x0, v0 = cloud.x.copy(), cloud.v.copy()
            out = cloud
            for _ in range(5):
                out, _, _ = vlasov_step(out, grid, dt, coupling=False)
            t = 5 * dt
            decay = np.exp(-lam * t)
            v_exact = GRAVITY + decay * (v0 - GRAVITY)
            x_exact = x0 + t * GRAVITY + (1.0 - decay) / lam * (v0 - GRAVITY)
            assert np.allclose(out.v, v_exact, rtol=0.0, atol=1e-12)
            assert np.allclose(out.x, x_exact, rtol=0.0, atol=1e-12)
            assert out.time == pytest.approx(t, abs=1e-15)

    def test_tiers_share_one_relaxation_push(self):
        # micro.step without interactions, vlasov_step without coupling and
        # replay_flow through an empty field all take the same exact push
        from sedlab.micro import ParticleEnsemble, step

        grid = GridSpec(16.0, 8)
        cloud = gaussian_cloud(12, 9.0, seed=4)
        dt = 0.03
        ens = ParticleEnsemble(x=cloud.x, v=cloud.v, lam=cloud.lam, gravity=GRAVITY)
        particles = step(ens, dt, interactions=False)
        kinetic, _, _ = vlasov_step(cloud, grid, dt, coupling=False)
        history = FieldHistory([], [], [])
        history.append(dt, None, 0.0)
        for i in range(cloud.n):
            x, v = replay_flow(history, cloud.x[i], cloud.v[i], GRAVITY, cloud.lam)
            assert np.array_equal(x, kinetic.x[i]) and np.array_equal(v, kinetic.v[i])
        assert np.array_equal(particles.x, kinetic.x)
        assert np.array_equal(particles.v, kinetic.v)

    def test_weights_and_mass_preserved(self):
        grid = GridSpec(16.0, 16)
        cloud = gaussian_cloud(200, 10.0, seed=3)
        out, _, _ = vlasov_step(cloud, grid, 0.01)
        assert np.array_equal(out.w, cloud.w)
        assert moments(out).m[0.0] == pytest.approx(1.0, abs=1e-12)

    def test_monokinetic_at_rest_budget_is_zero(self):
        # v = 0 deposits zero momentum, the fluid vanishes, and every term
        # of the energy identity is identically zero at that instant
        grid = GridSpec(16.0, 16)
        rng = np.random.default_rng(5)
        n = 100
        cloud = PhaseCloud(
            x=8.0 + 1.5 * rng.standard_normal((n, 3)),
            v=np.zeros((n, 3)),
            w=np.full(n, 1.0 / n),
            lam=4.0,
            gravity=GRAVITY,
        )
        _, fluid, budget = vlasov_step(cloud, grid, 0.01)
        assert budget.m2 == 0.0
        assert budget.grad_term == pytest.approx(0.0, abs=1e-24)
        assert budget.friction_term == pytest.approx(0.0, abs=1e-24)
        assert budget.gravity_term == 0.0
        assert fluid.grad_sup_norm == pytest.approx(0.0, abs=1e-13)

    def test_leaving_the_box_raises_domain_error(self):
        grid = GridSpec(16.0, 16)
        n = 8
        x = np.zeros((n, 3)) + 8.0
        x[:, 2] = 0.9  # just above the lowest usable layer
        cloud = PhaseCloud(
            x=x,
            v=np.tile(GRAVITY, (n, 1)),
            w=np.full(n, 1.0 / n),
            lam=2.0,
            gravity=GRAVITY,
        )
        out, _, _ = vlasov_step(cloud, grid, 0.5)  # falls to z ~ 0.4
        with pytest.raises(DomainExhaustedError):
            vlasov_step(out, grid, 0.5)

    def test_dt_must_be_positive(self):
        grid = GridSpec(16.0, 16)
        cloud = gaussian_cloud(8, 1.0, seed=0)
        with pytest.raises(ValueError, match="dt"):
            vlasov_step(cloud, grid, 0.0)

    def test_mirror_symmetry_preserved(self):
        # two sub-clouds mirrored across the plane x = L/2 (normal
        # orthogonal to gravity) stay mirror images step after step
        box = 12.0
        grid = GridSpec(box, 16)
        rng = np.random.default_rng(21)
        npairs = 100
        xa = np.column_stack(
            [
                box / 2 + 0.5 + 2.0 * rng.random(npairs),
                box / 2 + 3.0 * (rng.random(npairs) - 0.5),
                box / 2 + 3.0 * (rng.random(npairs) - 0.5),
            ]
        )
        va = 0.3 * rng.standard_normal((npairs, 3)) + GRAVITY
        mirror_x = lambda p: np.column_stack([box - p[:, 0], p[:, 1], p[:, 2]])
        mirror_v = lambda q: np.column_stack([-q[:, 0], q[:, 1], q[:, 2]])
        cloud = PhaseCloud(
            x=np.vstack([xa, mirror_x(xa)]),
            v=np.vstack([va, mirror_v(va)]),
            w=np.full(2 * npairs, 0.5 / npairs),
            lam=4.0,
            gravity=GRAVITY,
        )
        for _ in range(3):
            cloud, _, _ = vlasov_step(cloud, grid, 0.01, tol=1e-12)
            a, b = cloud.x[:npairs], cloud.x[npairs:]
            assert np.allclose(b, mirror_x(a), rtol=0.0, atol=1e-10)
            assert np.allclose(cloud.v[npairs:], mirror_v(cloud.v[:npairs]), rtol=0.0, atol=1e-10)


class TestMoments:
    def test_uniform_ball_second_moment(self):
        # |v| uniform in the unit ball has E|v|^2 = 3/5
        rng = np.random.default_rng(42)
        n = 120_000
        direction = rng.standard_normal((n, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        r = rng.random(n) ** (1.0 / 3.0)
        cloud = PhaseCloud(
            x=np.full((n, 3), 8.0),
            v=direction * r[:, None],
            w=np.full(n, 1.0 / n),
            lam=1.0,
            gravity=GRAVITY,
        )
        rep = moments(cloud)
        assert rep.m[0.0] == pytest.approx(1.0, abs=1e-12)
        assert rep.m[2.0] == pytest.approx(0.6, abs=5e-3)
        assert rep.m[1.0] <= np.sqrt(rep.m[2.0])

    def test_density_norms_on_grid(self):
        grid = GridSpec(16.0, 32)
        cloud = gaussian_cloud(5000, 1.0, seed=9)
        rep = moments(cloud, grid=grid)
        # total mass is the L^1 norm of the deposited density
        assert rep.lp_rho[1.0] == pytest.approx(1.0, rel=1e-12)
        assert rep.lp_rho[4.0] > rep.lp_rho[4.0 / 3.0] * 0  # present and positive
        assert set(rep.lp_rho) == {1.0, 4.0 / 3.0, 4.0}

    def test_moment_interpolation_inequality(self):
        # product data rho(x) uniform-ball(v): the velocity-moment density
        # m_l = rho * 3 R^l / (3+l) obeys
        # ||m_l||_{(3+k)/(3+l)} <= (1 + 4 pi/(3+l)) ||f||_inf^{(k-l)/(3+k)} M_k^{(3+l)/(3+k)}
        box, nn, sigma, rv = 16.0, 64, 1.5, 1.3
        grid = GridSpec(box, nn)
        c = grid.centers() - box / 2
        r2 = c[:, None, None] ** 2 + c[None, :, None] ** 2 + c[None, None, :] ** 2
        rho = np.exp(-r2 / (2 * sigma**2))
        rho /= rho.sum() * grid.cell_volume
        ball_volume = 4.0 * np.pi * rv**3 / 3.0
        f_sup = rho.max() / ball_volume
        for l, k in [(1.0, 9.0), (0.0, 2.0)]:
            q = (3.0 + k) / (3.0 + l)
            c_l = 3.0 * rv**l / (3.0 + l)
            m_k = 3.0 * rv**k / (3.0 + k)
            lhs = c_l * (np.sum(rho**q) * grid.cell_volume) ** (1.0 / q)
            const = 1.0 + 4.0 * np.pi / (3.0 + l)
            rhs = const * f_sup ** ((k - l) / (3.0 + k)) * m_k ** ((3.0 + l) / (3.0 + k))
            assert lhs <= rhs
            assert lhs > 0.2 * rhs  # the check would not survive a smaller constant class


class TestEnergyBudget:
    def test_residual_algebra(self):
        b = EnergyBudget(t=0.0, m2=1.0, grad_term=0.3, friction_term=0.5, gravity_term=2.0, dm2_dt=2.4)
        assert b.residual == pytest.approx(1.2 + 0.3 + 0.5 - 2.0)
        assert b.term_scale == pytest.approx(1.2 + 0.3 + 0.5 + 2.0)

    def test_nan_until_filled(self):
        grid = GridSpec(16.0, 16)
        cloud = gaussian_cloud(50, 2.0, seed=1)
        _, _, budget = vlasov_step(cloud, grid, 0.01)
        assert np.isnan(budget.dm2_dt) and np.isnan(budget.residual)

    def test_budget_closes_along_a_coupled_run(self):
        # the discrete energy identity: interior residuals stay below 2%
        # of the summed term magnitudes
        grid = GridSpec(16.0, 32)
        lam, dt, steps = 10.0, 1.0 / 160.0, 16
        cloud = gaussian_cloud(2000, lam, seed=33, sigma_v=0.4)
        budgets = []
        warm = None
        for _ in range(steps):
            cloud, fluid, budget = vlasov_step(cloud, grid, dt, tol=1e-10, u0=warm)
            warm = fluid.velocity
            budgets.append(budget)
        final_m2 = float(cloud.w @ np.sum(cloud.v**2, axis=1))
        budgets = finalize_budgets(budgets, final_m2, dt)
        assert all(np.isfinite(b.residual) for b in budgets)
        for b in budgets:
            assert abs(b.residual) <= 0.02 * b.term_scale, f"t={b.t}: {b.residual} vs {b.term_scale}"

    def test_gravity_caps_the_energy_growth(self):
        # (1/2) dM2/dt <= lam sqrt(M2): the only source term is gravity
        grid = GridSpec(16.0, 32)
        lam, dt, steps = 10.0, 1.0 / 160.0, 12
        cloud = gaussian_cloud(1000, lam, seed=8, sigma_v=0.5, v_mean=(0.0, 0.0, 0.0))
        budgets = []
        for _ in range(steps):
            cloud, _, budget = vlasov_step(cloud, grid, dt, tol=1e-10)
            budgets.append(budget)
        final_m2 = float(cloud.w @ np.sum(cloud.v**2, axis=1))
        for b in finalize_budgets(budgets, final_m2, dt):
            assert 0.5 * b.dm2_dt <= lam * np.sqrt(b.m2) * (1.0 + 1e-9) + 1e-12

    def test_finalize_budgets_exact_on_quadratic(self):
        # centered and one-sided stencils are both exact for quadratic M2(t)
        dt = 0.1
        m2 = lambda t: 2.0 + 3.0 * t - 0.7 * t * t
        dm2 = lambda t: 3.0 - 1.4 * t
        budgets = [
            EnergyBudget(t=k * dt, m2=m2(k * dt), grad_term=0.0, friction_term=0.0, gravity_term=0.0)
            for k in range(4)
        ]
        filled = finalize_budgets(budgets, m2(4 * dt), dt)
        for b in filled:
            assert b.dm2_dt == pytest.approx(dm2(b.t), abs=1e-12)


class TestJacobian:
    def run_history(self, cloud, grid, dt, steps, coupling):
        history = FieldHistory([], [], [])
        out = cloud
        for _ in range(steps):
            out, fluid, _ = vlasov_step(out, grid, dt, coupling=coupling, tol=1e-10)
            field = fluid.velocity if coupling else None
            history.append(dt, field, fluid.grad_sup_norm)
        return out, history

    def test_zero_field_determinant_is_exact(self):
        # with u = 0 the flow map is affine and det dW/dw = e^{-3 lam t}
        grid = GridSpec(16.0, 16)
        lam, dt, steps = 8.0, 0.02, 10
        cloud = gaussian_cloud(64, lam, seed=12)
        _, history = self.run_history(cloud, grid, dt, steps, coupling=False)
        report = jacobian_check(cloud, history, probes=4, seed=2)
        t = steps * dt
        assert report.applicable
        assert report.expansion == pytest.approx(1.0, abs=0.0)
        expected = np.exp(-3.0 * lam * t)
        assert np.allclose(report.det_values, expected, rtol=1e-8, atol=0.0)
        assert report.det_bound == pytest.approx(expected, rel=1e-13)
        # the inverse map's velocity derivative saturates its ceiling too
        assert np.allclose(report.inverse_lip, np.exp(lam * t), rtol=1e-6)

    def test_weak_coupling_respects_the_ceiling(self):
        grid = GridSpec(16.0, 32)
        lam, dt, steps = 16.0, 0.005, 10
        cloud = gaussian_cloud(500, lam, seed=17)
        _, history = self.run_history(cloud, grid, dt, steps, coupling=True)
        report = jacobian_check(cloud, history, probes=3, seed=4)
        assert report.applicable
        assert report.expansion > 1.0
        assert np.all(report.det_values <= report.det_bound * 1.05)
        assert np.all(report.inverse_lip <= report.inverse_bound * 1.05)

    def test_underdamped_flagged_inapplicable(self):
        grid = GridSpec(16.0, 16)
        cloud = gaussian_cloud(32, 2.0, seed=3)
        _, history = self.run_history(cloud, grid, 0.01, 3, coupling=False)
        report = jacobian_check(cloud, history, probes=2, seed=0)
        assert not report.applicable

    def test_replay_matches_step_positions(self):
        # replaying the recorded fields reproduces the integrator's output
        grid = GridSpec(16.0, 32)
        lam, dt, steps = 8.0, 0.01, 5
        cloud = gaussian_cloud(200, lam, seed=6)
        out, history = self.run_history(cloud, grid, dt, steps, coupling=True)
        i = 7
        x, w = replay_flow(history, cloud.x[i], cloud.v[i], cloud.gravity, lam)
        assert np.allclose(x, out.x[i], rtol=0.0, atol=1e-13)
        assert np.allclose(w, out.v[i], rtol=0.0, atol=1e-13)

    def test_expansion_factor_accumulates(self):
        history = FieldHistory([], [], [])
        history.append(0.1, None, 2.0)
        history.append(0.2, None, 1.0)
        assert history.duration == pytest.approx(0.3)
        assert history.expansion_factor() == pytest.approx(np.exp(2 * (0.1 * 2.0 + 0.2 * 1.0)))


class TestCsv:
    def test_cloud_snapshot(self, tmp_path):
        cloud = gaussian_cloud(5, 1.0, seed=0)
        path = tmp_path / "cloud.csv"
        save_cloud_csv(cloud, path)
        lines = path.read_bytes().decode().split("\r\n")
        assert lines[0] == "id,x,y,z,vx,vy,vz,w"
        assert len([ln for ln in lines if ln]) == 6
        first = lines[1].split(",")
        assert float(first[7]) == pytest.approx(0.2)

    def test_budget_series(self, tmp_path):
        budgets = [
            EnergyBudget(t=0.0, m2=1.0, grad_term=0.1, friction_term=0.2, gravity_term=0.3, dm2_dt=0.4),
            EnergyBudget(t=0.1, m2=0.9, grad_term=0.1, friction_term=0.2, gravity_term=0.3, dm2_dt=0.2),
        ]
        path = tmp_path / "budget.csv"
        save_budget_csv(budgets, path)
        lines = path.read_bytes().decode().split("\r\n")
        assert lines[0] == "t,m2,grad_term,friction_term,gravity_term,residual"
        row = lines[1].split(",")
        assert float(row[5]) == pytest.approx(0.2 + 0.1 + 0.2 - 0.3)
