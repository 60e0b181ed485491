import numpy as np
import pytest

from conftest import whole_fluid
from sedlab import kinetic
from sedlab.errors import DomainExhaustedError
from sedlab.kernels import GridSpec
from sedlab.kinetic import (
    EnergyBudget,
    FieldHistory,
    PhaseCloud,
    energy_budget,
    finalize_budgets,
    jacobian_check,
    relaxation_push,
    replay_flow,
    save_budget_csv,
    vlasov_step,
)
from sedlab.transport import SpatialCloud

GRAVITY = np.array([0.0, 0.0, -1.0])
# interior |residual| / term scale of the coupled budget run below; measured there: the model
# at most 3.8e-4, a push with g + 0.8 u at least 1.8e-3, and one with g alone at least 7.5e-3
BUDGET_GATE = 1e-3


def gaussian_cloud(n, lam, seed, sigma_x=1.5, sigma_v=0.3, box=16.0, v_mean=None):
    rng = np.random.default_rng(seed)
    x = box / 2 + sigma_x * rng.standard_normal((n, 3))
    v_mean = GRAVITY if v_mean is None else np.asarray(v_mean)
    v = v_mean + sigma_v * rng.standard_normal((n, 3))
    w = np.full(n, 1.0 / n)
    return PhaseCloud(x=x, v=v, w=w, lam=lam, gravity=GRAVITY)


CLOUDS = (PhaseCloud, SpatialCloud)


def two_samples(kind, x=None, v=None, w=None, gravity=GRAVITY, lam=1.0):
    """A two-sample cloud of `kind` at (8, 8, 8), with any of its arrays replaced."""
    fields = {
        "x": np.zeros((2, 3)) + 8.0 if x is None else x,
        "w": np.full(2, 0.5) if w is None else w,
        "gravity": gravity,
    }
    if kind is PhaseCloud:
        fields.update(v=np.zeros((2, 3)) if v is None else v, lam=lam)
    return kind(**fields)


class TestPhaseCloud:
    # each admissibility check is shared with SpatialCloud, so each runs on both types

    def test_weights_must_sum_to_one(self):
        for kind in CLOUDS:
            with pytest.raises(ValueError, match="sum to 1"):
                two_samples(kind, w=np.array([0.5, 0.6]))

    def test_negative_weight_rejected(self):
        for kind in CLOUDS:
            with pytest.raises(ValueError, match="nonnegative"):
                two_samples(kind, w=np.array([1.5, -0.5]))

    def test_shape_mismatch_rejected(self):
        for kind in CLOUDS:
            with pytest.raises(ValueError, match=r"\(N, 3\)"):
                two_samples(kind, x=np.zeros((2, 2)) + 8.0)
            with pytest.raises(ValueError, match="weight vector"):
                two_samples(kind, w=np.full(3, 1.0 / 3.0))
        with pytest.raises(ValueError, match="matching"):
            two_samples(PhaseCloud, v=np.zeros((3, 3)))

    def test_gravity_must_be_unit(self):
        for kind in CLOUDS:
            for gravity in (np.array([0.0, 0.0, -2.0]), np.zeros(3), np.array([0.0, -1.0])):
                with pytest.raises(ValueError, match="unit"):
                    two_samples(kind, gravity=gravity)

    def test_nonfinite_rejected(self):
        x = np.zeros((2, 3)) + 8.0
        x[1, 2] = np.inf
        for kind in CLOUDS:
            with pytest.raises(ValueError, match="positions must be finite"):
                two_samples(kind, x=x)
        v = np.zeros((2, 3))
        v[0, 0] = np.nan
        with pytest.raises(ValueError, match="velocities must be finite"):
            two_samples(PhaseCloud, v=v)

    def test_lam_must_be_positive(self):
        with pytest.raises(ValueError, match="lam"):
            two_samples(PhaseCloud, lam=0.0)

    def test_arrays_stored_as_float(self):
        for kind in CLOUDS:
            cloud = two_samples(kind, x=np.full((2, 3), 8), w=[0.5, 0.5], gravity=[0, 0, -1])
            assert cloud.x.dtype == cloud.w.dtype == cloud.gravity.dtype == np.float64


class TestStep:
    def test_decoupled_relaxation_matches_closed_form(self):
        # with u = 0 the integrator is exact: after total time t,
        # v = g + (v0 - g) e^{-lam t},  x = x0 + t g + (1 - e^{-lam t})(v0 - g)/lam
        for lam, dt in [(5.0, 0.1), (50.0, 0.1)]:
            cloud = gaussian_cloud(64, lam, seed=7)
            x, v = x0, v0 = cloud.x, cloud.v
            for _ in range(5):
                x, v = relaxation_push(x, v, GRAVITY, lam, dt)
            t = 5 * dt
            decay = np.exp(-lam * t)
            v_exact = GRAVITY + decay * (v0 - GRAVITY)
            x_exact = x0 + t * GRAVITY + (1.0 - decay) / lam * (v0 - GRAVITY)
            assert np.allclose(v, v_exact, rtol=0.0, atol=1e-12)
            assert np.allclose(x, x_exact, rtol=0.0, atol=1e-12)

    def test_tiers_share_one_relaxation_push(self):
        # micro.step with w = 0 and replay_flow through an empty field
        # take the same exact push as the u = 0 relaxation toward g
        from sedlab.micro import ParticleEnsemble, step

        cloud = gaussian_cloud(12, 9.0, seed=4)
        dt = 0.03
        ens = ParticleEnsemble(x=cloud.x, v=cloud.v, lam=cloud.lam, gravity=GRAVITY)
        particles = step(ens, dt, w=np.zeros_like(ens.v))
        pushed_x, pushed_v = relaxation_push(cloud.x, cloud.v, GRAVITY, cloud.lam, dt)
        history = FieldHistory([], [], [])
        history.append(dt, None, 0.0)
        for i in range(cloud.n):
            x, v = replay_flow(history, cloud.x[i], cloud.v[i], GRAVITY, cloud.lam)
            assert np.array_equal(x, pushed_x[i]) and np.array_equal(v, pushed_v[i])
        assert np.array_equal(particles.x, pushed_x)
        assert np.array_equal(particles.v, pushed_v)

    def test_weights_and_mass_preserved(self):
        grid = GridSpec(16.0, 16)
        cloud = gaussian_cloud(200, 10.0, seed=3)
        out, _, _ = vlasov_step(cloud, grid, 0.01)
        assert np.array_equal(out.w, cloud.w)
        assert out.w.sum() == pytest.approx(1.0, abs=1e-12)

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

    def test_outgrowing_the_grid_raises_domain_error(self):
        # h = 1: two groups far below the old box, 13 cells apart along z and
        # flying apart; the stencils span 15 cells, then more than the grid's 16
        grid = GridSpec(16.0, 16)
        n = 8
        x = np.zeros((n, 3)) + 8.0
        x[:, 0] += 0.25 * np.arange(n)
        x[:, 2] = np.where(np.arange(n) < n // 2, -60.0, -47.0)
        v = GRAVITY + np.where(np.arange(n) < n // 2, 5.0, -5.0)[:, None] * GRAVITY  # lower group down, upper up
        cloud = PhaseCloud(x=x, v=v, w=np.full(n, 1.0 / n), lam=2.0, gravity=GRAVITY)
        out, fluid, _ = vlasov_step(cloud, grid, 0.5)  # 16 cells on a side, from z cell -61
        assert fluid.window.spec.n == 16 and fluid.window.origin[2] == -61
        with pytest.raises(DomainExhaustedError, match="span 18 cells"):
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

    @staticmethod
    def coupled_budgets():
        """The finalized budget series of a 16-step coupled run at 32^3 with 2000 samples."""
        grid = GridSpec(16.0, 32)
        lam, dt, steps = 10.0, 1.0 / 160.0, 16
        cloud = gaussian_cloud(2000, lam, seed=33, sigma_v=0.4)
        budgets = []
        warm = None
        for _ in range(steps):
            cloud, fluid, budget = vlasov_step(cloud, grid, dt, tol=1e-10, u0=warm)
            warm = fluid
            budgets.append(budget)
        final_m2 = float(cloud.w @ np.sum(cloud.v**2, axis=1))
        return finalize_budgets(budgets, final_m2, dt)

    def test_budget_closes_along_a_coupled_run(self):
        # the discrete energy identity: interior residuals stay below 2%
        # of the summed term magnitudes
        budgets = self.coupled_budgets()
        assert all(np.isfinite(b.residual) for b in budgets)
        for b in budgets:
            assert abs(b.residual) <= 0.02 * b.term_scale, f"t={b.t}: {b.residual} vs {b.term_scale}"

    @pytest.mark.parametrize("s", [1.0, 0.8, 0.0], ids=["model", "push-0.8u", "push-without-u"])
    def test_interior_budget_fails_a_push_off_the_fluid(self, monkeypatch, s):
        # the push reads g + s u.  grad_term pairs the solve's u with its force, which
        # equals the sample-side lam int u . (v - u) df, so the identity closes only at s = 1;
        # the first step is left out, its one-sided dM2/dt stencil reads 7.5e-4 on the model
        push = kinetic.relaxation_push
        monkeypatch.setattr(kinetic, "relaxation_push",
                            lambda x, v, drift, lam, dt: push(x, v, GRAVITY + s * (drift - GRAVITY), lam, dt))
        rels = [abs(b.residual) / b.term_scale for b in self.coupled_budgets()[1:]]
        if s == 1.0:
            assert max(rels) <= BUDGET_GATE
        else:
            assert min(rels) > BUDGET_GATE

    def test_pairing_is_the_whole_space_dirichlet_energy(self, monkeypatch):
        # one cloud at h = 1/2, centred in boxes of side 16, 32 and 48: the pairing h^3 <u, f>
        # stays put, while the box quadrature of |grad u|^2 drops a far-field tail of order 1/L
        from collections import OrderedDict

        from sedlab import kernels as K

        monkeypatch.setattr(K, "_OPERATOR_CACHE", OrderedDict())  # the tables go with the test
        rng = np.random.default_rng(5)
        z, v = 1.5 * rng.standard_normal((2000, 3)), GRAVITY + 0.2 * rng.standard_normal((2000, 3))
        boxes = np.array([16.0, 32.0, 48.0])
        pairs, quadratures = [], []
        for box in boxes:
            cloud = PhaseCloud(x=box / 2 + z, v=v, w=np.full(2000, 1 / 2000), lam=10.0, gravity=GRAVITY)
            window = K.stencil_window(GridSpec(box, int(2 * box)), cloud.x)
            fluid = K.brinkman_solve(*K.deposit(cloud, window), window, tol=1e-12)
            u = fluid.at(cloud.x)
            sample_side = float(cloud.w @ np.sum(u * (cloud.v - u), axis=1))
            assert fluid.dirichlet_energy == pytest.approx(sample_side, rel=1e-4)  # measured 4.8e-5
            pairs.append(fluid.dirichlet_energy)
            quadratures.append(whole_fluid(fluid).box_energy)
        ratios = np.array(pairs) / quadratures
        assert pairs == pytest.approx([pairs[0]] * 3, rel=1e-12)
        assert ratios[0] > ratios[1] > ratios[2] > 1.0  # measured 1.515, 1.213, 1.134
        # what the largest box leaves is the tail: the quadrature extrapolated in 1/L and 1/L^2
        # meets the pairing (measured 3.4e-4 apart), so the blob term and the finite-difference
        # gradient together move the energy by less than that
        limit = np.linalg.solve(np.c_[np.ones(3), 1.0 / boxes, 1.0 / boxes**2], quadratures)[0]
        assert limit == pytest.approx(pairs[0], rel=1e-3)

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
            if coupling:
                out, fluid, _ = vlasov_step(out, grid, dt, tol=1e-10)
                fluid = whole_fluid(fluid)  # the frozen field off the window too
                history.append(dt, fluid, fluid.grad_sup_norm)
            else:  # u = 0: replay_flow pushes through a None field by g alone
                history.append(dt, None, 0.0)
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
        assert out.time == pytest.approx(steps * dt, abs=1e-15)
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
