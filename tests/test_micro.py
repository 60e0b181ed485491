import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from sedlab import micro
from sedlab.errors import CollisionError, ConvergenceError
from sedlab.harness.config import DEFAULTS
from sedlab.kernels import oseen_tensor
from sedlab.micro import (
    DENSE_FALLBACK_CAP,
    PAIR_BLOCK_BYTES,
    AssumptionReport,
    ParticleEnsemble,
    check_assumptions,
    forces,
    h3_ratio,
    implicit_velocities,
    pairwise_min_distance,
    stats,
    step,
    _interaction_matrix,
    _PairKernel,
)

GRAVITY = np.array([0.0, 0.0, -1.0])
C_V = DEFAULTS["initial"]["c_v"]


def dense_closure(ens):
    """Direct solve of (I + M/N) w = (M/N) V."""
    n = ens.n
    phi = oseen_tensor(ens.x[:, None, :] - ens.x[None, :, :])
    mat = phi.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n) / n
    w = np.linalg.solve(np.eye(3 * n) + mat, mat @ ens.v.reshape(-1))
    return w.reshape(n, 3)


def random_ensemble(rng, n, lam=5.0, spread=2.0, vscale=1.0):
    while True:
        x = rng.uniform(0.0, spread, size=(n, 3))
        if pairwise_min_distance(x) > 2.0 / (6.0 * np.pi * n) + 1e-3:
            break
    v = rng.normal(scale=vscale, size=(n, 3))
    return ParticleEnsemble(x=x, v=v, lam=lam, gravity=GRAVITY)


class TestMinDistance:
    @pytest.mark.parametrize("n", [2, 3, 17, 400])
    def test_matches_brute_force(self, n):
        x = np.random.default_rng(n).uniform(0.0, 3.0, size=(n, 3))
        d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
        d[np.diag_indices(n)] = np.inf
        assert pairwise_min_distance(x) == d.min()

    def test_fewer_than_two_points(self):
        assert pairwise_min_distance(np.empty((0, 3))) == np.inf
        assert pairwise_min_distance(np.ones((1, 3))) == np.inf

    def test_duplicate_points(self):
        x = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        assert pairwise_min_distance(x) == 0.0


class TestParticleEnsemble:
    def test_radius_coupling_default(self):
        ens = random_ensemble(np.random.default_rng(0), 10)
        assert ens.radius == pytest.approx(1.0 / (6.0 * np.pi * 10), rel=1e-15)
        assert ens.n == 10

    def test_radius_coupling_enforced(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 2, size=(4, 3))
        with pytest.raises(ValueError):
            ParticleEnsemble(x=x, v=np.zeros((4, 3)), lam=1.0, gravity=GRAVITY, radius=0.1)
        loose = ParticleEnsemble(
            x=x, v=np.zeros((4, 3)), lam=1.0, gravity=GRAVITY, radius=0.01, h1=False
        )
        assert loose.radius == 0.01

    def test_gravity_must_be_unit(self):
        with pytest.raises(ValueError):
            ParticleEnsemble(
                x=np.zeros((1, 3)), v=np.zeros((1, 3)), lam=1.0, gravity=np.array([0.0, 0.0, -2.0])
            )

    def test_contact_rejected_with_state(self):
        x = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1e-4]])
        with pytest.raises(CollisionError) as err:
            ParticleEnsemble(x=x, v=np.zeros((2, 3)), lam=1.0, gravity=GRAVITY)
        assert err.value.ensemble is not None
        assert err.value.ensemble.n == 2


class TestPairKernel:
    @pytest.mark.parametrize("offset", [8.0, 1e3])
    @pytest.mark.parametrize("n", [2, 3, 64, 500, 2000])
    def test_matches_dense_matrix(self, n, offset):
        rng = np.random.default_rng(n)
        x = offset + 1.5 * rng.standard_normal((n, 3))
        q = rng.standard_normal((n, 3))
        dense = (_interaction_matrix(x) @ q.reshape(-1)).reshape(n, 3)
        assert np.abs(_PairKernel(x).apply(q) - dense).max() <= 1e-11 * np.abs(dense).max()

    def test_near_contact_pair(self):
        radius = 1.0 / (6.0 * np.pi * 2)
        x = np.array([[1e3, 1e3, 1e3], 1e3 + 2.01 * radius * np.array([1.0, 2.0, 2.0]) / 3.0])
        ParticleEnsemble(x=x, v=np.zeros((2, 3)), lam=1.0, gravity=GRAVITY)  # no contact
        q = np.array([[0.3, -1.0, 0.2], [1.0, 0.5, -0.7]])
        dense = (_interaction_matrix(x) @ q.reshape(-1)).reshape(2, 3)
        assert np.abs(_PairKernel(x).apply(q) - dense).max() <= 1e-11 * np.abs(dense).max()


class TestImplicitVelocities:
    def test_single_particle(self):
        ens = ParticleEnsemble(
            x=np.zeros((1, 3)), v=np.array([[1.0, 0.0, 0.0]]), lam=1.0, gravity=GRAVITY
        )
        assert np.array_equal(implicit_velocities(ens), np.zeros((1, 3)))

    def test_symmetric_pair_equal_ambient(self):
        x = np.array([[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
        v = np.tile(GRAVITY, (2, 1))
        ens = ParticleEnsemble(x=x, v=v, lam=5.0, gravity=GRAVITY)
        w = implicit_velocities(ens)
        assert np.allclose(w[0], w[1], atol=1e-14)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(1234)
        for n in (2, 8, 16, 64):
            for _ in range(3):
                ens = random_ensemble(rng, n)
                w = implicit_velocities(ens)
                assert np.max(np.abs(w - dense_closure(ens))) < 1e-10

    def test_residual_postcondition(self):
        rng = np.random.default_rng(5)
        ens = random_ensemble(rng, 32)
        tol = 1e-12
        w = implicit_velocities(ens, tol=tol)
        phi = oseen_tensor(ens.x[:, None, :] - ens.x[None, :, :])
        target = np.einsum("ijab,jb->ia", phi, ens.v - w) / ens.n
        residual = np.max(np.linalg.norm(w - target, axis=1))
        assert residual <= tol * (1.0 + np.max(np.linalg.norm(ens.v, axis=1)))

    def test_deterministic(self):
        ens = random_ensemble(np.random.default_rng(6), 16)
        assert np.array_equal(implicit_velocities(ens), implicit_velocities(ens))

    def test_dense_fallback_after_missed_iterations(self):
        ens = random_ensemble(np.random.default_rng(17), 40)
        assert ens.n <= DENSE_FALLBACK_CAP
        w = implicit_velocities(ens, max_iter=1)
        assert np.max(np.abs(w - dense_closure(ens))) < 1e-10

    def test_miss_above_fallback_cap_raises(self):
        ens = random_ensemble(np.random.default_rng(18), DENSE_FALLBACK_CAP + 1)
        with pytest.raises(ConvergenceError) as err:
            implicit_velocities(ens, max_iter=1)
        assert err.value.iterations == 1
        assert np.isfinite(err.value.residual) and err.value.residual > 0.0


class TestForces:
    def test_force_free_suspension(self):
        ens = random_ensemble(np.random.default_rng(2), 8)
        w = ens.v.copy()
        assert np.array_equal(forces(ens, w), np.zeros_like(ens.v))

    def test_single_settling_sphere(self):
        ens = ParticleEnsemble(
            x=np.zeros((1, 3)), v=GRAVITY.reshape(1, 3), lam=1.0, gravity=GRAVITY
        )
        f = forces(ens, implicit_velocities(ens))
        assert np.allclose(f[0], 6.0 * np.pi * ens.radius * GRAVITY, atol=1e-15)

    def test_radius_coupling_identity(self):
        # N F_i = V_i - w_i under the 1/(6 pi N) radius
        rng = np.random.default_rng(3)
        ens = random_ensemble(rng, 12)
        w = implicit_velocities(ens)
        f = forces(ens, w)
        assert np.allclose(ens.n * f, ens.v - w, atol=1e-14)

    def test_momentum_bookkeeping(self):
        # sum of V'/lam equals N g + sum (w - V) identically
        rng = np.random.default_rng(4)
        ens = random_ensemble(rng, 20)
        w = implicit_velocities(ens)
        vdot = ens.lam * (ens.gravity[None, :] + w - ens.v)
        lhs = vdot.sum(axis=0) / ens.lam
        rhs = ens.n * ens.gravity + (w - ens.v).sum(axis=0)
        assert np.allclose(lhs, rhs, atol=1e-11)

    def test_shape_mismatch(self):
        ens = random_ensemble(np.random.default_rng(7), 4)
        with pytest.raises(ValueError):
            forces(ens, np.zeros((3, 3)))


class TestStep:
    def test_single_particle_relaxation(self):
        ens = ParticleEnsemble(
            x=np.zeros((1, 3)), v=np.zeros((1, 3)), lam=10.0, gravity=GRAVITY
        )
        out = step(ens, 0.1)
        assert np.allclose(out.v[0], (1.0 - np.exp(-1.0)) * GRAVITY, atol=1e-15)
        assert out.time == pytest.approx(0.1)

    def test_relaxation_exact_at_stiff_steps(self):
        # the integrator is exact for the linear drag at any lam dt
        for lam_dt in (0.1, 1.0, 10.0):
            lam = 20.0
            dt = lam_dt / lam
            v0 = np.array([[0.3, -0.2, 0.5]])
            ens = ParticleEnsemble(x=np.zeros((1, 3)), v=v0, lam=lam, gravity=GRAVITY)
            out = step(ens, dt)
            exact_v = GRAVITY + (v0[0] - GRAVITY) * np.exp(-lam_dt)
            exact_x = dt * GRAVITY + (1.0 - np.exp(-lam_dt)) / lam * (v0[0] - GRAVITY)
            assert np.max(np.abs(out.v[0] - exact_v)) < 1e-12
            assert np.max(np.abs(out.x[0] - exact_x)) < 1e-12

    def test_instantaneous_relaxation_limit(self):
        rng = np.random.default_rng(8)
        ens = random_ensemble(rng, 6, lam=1000.0)
        w = implicit_velocities(ens)
        out = step(ens, 1.0)
        assert np.allclose(out.v, ens.gravity[None, :] + w, atol=1e-10)

    def test_zero_interaction_closed_form(self):
        rng = np.random.default_rng(9)
        ens = random_ensemble(rng, 10, lam=7.0)
        v0 = ens.v.copy()
        state = ens
        for _ in range(5):
            state = step(state, 0.02, w=np.zeros_like(state.v))
        exact = GRAVITY[None, :] + (v0 - GRAVITY[None, :]) * np.exp(-7.0 * 0.1)
        assert np.max(np.abs(state.v - exact)) < 1e-12

    def test_symmetric_pair_keeps_separation(self):
        x = np.array([[-0.4, 0.0, 0.0], [0.4, 0.0, 0.0]])
        v = np.tile(GRAVITY, (2, 1))
        state = ParticleEnsemble(x=x, v=v, lam=5.0, gravity=GRAVITY)
        sep0 = np.linalg.norm(state.x[1] - state.x[0])
        for _ in range(20):
            state = step(state, 0.02)
        assert abs(np.linalg.norm(state.x[1] - state.x[0]) - sep0) < 20 * 1e-10

    def test_collision_aborts_with_dump(self):
        x = np.array([[-0.05, 0.0, 0.0], [0.05, 0.0, 0.0]])
        v = np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
        ens = ParticleEnsemble(x=x, v=v, lam=1.0, gravity=GRAVITY)
        with pytest.raises(CollisionError) as err:
            step(ens, 0.1)
        assert err.value.ensemble is not None
        assert err.value.exit_code == 2

    def test_dt_validation(self):
        ens = random_ensemble(np.random.default_rng(10), 4)
        with pytest.raises(ValueError):
            step(ens, 0.0)


class TestStats:
    def test_two_particle_interaction_sum(self):
        h = 0.25
        x = np.array([[0.0, 0.0, 0.0], [h, 0.0, 0.0]])
        ens = ParticleEnsemble(x=x, v=np.zeros((2, 3)), lam=1.0, gravity=GRAVITY)
        out = stats(ens)
        assert out.d_min == pytest.approx(h, abs=1e-15)
        # i = j counts at d_min, so the row sum is 1/h + 1/h
        assert out.s_beta[1.0] * ens.n == pytest.approx(2.0 / h, rel=1e-14)

    def test_lattice_spacing(self):
        s = 0.3
        grid = np.stack(np.meshgrid(*[np.arange(3) * s] * 3, indexing="ij"), axis=-1)
        x = grid.reshape(-1, 3)
        ens = ParticleEnsemble(x=x, v=np.zeros((27, 3)), lam=1.0, gravity=GRAVITY)
        assert stats(ens).d_min == pytest.approx(s, rel=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        ens = random_ensemble(rng, 24)
        w = implicit_velocities(ens)
        f = forces(ens, w)
        out = stats(ens, force_values=f)
        n = ens.n
        dmin_ref = min(
            np.linalg.norm(ens.x[i] - ens.x[j])
            for i in range(n)
            for j in range(n)
            if i != j
        )
        assert out.d_min == pytest.approx(dmin_ref, abs=1e-15)
        for beta in (1.0, 2.25):
            rows = []
            for i in range(n):
                acc = dmin_ref ** (-beta)
                for j in range(n):
                    if j != i:
                        acc += np.linalg.norm(ens.x[i] - ens.x[j]) ** (-beta)
                rows.append(acc)
            assert out.s_beta[beta] == pytest.approx(max(rows) / n, rel=1e-12)
        assert out.v_moment9 == pytest.approx(
            np.mean(np.linalg.norm(ens.v, axis=1) ** 9), rel=1e-12
        )
        assert out.force_moment9 == pytest.approx(
            np.mean((n * np.linalg.norm(f, axis=1)) ** 9), rel=1e-12
        )

    # with 1024-row blocks: one block at 300; two full blocks and a partial one at 2100
    @pytest.mark.parametrize("n", [300, 2100])
    def test_row_blocks_match_full_matrix(self, monkeypatch, n):
        monkeypatch.setattr(micro, "PAIR_BLOCK_BYTES", 8 * 1024 * n)
        ens = random_ensemble(np.random.default_rng(19), n)
        d = cdist(ens.x, ens.x)
        d_min = float(d[~np.eye(n, dtype=bool)].min())
        np.fill_diagonal(d, d_min)
        s_beta = {beta: float(np.max(np.sum(d ** (-beta), axis=1))) / n for beta in (1.0, 2.25)}
        out = stats(ens)
        assert out.d_min == d_min
        assert out.s_beta == s_beta

    def test_pair_scans_keep_to_the_block_budget(self, monkeypatch):
        n = 3000
        ens = random_ensemble(np.random.default_rng(23), n)
        peaks = []
        tracemalloc.start()
        try:
            for scan in (lambda: h3_ratio(ens.x, ens.v, ens.lam), lambda: stats(ens)):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                peaks.append((scan(), tracemalloc.get_traced_memory()[1] - base))
        finally:
            tracemalloc.stop()
        (ratio, ratio_peak), (out, stats_peak) = peaks
        assert ratio_peak < 4 * PAIR_BLOCK_BYTES and stats_peak < 4 * PAIR_BLOCK_BYTES
        # many blocks give bitwise the one-block result
        assert n // micro._pair_rows(n) > 20
        monkeypatch.setattr(micro, "PAIR_BLOCK_BYTES", 8 * n * n)
        assert ratio == h3_ratio(ens.x, ens.v, ens.lam)
        one_block = stats(ens)
        assert out.d_min == one_block.d_min and out.s_beta == one_block.s_beta

    def test_missing_forces_reported_nan(self):
        ens = random_ensemble(np.random.default_rng(12), 4)
        assert np.isnan(stats(ens).force_moment9)


class TestAssumptions:
    def test_monokinetic_satisfies_h3(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(0, 2, size=(16, 3))
        v = np.tile(np.array([0.1, 0.0, -0.9]), (16, 1))
        ens = ParticleEnsemble(x=x, v=v, lam=2.0, gravity=GRAVITY)
        report = check_assumptions(ens, C_V)
        assert report.h3 and report.h3_ratio == 0.0
        assert report.h1

    def test_fast_pair_violates_h3(self):
        x = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        v = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 4.0]])
        ens = ParticleEnsemble(x=x, v=v, lam=2.0, gravity=GRAVITY)
        report = check_assumptions(ens, C_V)
        assert not report.h3
        assert report.h3_ratio == pytest.approx(4.0, rel=1e-12)

    def test_h4_moment_bound(self):
        x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        slow = ParticleEnsemble(x=x, v=np.full((2, 3), 0.1), lam=2.0, gravity=GRAVITY)
        report = check_assumptions(slow, c_v=10.0)
        speeds = np.linalg.norm(slow.v, axis=1)
        assert report.h4_value == pytest.approx(np.mean(speeds**9) + speeds.max() / 2.0)
        assert report.h4
        fast = ParticleEnsemble(x=x, v=np.full((2, 3), 5.0), lam=2.0, gravity=GRAVITY)
        assert not check_assumptions(fast, c_v=10.0).h4

    def test_h1_reported_false_for_decoupled_radius(self):
        x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        ens = ParticleEnsemble(
            x=x, v=np.zeros((2, 3)), lam=1.0, gravity=GRAVITY, radius=0.05, h1=False
        )
        assert not check_assumptions(ens, C_V).h1
