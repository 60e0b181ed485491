from types import SimpleNamespace

import numpy as np
import pytest

from conftest import full_window
from sedlab.kernels import GridSpec, deposit, stencil_window, stokes_solve
from sedlab.metrics import wasserstein2_exact
from sedlab.transport import (
    SpatialCloud,
    steady_velocity_field,
    transport_step,
)

GRAVITY = np.array([0.0, 0.0, -1.0])


def gaussian_cloud(n, seed, sigma=1.5, box=16.0):
    rng = np.random.default_rng(seed)
    x = box / 2 + sigma * rng.standard_normal((n, 3))
    return SpatialCloud(x=x, w=np.full(n, 1.0 / n), gravity=GRAVITY)


def field_on(cloud, window):
    """The steady field of the cloud's density, deposited and solved on a window."""
    return stokes_solve(deposit(cloud, window)[0], window, cloud.gravity)


class TestSpatialCloud:
    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SpatialCloud(x=np.zeros((2, 3)) + 8.0, w=np.array([0.7, 0.7]), gravity=GRAVITY)

    def test_gravity_must_be_unit(self):
        with pytest.raises(ValueError, match="unit"):
            SpatialCloud(x=np.zeros((1, 3)) + 8.0, w=np.ones(1), gravity=np.zeros(3))

    def test_dt_must_be_positive(self):
        cloud = gaussian_cloud(4, seed=0)
        with pytest.raises(ValueError, match="dt"):
            transport_step(cloud, GridSpec(16.0, 16), -0.1)


class TestSteadyField:
    def test_zero_density_gives_zero_field(self):
        empty = SimpleNamespace(x=np.zeros((0, 3)), w=np.zeros(0), gravity=GRAVITY)
        fluid = steady_velocity_field(empty, GridSpec(16.0, 16))
        assert np.all(fluid.velocity == 0.0)
        assert fluid.grad_sup_norm == 0.0

    def test_single_bump_symmetries(self):
        # one sample in one cell: mirroring across the horizontal plane
        # through the source negates the transverse components and fixes
        # the vertical one
        grid = GridSpec(16.0, 32)
        x = np.array([[8.25, 8.25, 8.25]])  # center of cell (16, 16, 16)
        cloud = SpatialCloud(x=x, w=np.ones(1), gravity=GRAVITY)
        fluid = field_on(cloud, full_window(grid))
        u = fluid.velocity
        assert fluid.grad_sup_norm > 0.0
        windowed = steady_velocity_field(cloud, grid)
        assert windowed.window.spec.n == 8  # the window of the one stencil, which it solves on
        assert np.abs(windowed.velocity - u[windowed.window.cells]).max() <= 1e-13 * np.abs(u).max()
        # index mirror about k = 16 maps k -> 32 - k, valid for k in [1, 31]
        sub = u[:, :, 1:, :]
        flipped = u[:, :, 31:0:-1, :]
        scale = np.abs(u).max()
        assert np.allclose(flipped[..., 0], -sub[..., 0], atol=1e-13 * scale)
        assert np.allclose(flipped[..., 1], -sub[..., 1], atol=1e-13 * scale)
        assert np.allclose(flipped[..., 2], sub[..., 2], atol=1e-13 * scale)

    def test_mirrored_bumps_give_mirrored_field(self):
        # two equal bumps placed symmetrically about a gravity-normal plane
        grid = GridSpec(16.0, 32)
        x = np.array([[8.25, 8.25, 6.25], [8.25, 8.25, 9.75]])  # cells k=12 and k=19
        cloud = SpatialCloud(x=x, w=np.full(2, 0.5), gravity=GRAVITY)
        u = field_on(cloud, full_window(grid)).velocity
        flipped = u[:, :, ::-1, :]  # k -> 31 - k, the mirror across z = 8
        scale = np.abs(u).max()
        assert np.allclose(flipped[..., 0], -u[..., 0], atol=1e-13 * scale)
        assert np.allclose(flipped[..., 1], -u[..., 1], atol=1e-13 * scale)
        assert np.allclose(flipped[..., 2], u[..., 2], atol=1e-13 * scale)

    def test_field_difference_lipschitz_in_wasserstein(self):
        # ||u1 - u2||_{L^2(sigma1)} / W2(sigma1, sigma2) stays bounded and
        # nearly constant along a one-parameter perturbation family
        grid = GridSpec(16.0, 32)
        base = gaussian_cloud(128, seed=11, sigma=1.2)
        rng = np.random.default_rng(7)
        direction = rng.standard_normal(base.x.shape)
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        u1 = steady_velocity_field(base, grid).at(base.x)
        ratios = []
        for delta in (0.05, 0.1, 0.2, 0.4):
            moved = SpatialCloud(x=base.x + delta * direction, w=base.w, gravity=GRAVITY)
            # read at base.x, so solved on the window of both clouds' stencils
            u2 = field_on(moved, stencil_window(grid, np.vstack([base.x, moved.x]))).at(base.x)
            du = u1 - u2
            l2 = np.sqrt(base.w @ np.sum(du**2, axis=1))
            w2 = wasserstein2_exact(base, moved).distance
            ratios.append(l2 / w2)
        ratios = np.array(ratios)
        assert np.all(ratios < 10.0)
        assert ratios.max() <= 2.0 * ratios.min()


class TestTransportStep:
    def test_single_sample_falls_faster_than_gravity(self):
        grid = GridSpec(16.0, 32)
        cloud = SpatialCloud(x=np.array([[8.25, 8.25, 8.25]]), w=np.ones(1), gravity=GRAVITY)
        dt = 0.01
        out = transport_step(cloud, grid, dt)
        disp = (out.x - cloud.x)[0] / dt
        assert disp[2] < -1.0  # the self-induced flow adds to the fall speed
        assert abs(disp[0]) < 1e-12 and abs(disp[1]) < 1e-12
        assert out.time == pytest.approx(dt)

    def test_uniform_subbox_translates(self):
        # samples on the cell lattice of a sub-box deposit an exactly
        # uniform density; transverse symmetry pins the drift to gravity
        # plus the mean vertical flow, and the blob stays nearly rigid
        box = 16.0
        grid = GridSpec(box, 32)
        h = grid.h
        idx = np.arange(10, 22)  # 12-cell cube centered in the box
        cx, cy, cz = np.meshgrid(idx, idx, idx, indexing="ij")
        x = np.column_stack([(c.ravel() + 0.5) * h for c in (cx, cy, cz)])
        n = x.shape[0]
        cloud = SpatialCloud(x=x, w=np.full(n, 1.0 / n), gravity=GRAVITY)
        dt = 0.01
        out = transport_step(cloud, grid, dt)
        disp = out.x - cloud.x
        com = disp.mean(axis=0) / dt
        assert abs(com[0]) < 1e-12 and abs(com[1]) < 1e-12
        assert com[2] < -1.0
        # rigidity up to the internal velocity spread, which is small
        # against the settling speed
        assert np.abs(disp - disp.mean(axis=0)).max() <= 0.1 * dt

    def test_mass_and_weights_conserved(self):
        grid = GridSpec(16.0, 32)
        cloud = gaussian_cloud(400, seed=3)
        out = transport_step(cloud, grid, 0.02)
        assert np.array_equal(out.w, cloud.w)
        rho, _ = deposit(out, stencil_window(grid, out.x))
        assert float(rho.sum()) * grid.cell_volume == pytest.approx(1.0, rel=1e-12)

    def test_divergence_free_flow_preserves_density_norms(self):
        # Gaussian-weighted lattice: smooth deposits, so the grid L^p
        # norms move only by discretization error over a short horizon
        box = 16.0
        grid = GridSpec(box, 32)
        c = grid.centers()
        gx, gy, gz = np.meshgrid(c, c, c, indexing="ij")
        points = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
        r2 = np.sum((points - box / 2) ** 2, axis=1)
        keep = r2 < 6.0**2
        x = points[keep]
        w = np.exp(-r2[keep] / (2 * 1.5**2))
        w /= w.sum()
        cloud = SpatialCloud(x=x, w=w, gravity=GRAVITY)

        def norms(c):
            rho, _ = deposit(c, stencil_window(grid, c.x))
            return {
                p: (np.sum(np.abs(rho) ** p) * grid.cell_volume) ** (1.0 / p)
                for p in (4.0 / 3.0, 2.0, 4.0)
            }

        before = norms(cloud)
        for _ in range(4):
            cloud = transport_step(cloud, grid, 0.02)
        after = norms(cloud)
        for p in before:
            assert after[p] == pytest.approx(before[p], rel=1e-2)

    def test_second_order_self_convergence(self):
        grid = GridSpec(16.0, 32)
        start = gaussian_cloud(300, seed=5)
        horizon = 0.16

        def advance(dt):
            c = start
            for _ in range(round(horizon / dt)):
                c = transport_step(c, grid, dt)
            return c.x

        x1, x2, x4 = advance(0.02), advance(0.01), advance(0.005)
        e1 = np.abs(x1 - x2).max()
        e2 = np.abs(x2 - x4).max()
        assert 3.2 <= e1 / e2 <= 4.8
