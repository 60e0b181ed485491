import numpy as np
import pytest

from sedlab import kernels as K
from sedlab.errors import ConvergenceError, DomainExhaustedError

RNG = np.random.default_rng(20260816)


def random_points(m, scale=2.0, rng=RNG):
    return rng.standard_normal((m, 3)) * scale


class TestOseenTensor:
    def test_unit_axis_values(self):
        P = K.oseen_tensor(np.array([1.0, 0.0, 0.0]))
        assert abs(P[0, 0] - 1.0 / (4 * np.pi)) < 1e-16
        assert abs(P[1, 1] - 1.0 / (8 * np.pi)) < 1e-16
        assert abs(P[2, 2] - 1.0 / (8 * np.pi)) < 1e-16
        off = P - np.diag(np.diag(P))
        assert np.abs(off).max() == 0.0

    def test_origin_is_zero(self):
        assert np.all(K.oseen_tensor(np.zeros(3)) == 0.0)

    def test_identities_random(self):
        # symmetry, evenness, -1 homogeneity, trace
        xs = random_points(1000)
        P = K.oseen_tensor(xs)
        assert np.abs(P - np.swapaxes(P, -1, -2)).max() < 1e-13
        assert np.abs(P - K.oseen_tensor(-xs)).max() < 1e-13
        lam = 2.37
        assert np.abs(K.oseen_tensor(lam * xs) - P / lam).max() < 1e-13
        r = np.linalg.norm(xs, axis=-1)
        tr = P[..., 0, 0] + P[..., 1, 1] + P[..., 2, 2]
        assert np.abs(tr - 1.0 / (2 * np.pi * r)).max() < 1e-13

    def test_positive_semidefinite_sample(self):
        # mobility kernel: y . Phi(x) y >= 0
        xs = random_points(200)
        ys = random_points(200, scale=1.0)
        q = np.einsum("na,nab,nb->n", ys, K.oseen_tensor(xs), ys)
        assert q.min() >= 0.0


class TestOseenRegularized:
    def test_exact_outside_core(self):
        eps = 0.13
        for r in (4 * eps, 4.5 * eps, 10 * eps, 100 * eps):
            x = np.array([0.6, 0.64, 0.48]) * r  # unit direction times r
            d = np.abs(K.oseen_regularized(x, eps) - K.oseen_tensor(x)).max()
            assert d < 1e-15

    def test_origin_value(self):
        # slope 2 of the quintic at u = 0 gives exactly I / (4 pi eps)
        for eps in (0.05, 0.31, 2.0):
            Z = K.oseen_regularized(np.zeros(3), eps)
            assert np.abs(Z - np.eye(3) / (4 * np.pi * eps)).max() < 1e-14
            assert Z[0, 0] <= 1.0 / (4 * np.pi * eps) * (1 + 1e-12)

    def test_continuous_at_splice(self):
        eps = 0.1
        d = np.array([0.6, 0.64, 0.48])  # unit vector
        lo = K.oseen_regularized(d * (0.4 - 1e-9), eps)
        hi = K.oseen_regularized(d * (0.4 + 1e-9), eps)
        assert np.abs(lo - hi).max() < 1e-7

    def test_symmetric_and_even(self):
        xs = random_points(100, scale=0.3)
        P = K.oseen_regularized(xs, 0.1)
        assert np.abs(P - np.swapaxes(P, -1, -2)).max() < 1e-15
        assert np.abs(P - K.oseen_regularized(-xs, 0.1)).max() < 1e-15

    def test_eps_to_zero_consistency(self):
        x = np.array([0.3, -0.1, 0.2])
        P = K.oseen_tensor(x)
        errs = [
            np.abs(K.oseen_regularized(x, e) - P).max()
            for e in (0.2, 0.1, 0.05)
        ]
        # exact as soon as |x| >= 4 eps (different arithmetic path, so
        # allow rounding)
        assert errs[-1] < 1e-15

    def test_solenoidal_inside_core(self):
        # div of the regularized kernel columns vanishes identically;
        # check by central differences inside the core
        eps, dh = 0.25, 1e-6
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform(-0.9, 0.9, 3) * 4 * eps
            div = np.zeros(3)
            for a in range(3):
                e = np.zeros(3)
                e[a] = dh
                div += (
                    K.oseen_regularized(x + e, eps)[a] - K.oseen_regularized(x - e, eps)[a]
                ) / (2 * dh)
            assert np.abs(div).max() < 1e-6

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            K.oseen_regularized(np.ones(3), 0.0)


class TestGrids:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            K.GridSpec(1.0, 12)
        with pytest.raises(ValueError):
            K.GridSpec(1.0, 4)
        with pytest.raises(ValueError):
            K.GridSpec(-1.0, 16)
        s = K.GridSpec(8.0, 16)
        assert s.h == 0.5
        assert s.centers()[0] == 0.25

    def test_grid_io_roundtrip(self, tmp_path):
        spec = K.GridSpec(4.0, 8)
        vals = np.arange(8**3 * 3, dtype=float).reshape(8, 8, 8, 3)
        g = K.VectorGrid(spec, vals)
        p = tmp_path / "grid.bin"
        K.save_vector_grid(g, p)
        g2 = K.load_vector_grid(p)
        assert g2.spec == spec
        assert np.array_equal(g2.values, vals)

    def test_grid_csv(self, tmp_path):
        spec = K.GridSpec(4.0, 8)
        vals = np.zeros((8, 8, 8, 3))
        vals[1, 2, 3] = (0.1, -2.5, 1e-300)
        g = K.VectorGrid(spec, vals)
        p = tmp_path / "grid.csv"
        K.save_vector_grid_csv(g, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "i,j,k,ux,uy,uz"
        assert len(lines) == 1 + 8**3
        cells = lines[1 + (1 * 8 + 2) * 8 + 3].split(",")
        assert cells[:3] == ["1", "2", "3"]
        assert [float(c) for c in cells[3:]] == [0.1, -2.5, 1e-300]


class _Cloud:
    def __init__(self, x, w, v=None):
        self.x = x
        self.w = w
        if v is not None:
            self.v = v


class TestDepositInterpolate:
    spec = K.GridSpec(8.0, 16)

    def _cloud(self, m=200, rng=None):
        rng = rng or np.random.default_rng(3)
        x = rng.uniform(1.0, 7.0, (m, 3))
        w = rng.uniform(0.1, 1.0, m)
        w /= w.sum()
        v = rng.standard_normal((m, 3))
        return _Cloud(x, w, v)

    def test_mass_and_momentum_conserved(self):
        c = self._cloud()
        rho, j = K.deposit(c, self.spec)
        vol = self.spec.cell_volume
        assert abs(rho.values.sum() * vol - c.w.sum()) < 1e-12
        mom = (c.w[:, None] * c.v).sum(axis=0)
        assert np.abs(j.values.sum(axis=(0, 1, 2)) * vol - mom).max() < 1e-12

    def test_deposit_linearity(self):
        rng = np.random.default_rng(5)
        a, b = self._cloud(150, rng), self._cloud(150, rng)
        both = _Cloud(
            np.vstack([a.x, b.x]), np.hstack([a.w, b.w]), np.vstack([a.v, b.v])
        )
        ra, _ = K.deposit(a, self.spec)
        rb, _ = K.deposit(b, self.spec)
        rab, _ = K.deposit(both, self.spec)
        assert np.abs(rab.values - ra.values - rb.values).max() < 1e-12

    def test_point_mass_at_center_hits_one_cell(self):
        x0 = (np.array([4, 4, 4]) + 0.5) * self.spec.h
        rho, _ = K.deposit(_Cloud(x0[None, :], np.array([1.0])), self.spec)
        assert abs(rho.values[4, 4, 4] - 1.0 / self.spec.cell_volume) < 1e-12
        assert np.count_nonzero(rho.values) == 1

    def test_interpolate_exact_on_linear_fields(self):
        # trilinear stencil reproduces affine fields exactly away from faces
        A = np.array([[0.3, -0.2, 0.5], [1.0, 0.0, -0.4], [0.2, 0.9, 0.1]])
        b = np.array([0.5, -1.0, 2.0])
        cen = self.spec.centers()
        X, Y, Z = np.meshgrid(cen, cen, cen, indexing="ij")
        pos = np.stack([X, Y, Z], axis=-1)
        field = K.VectorGrid(self.spec, pos @ A.T + b)
        pts = np.random.default_rng(11).uniform(1.0, 7.0, (100, 3))
        got = K.interpolate(field, pts)
        assert np.abs(got - (pts @ A.T + b)).max() < 1e-10

    def test_adjointness(self):
        # sum_i w_i v_i . u(x_i) == int j . u for any field and cloud
        c = self._cloud(300)
        rng = np.random.default_rng(13)
        u = K.VectorGrid(self.spec, rng.standard_normal((16, 16, 16, 3)))
        _, j = K.deposit(c, self.spec)
        lhs = float(np.sum(c.w[:, None] * c.v * K.interpolate(u, c.x)))
        rhs = float((j.values * u.values).sum() * self.spec.cell_volume)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_out_of_box_raises(self):
        bad = _Cloud(np.array([[0.1, 4.0, 4.0]]), np.array([1.0]))
        with pytest.raises(DomainExhaustedError):
            K.deposit(bad, self.spec)
        with pytest.raises(DomainExhaustedError):
            K.interpolate(K.VectorGrid(self.spec, np.zeros((16, 16, 16, 3))), np.array([8.1, 1, 1]))

    def test_single_point_interface(self):
        u = K.VectorGrid(self.spec, np.ones((16, 16, 16, 3)))
        out = K.interpolate(u, np.array([4.0, 4.0, 4.0]))
        assert out.shape == (3,)
        assert np.abs(out - 1.0).max() < 1e-14


class TestStokesSolve:
    def test_zero_force_zero_velocity(self):
        spec = K.GridSpec(8.0, 16)
        st = K.stokes_solve(K.VectorGrid(spec, np.zeros((16, 16, 16, 3))))
        assert np.all(st.velocity.values == 0.0)
        assert st.grad_sup_norm == 0.0

    def test_linearity(self):
        spec = K.GridSpec(8.0, 16)
        rng = np.random.default_rng(2)
        f1 = rng.standard_normal((16, 16, 16, 3))
        f2 = rng.standard_normal((16, 16, 16, 3))
        u1 = K.stokes_solve(K.VectorGrid(spec, f1)).velocity.values
        u2 = K.stokes_solve(K.VectorGrid(spec, f2)).velocity.values
        u12 = K.stokes_solve(K.VectorGrid(spec, 2.0 * f1 - 3.0 * f2)).velocity.values
        assert np.abs(u12 - 2.0 * u1 + 3.0 * u2).max() < 1e-10 * max(1.0, np.abs(u12).max())

    def test_point_force_matches_stokeslet(self):
        # 32-cube keeps this quick; the 64-cube version is an acceptance run
        spec = K.GridSpec(8.0, 32)
        h = spec.h
        ic = (16, 16, 16)
        x0 = (np.array(ic) + 0.5) * h
        F = np.array([0.3, -0.2, -1.0])
        fv = np.zeros((32, 32, 32, 3))
        fv[ic] = F / spec.cell_volume
        st = K.stokes_solve(K.VectorGrid(spec, fv))
        cen = spec.centers()
        rng = np.random.default_rng(4)
        for _ in range(200):
            i, j, k = rng.integers(0, 32, 3)
            x = np.array([cen[i], cen[j], cen[k]])
            r = np.linalg.norm(x - x0)
            if r < 4 * h:
                continue
            ex = K.oseen_tensor(x - x0) @ F
            assert np.linalg.norm(st.velocity.values[i, j, k] - ex) < 0.02 * np.linalg.norm(ex)

    def test_point_force_matches_oseen_far_field(self):
        # the kernel is analytically solenoidal and the zero-padded
        # convolution is exact, so a point force reproduces the Oseen
        # tensor to rounding outside the regularized core
        spec = K.GridSpec(8.0, 32)
        h = spec.h
        ic = (16, 16, 16)
        x0 = (np.array(ic) + 0.5) * h
        F = np.array([0.0, 0.0, -1.0])
        fv = np.zeros((32, 32, 32, 3))
        fv[ic] = F / spec.cell_volume
        plain = K.StokesOperator(spec).apply(fv)
        cen = spec.centers()
        X, Y, Z = np.meshgrid(cen, cen, cen, indexing="ij")
        D = np.stack([X - x0[0], Y - x0[1], Z - x0[2]], axis=-1)
        R = np.linalg.norm(D, axis=-1)
        exact = np.einsum("...ab,b->...a", K.oseen_tensor(D), F)
        m = R >= 5 * h
        nrm = np.linalg.norm(exact, axis=-1)[m]
        err_plain = np.linalg.norm((plain - exact), axis=-1)[m] / nrm
        assert err_plain.max() < 1e-12

    def test_rejects_nan(self):
        spec = K.GridSpec(8.0, 16)
        f = np.zeros((16, 16, 16, 3))
        f[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            K.stokes_solve(K.VectorGrid(spec, f))


class TestStokesOperator:
    spec = K.GridSpec(8.0, 8)

    def test_matches_direct_sum(self):
        # random force on every cell, the box faces included
        f = np.random.default_rng(31).standard_normal((8, 8, 8, 3))
        assert np.abs(f[0]).min() > 0.0 and np.abs(f[:, :, -1]).min() > 0.0
        u = K.StokesOperator(self.spec).apply(f)
        ref = K.stokes_direct_sum(self.spec, f)
        assert np.abs(u - ref).max() < 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("g", [(0.0, 0.0, -1.0), (0.36, -0.48, 0.8)])
    def test_density_direction_form_matches_vector_form(self, g):
        spec = K.GridSpec(16.0, 16)
        op = K.StokesOperator(spec)
        rho = np.random.default_rng(32).random((16, 16, 16))
        g = np.array(g)
        u = op.apply(rho, g)
        ref = op.apply(rho[..., None] * g)
        assert np.abs(u - ref).max() <= 1e-15 * np.abs(ref).max()
        fluid = K.stokes_solve(K.ScalarGrid(spec, rho), g)
        assert np.array_equal(fluid.velocity.values, u)

    def test_repeatable_and_input_untouched(self):
        op = K.StokesOperator(self.spec)
        rng = np.random.default_rng(33)
        f = rng.standard_normal((8, 8, 8, 3))
        rho = rng.random((8, 8, 8))
        g = np.array([0.0, 0.6, -0.8])
        f0, rho0, g0 = f.copy(), rho.copy(), g.copy()
        assert np.array_equal(op.apply(f), op.apply(f))
        assert np.array_equal(op.apply(rho, g), op.apply(rho, g))
        assert np.array_equal(f, f0) and np.array_equal(rho, rho0) and np.array_equal(g, g0)

    def test_rejects_wrong_shapes(self):
        op = K.StokesOperator(self.spec)
        with pytest.raises(ValueError):
            op.apply(np.zeros((8, 8, 8)))
        with pytest.raises(ValueError):
            op.apply(np.zeros((8, 8, 8)), np.zeros(2))

    def test_one_gradient_build_per_vlasov_step(self, monkeypatch):
        from sedlab import kinetic

        builds = []
        build = K.velocity_gradient
        monkeypatch.setattr(K, "velocity_gradient", lambda field: builds.append(1) or build(field))
        rng = np.random.default_rng(34)
        cloud = kinetic.PhaseCloud(
            x=4.0 + 0.5 * rng.standard_normal((64, 3)),
            v=np.array([0.0, 0.0, -1.0]) + 0.1 * rng.standard_normal((64, 3)),
            w=np.full(64, 1.0 / 64),
            lam=10.0,
            gravity=np.array([0.0, 0.0, -1.0]),
        )
        for _ in range(2):
            cloud, fluid, budget = kinetic.vlasov_step(cloud, self.spec, 0.01)
            assert fluid.grad_sup_norm > 0.0 and budget.grad_term > 0.0
        assert len(builds) == 2


def gaussian_density(spec, sigma, center=None):
    cen = spec.centers()
    c = center if center is not None else np.full(3, spec.box_length / 2)
    X, Y, Z = np.meshgrid(cen, cen, cen, indexing="ij")
    r2 = (X - c[0]) ** 2 + (Y - c[1]) ** 2 + (Z - c[2]) ** 2
    v = np.exp(-r2 / (2 * sigma**2))
    v /= v.sum() * spec.cell_volume
    return K.ScalarGrid(spec, v)


class TestBrinkmanSolve:
    spec = K.GridSpec(8.0, 32)

    def test_zero_rho_reduces_to_stokes(self):
        rng = np.random.default_rng(9)
        f = rng.standard_normal((32, 32, 32, 3))
        j = K.VectorGrid(self.spec, f)
        rho = K.ScalarGrid(self.spec, np.zeros((32, 32, 32)))
        bk = K.brinkman_solve(rho, j, tol=1e-12)
        st = K.stokes_solve(j)
        assert np.abs(bk.velocity.values - st.velocity.values).max() < 1e-12
        assert bk.iterations == 1

    def test_dissipation_identity(self):
        # box comfortably larger than the bump so the dropped exterior
        # Dirichlet energy stays inside the 1% budget
        spec = K.GridSpec(16.0, 32)
        rho = gaussian_density(spec, 1.25)
        g = np.array([0.0, 0.0, -1.0])
        j = K.VectorGrid(spec, rho.values[..., None] * g)
        fl = K.brinkman_solve(rho, j, tol=1e-11, theta=1.0)
        assert fl.residual < 1e-9
        bulk = K.VectorGrid(spec, np.broadcast_to(g, (32, 32, 32, 3)).copy())
        rep = K.dissipation_check(rho, bulk, fl)
        assert rep.rel_residual < 0.01
        # both right-hand terms are nonnegative and the transfer is positive
        assert rep.grad_term > 0.0
        assert rep.friction_term > 0.0
        assert rep.lhs > 0.0

    def test_solution_damped_vs_plain_agree(self):
        rho = gaussian_density(self.spec, 0.9)
        g = np.array([0.2, 0.1, -1.0])
        j = K.VectorGrid(self.spec, rho.values[..., None] * g)
        a = K.brinkman_solve(rho, j, tol=1e-11, theta=0.5)
        b = K.brinkman_solve(rho, j, tol=1e-11, theta=1.0)
        scale = np.abs(a.velocity.values).max()
        assert np.abs(a.velocity.values - b.velocity.values).max() < 1e-8 * scale
        assert a.iterations > b.iterations  # the damping cost

    def test_warm_start_cuts_iterations(self):
        rho = gaussian_density(self.spec, 0.9)
        g = np.array([0.0, 0.0, -1.0])
        j = K.VectorGrid(self.spec, rho.values[..., None] * g)
        cold = K.brinkman_solve(rho, j, tol=1e-11, theta=1.0)
        warm = K.brinkman_solve(rho, j, tol=1e-11, theta=1.0, u0=cold.velocity)
        assert warm.iterations < cold.iterations

    def test_coercivity_sign_random_instances(self):
        # int V . (V - u) drho / ||V||^2_rho stays strictly positive
        rng = np.random.default_rng(21)
        cen = self.spec.centers()
        X, Y, Z = np.meshgrid(cen, cen, cen, indexing="ij")
        ratios = []
        for _ in range(5):
            rho = gaussian_density(self.spec, rng.uniform(0.5, 1.2), center=4 + rng.uniform(-0.5, 0.5, 3))
            kx = rng.uniform(0.3, 1.0, 3)
            V = np.stack(
                [
                    rng.normal() + 0.3 * np.sin(kx[0] * X),
                    rng.normal() + 0.3 * np.sin(kx[1] * Y),
                    rng.normal() + 0.3 * np.cos(kx[2] * Z),
                ],
                axis=-1,
            )
            j = K.VectorGrid(self.spec, rho.values[..., None] * V)
            fl = K.brinkman_solve(rho, j, tol=1e-10, theta=1.0)
            rep = K.dissipation_check(rho, K.VectorGrid(self.spec, V), fl)
            vnorm = float(np.sum(V * V * rho.values[..., None]) * self.spec.cell_volume)
            ratios.append(rep.lhs / vnorm)
        assert min(ratios) > 0.0

    def test_missed_tolerance_raises(self):
        rho = gaussian_density(self.spec, 0.9)
        j = K.VectorGrid(self.spec, rho.values[..., None] * np.array([0.0, 0.0, -1.0]))
        with pytest.raises(ConvergenceError) as err:
            K.brinkman_solve(rho, j, tol=1e-11, max_iter=1)
        assert err.value.iterations == 1
        assert err.value.residual > 1e-11
        assert err.value.exit_code == 3

    def test_negative_rho_rejected(self):
        rho = K.ScalarGrid(self.spec, -np.ones((32, 32, 32)))
        j = K.VectorGrid(self.spec, np.zeros((32, 32, 32, 3)))
        with pytest.raises(ValueError):
            K.brinkman_solve(rho, j)

    def test_velocity_from_flux_floor(self):
        rho = K.ScalarGrid(self.spec, np.zeros((32, 32, 32)))
        rho.values[1, 1, 1] = 1.0
        j = K.VectorGrid(self.spec, np.ones((32, 32, 32, 3)))
        v = K.velocity_from_flux(rho, j)
        assert np.all(v.values[0, 0, 0] == 0.0)  # below floor: no division
        assert np.abs(v.values[1, 1, 1] - 1.0).max() < 1e-12
