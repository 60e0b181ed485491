import dataclasses
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import full_window, whole_fluid
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
        rho, j = K.deposit(c, full_window(self.spec))
        vol = self.spec.cell_volume
        assert abs(rho.sum() * vol - c.w.sum()) < 1e-12
        mom = (c.w[:, None] * c.v).sum(axis=0)
        assert np.abs(j.sum(axis=(0, 1, 2)) * vol - mom).max() < 1e-12

    def test_deposit_linearity(self):
        rng = np.random.default_rng(5)
        a, b = self._cloud(150, rng), self._cloud(150, rng)
        both = _Cloud(
            np.vstack([a.x, b.x]), np.hstack([a.w, b.w]), np.vstack([a.v, b.v])
        )
        whole = full_window(self.spec)
        ra, _ = K.deposit(a, whole)
        rb, _ = K.deposit(b, whole)
        rab, _ = K.deposit(both, whole)
        assert np.abs(rab - ra - rb).max() < 1e-12

    def test_point_mass_at_center_hits_one_cell(self):
        x0 = (np.array([4, 4, 4]) + 0.5) * self.spec.h
        rho, _ = K.deposit(_Cloud(x0[None, :], np.array([1.0])), full_window(self.spec))
        assert abs(rho[4, 4, 4] - 1.0 / self.spec.cell_volume) < 1e-12
        assert np.count_nonzero(rho) == 1

    def test_interpolate_exact_on_linear_fields(self):
        # trilinear stencil reproduces affine fields exactly away from faces
        A = np.array([[0.3, -0.2, 0.5], [1.0, 0.0, -0.4], [0.2, 0.9, 0.1]])
        b = np.array([0.5, -1.0, 2.0])
        cen = self.spec.centers()
        X, Y, Z = np.meshgrid(cen, cen, cen, indexing="ij")
        pos = np.stack([X, Y, Z], axis=-1)
        field = pos @ A.T + b
        pts = np.random.default_rng(11).uniform(1.0, 7.0, (100, 3))
        got = K.interpolate(field, pts, full_window(self.spec))
        assert np.abs(got - (pts @ A.T + b)).max() < 1e-10

    def test_adjointness(self):
        # sum_i w_i v_i . u(x_i) == int j . u for any field and cloud
        c = self._cloud(300)
        rng = np.random.default_rng(13)
        u = rng.standard_normal((16, 16, 16, 3))
        _, j = K.deposit(c, full_window(self.spec))
        lhs = float(np.sum(c.w[:, None] * c.v * K.interpolate(u, c.x, full_window(self.spec))))
        rhs = float((j * u).sum() * self.spec.cell_volume)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_deposit_is_bitwise_eight_scatters(self):
        # reference: eight sequential scatters, one np.add.at per corner and field
        rng = np.random.default_rng(40)
        spec = K.GridSpec(16.0, 32)
        c = _Cloud(8.0 + 1.5 * rng.standard_normal((2000, 3)), rng.dirichlet(np.ones(2000)),
                   rng.standard_normal((2000, 3)))
        rho = np.zeros(spec.n**3)
        j = np.zeros((spec.n**3, 3))
        for flat, wgt in K._cic_stencil(full_window(spec), c.x, "deposit"):
            np.add.at(rho, flat, c.w * wgt)
            np.add.at(j, flat, (c.w * wgt)[:, None] * c.v)
        got_rho, got_j = K.deposit(c, full_window(spec))
        assert got_rho.tobytes() == (rho.reshape(32, 32, 32) / spec.cell_volume).tobytes()
        assert got_j.tobytes() == (j.reshape(32, 32, 32, 3) / spec.cell_volume).tobytes()

    def test_stencils_wider_than_the_grid_raise(self):
        # h = 1/2: stencils over cells -1 .. 15 span 17 cells, one more than the grid's 16
        wide = np.array([[0.1, 4.0, 4.0], [7.6, 4.0, 4.0]])
        with pytest.raises(DomainExhaustedError, match="span 17 cells"):
            K.stencil_window(self.spec, wide)
        for shift in (0.0, -100.0, 1e6):  # cells 0 .. 15, wherever they sit on the lattice
            w = K.stencil_window(self.spec, wide + [[0.2, 0, 0], [0, 0, 0]] + shift)
            assert w.spec.n == 16 and w.origin[0] == 2 * shift
        bad = _Cloud(wide[:1], np.array([1.0]))
        with pytest.raises(DomainExhaustedError, match="outside the usable window"):
            K.deposit(bad, full_window(self.spec))
        with pytest.raises(DomainExhaustedError):
            K.interpolate(np.zeros((16, 16, 16, 3)), np.array([8.1, 1, 1]),
                          full_window(self.spec))

    @pytest.mark.parametrize("x", [[[np.nan, 4.0, 4.0]], [[1e30, 4.0, 4.0]], [[4.0, -1e19, 4.0]],
                                   [[4.0, 4.0, -np.inf]], [[4.0, 4.0, 1e19], [4.0, 4.0, -1e19]]])
    @pytest.mark.filterwarnings("error")  # each raises before any inf - inf is formed
    def test_extreme_positions_raise(self, x):
        # none may come back as a side-8 window at a cell index that overflowed its cast
        with pytest.raises(DomainExhaustedError):
            K.stencil_window(self.spec, np.array(x))
        with pytest.raises(DomainExhaustedError):
            K.interpolate(np.zeros((16, 16, 16, 3)), np.array(x), full_window(self.spec))

    def test_single_point_interface(self):
        u = np.ones((16, 16, 16, 3))
        out = K.interpolate(u, np.array([4.0, 4.0, 4.0]), full_window(self.spec))
        assert out.shape == (3,)
        assert np.abs(out - 1.0).max() < 1e-14


class TestStokesSolve:
    def test_zero_force_zero_velocity(self):
        spec = K.GridSpec(8.0, 16)
        st = K.stokes_solve(np.zeros((16, 16, 16, 3)), full_window(spec))
        assert np.all(st.velocity == 0.0)
        assert st.grad_sup_norm == 0.0

    def test_linearity(self):
        spec = K.GridSpec(8.0, 16)
        rng = np.random.default_rng(2)
        f1 = rng.standard_normal((16, 16, 16, 3))
        f2 = rng.standard_normal((16, 16, 16, 3))
        u1 = K.stokes_solve(f1, full_window(spec)).velocity
        u2 = K.stokes_solve(f2, full_window(spec)).velocity
        u12 = K.stokes_solve(2.0 * f1 - 3.0 * f2, full_window(spec)).velocity
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
        st = K.stokes_solve(fv, full_window(spec))
        cen = spec.centers()
        rng = np.random.default_rng(4)
        for _ in range(200):
            i, j, k = rng.integers(0, 32, 3)
            x = np.array([cen[i], cen[j], cen[k]])
            r = np.linalg.norm(x - x0)
            if r < 4 * h:
                continue
            ex = K.oseen_tensor(x - x0) @ F
            assert np.linalg.norm(st.velocity[i, j, k] - ex) < 0.02 * np.linalg.norm(ex)

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
            K.stokes_solve(f, full_window(spec))


class TestStokesOperator:
    spec = K.GridSpec(8.0, 8)

    def test_matches_direct_sum(self):
        # random force on every cell, the box faces included
        f = np.random.default_rng(31).standard_normal((8, 8, 8, 3))
        assert np.abs(f[0]).min() > 0.0 and np.abs(f[:, :, -1]).min() > 0.0
        u = K.StokesOperator(self.spec).apply(f)
        ref = K.stokes_direct_sum(self.spec, f)
        assert np.abs(u - ref).max() < 1e-13 * np.abs(ref).max()

    @staticmethod
    def _whole_array_apply(spec, force):
        """Plain padded convolution with the kernel tabulated on the whole (2n)^3 cube and
        transformed by rfftn, the table the octant build replaces."""
        n, m = spec.n, 2 * spec.n
        k = np.arange(m)
        xi = np.where(k <= n, k, k - m) * spec.h  # min-image offsets
        x, y, z = np.meshgrid(xi, xi, xi, indexing="ij", sparse=True)
        iso, aniso = K._oseen_generator(x**2 + y**2 + z**2, spec.h)
        fk = np.fft.rfftn(force, s=(m, m, m), axes=(0, 1, 2))
        uk = np.zeros_like(fk)
        for a, b in K._PAIRS:
            kernel = np.fft.rfftn(aniso * (x, y, z)[a] * (x, y, z)[b] + (iso if a == b else 0.0)).real
            uk[..., a] += kernel * fk[..., b]
            if a != b:
                uk[..., b] += kernel * fk[..., a]
        return np.fft.irfftn(uk, s=(m, m, m), axes=(0, 1, 2))[:n, :n, :n] * spec.cell_volume

    @pytest.mark.parametrize("n", [8, 24, 40])
    def test_applies_match_the_whole_array_table(self, n):
        # 24 and 40 are window sides; at 24 a block holds three ky rows, and one ends at ky = n
        spec = K.GridSpec(0.5 * n, n)
        op = K.StokesOperator(spec)
        rng = np.random.default_rng(35)
        f, rho = rng.standard_normal((n, n, n, 3)), rng.random((n, n, n))
        g = np.array([0.36, -0.48, 0.8])
        for got, force in ((op.apply(f), f), (op.apply(rho, g), rho[..., None] * g)):
            ref = self._whole_array_apply(spec, force)
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_table_build_is_repeatable(self):
        spec = K.GridSpec(12.0, 24)
        assert K.StokesOperator(spec)._table.tobytes() == K.StokesOperator(spec)._table.tobytes()

    @pytest.mark.parametrize("g", [(0.0, 0.0, -1.0), (0.36, -0.48, 0.8)])
    def test_density_direction_form_matches_vector_form(self, g):
        spec = K.GridSpec(16.0, 16)
        op = K.StokesOperator(spec)
        rho = np.random.default_rng(32).random((16, 16, 16))
        g = np.array(g)
        u = op.apply(rho, g)
        ref = op.apply(rho[..., None] * g)
        assert np.abs(u - ref).max() <= 1e-15 * np.abs(ref).max()
        fluid = K.stokes_solve(rho, full_window(spec), g)
        assert np.array_equal(fluid.velocity, u)

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

    @pytest.mark.parametrize("form", ["vector", "density_direction"])
    def test_one_padded_spectrum(self, form):
        # an apply on a 48^3 window holds one padded spectrum, its output and slab- and
        # block-sized temporaries, and keeps nothing on the operator
        n = 48
        op = K.StokesOperator(K.GridSpec(0.5 * n, n))
        rng = np.random.default_rng(36)
        if form == "vector":
            args = (rng.standard_normal((n, n, n, 3)),)
        else:
            args = (rng.random((n, n, n)), np.array([0.0, 0.6, -0.8]))
        tracemalloc.start()
        try:
            op.apply(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * (2 * n) * 3 * n * (n + 1) * 16
        assert vars(op).keys() == {"spec", "_table"}

    def test_rejects_wrong_shapes(self):
        op = K.StokesOperator(self.spec)
        with pytest.raises(ValueError):
            op.apply(np.zeros((8, 8, 8)))
        with pytest.raises(ValueError):
            op.apply(np.zeros((8, 8, 8)), np.zeros(2))

    def test_one_gradient_build_per_vlasov_step(self, monkeypatch):
        from sedlab import kinetic

        builds = []
        build = K._gradient_components
        monkeypatch.setattr(K, "_gradient_components", lambda field, h: builds.append(1) or build(field, h))
        rng = np.random.default_rng(34)
        cloud = kinetic.PhaseCloud(
            x=4.0 + 0.5 * rng.standard_normal((64, 3)),
            v=np.array([0.0, 0.0, -1.0]) + 0.1 * rng.standard_normal((64, 3)),
            w=np.full(64, 1.0 / 64),
            lam=10.0,
            gravity=np.array([0.0, 0.0, -1.0]),
        )
        for k in range(2):
            cloud, fluid, budget = kinetic.vlasov_step(cloud, self.spec, 0.01)
            assert budget.grad_term > 0.0 and len(builds) == k  # the budget's pairing builds none
            assert fluid.grad_sup_norm > 0.0 and fluid.box_energy > 0.0  # one build serves both
        assert len(builds) == 2


def gaussian_density(spec, sigma, center=None):
    cen = spec.centers()
    c = center if center is not None else np.full(3, spec.box_length / 2)
    X, Y, Z = np.meshgrid(cen, cen, cen, indexing="ij")
    r2 = (X - c[0]) ** 2 + (Y - c[1]) ** 2 + (Z - c[2]) ** 2
    v = np.exp(-r2 / (2 * sigma**2))
    v /= v.sum() * spec.cell_volume
    return v


class TestBrinkmanSolve:
    spec = K.GridSpec(8.0, 32)

    def test_zero_rho_reduces_to_stokes(self):
        rng = np.random.default_rng(9)
        j = rng.standard_normal((32, 32, 32, 3))
        rho = np.zeros((32, 32, 32))
        bk = K.brinkman_solve(rho, j, full_window(self.spec), tol=1e-12)
        st = K.stokes_solve(j, full_window(self.spec))
        assert np.abs(bk.velocity - st.velocity).max() < 1e-12
        assert bk.iterations == 1

    def test_dissipation_identity(self):
        # box comfortably larger than the bump so the dropped exterior
        # Dirichlet energy stays inside the 1% budget
        spec = K.GridSpec(16.0, 32)
        rho = gaussian_density(spec, 1.25)
        g = np.array([0.0, 0.0, -1.0])
        j = rho[..., None] * g
        fl = K.brinkman_solve(rho, j, full_window(spec), tol=1e-11)
        assert fl.residual < 1e-9
        bulk = np.broadcast_to(g, (32, 32, 32, 3)).copy()
        rep = K.dissipation_check(rho, bulk, fl)
        assert rep.rel_residual < 0.01
        # both right-hand terms are nonnegative and the transfer is positive
        assert rep.grad_term > 0.0
        assert rep.friction_term > 0.0
        assert rep.lhs > 0.0

    def test_solution_damped_vs_plain_agree(self):
        # mass 30 makes the undamped defect grow at sweep 2, so the loop halves theta once
        rho = 30.0 * gaussian_density(self.spec, 0.9)
        j = rho[..., None] * np.array([0.2, 0.1, -1.0])
        damped = K.brinkman_solve(rho, j, full_window(self.spec), tol=1e-11)
        plain = K.brinkman_solve(rho, j, full_window(self.spec), tol=1e-11, u0=damped)  # one undamped sweep
        light = K.brinkman_solve(rho / 30.0, j / 30.0, full_window(self.spec), tol=1e-11)
        scale = np.abs(damped.velocity).max()
        assert np.abs(plain.velocity - damped.velocity).max() < 1e-8 * scale
        assert plain.iterations == 1 and plain.residual <= 1e-11
        assert (damped.iterations, light.iterations) == (28, 8)  # the damping cost

    def test_warm_start_cuts_iterations(self):
        rho = gaussian_density(self.spec, 0.9)
        g = np.array([0.0, 0.0, -1.0])
        j = rho[..., None] * g
        cold = K.brinkman_solve(rho, j, full_window(self.spec), tol=1e-11)
        warm = K.brinkman_solve(rho, j, full_window(self.spec), tol=1e-11, u0=cold)
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
            j = rho[..., None] * V
            fl = K.brinkman_solve(rho, j, full_window(self.spec), tol=1e-10)
            rep = K.dissipation_check(rho, V, fl)
            vnorm = float(np.sum(V * V * rho[..., None]) * self.spec.cell_volume)
            ratios.append(rep.lhs / vnorm)
        assert min(ratios) > 0.0

    def test_missed_tolerance_raises(self):
        rho = gaussian_density(self.spec, 0.9)
        j = rho[..., None] * np.array([0.0, 0.0, -1.0])
        with pytest.raises(ConvergenceError) as err:
            K.brinkman_solve(rho, j, full_window(self.spec), tol=1e-11, max_iter=1)
        assert err.value.iterations == 1
        assert err.value.residual > 1e-11
        assert err.value.exit_code == 3

    def test_blas_thread_count_leaves_no_bit_changed(self):
        from sedlab.harness.sweeps import _blas_threads

        spec = K.GridSpec(8.0, 16)
        rho = gaussian_density(spec, 0.9)
        j = rho[..., None] * np.array([0.2, 0.1, -1.0])
        old = _blas_threads(1)
        if old is None:
            pytest.skip("numpy links a BLAS other than OpenBLAS")
        try:
            one = K.brinkman_solve(rho, j, full_window(spec), tol=1e-11)
            _blas_threads(2)
            two = K.brinkman_solve(rho, j, full_window(spec), tol=1e-11)
        finally:
            _blas_threads(old)
        assert one.velocity.tobytes() == two.velocity.tobytes()
        assert (one.residual, one.iterations) == (two.residual, two.iterations)

    def test_negative_rho_rejected(self):
        whole, rho, j = full_window(self.spec), np.ones((32, 32, 32)), np.zeros((32, 32, 32, 3))
        with pytest.raises(ValueError, match="nonnegative"):
            K.brinkman_solve(-rho, j, whole)
        # the window is the one owner of where a field sits: fields of another shape are refused
        with pytest.raises(ValueError, match="not a field on the window"):  # rho on a window of side 16
            K.brinkman_solve(rho[:16, :16, :16], j, whole)
        with pytest.raises(ValueError, match="not a field on the window"):  # j of a density's shape
            K.brinkman_solve(rho, rho, whole)


def _phase_cloud(spec, count, seed, sigma=1.2, center=None):
    """A seeded Gaussian phase cloud, centred in the box unless a center is given."""
    rng = np.random.default_rng(seed)
    center = spec.box_length / 2 if center is None else np.asarray(center)
    return _Cloud(center + sigma * rng.standard_normal((count, 3)), np.full(count, 1.0 / count),
                  np.array([0.0, 0.0, -1.0]) + 0.1 * rng.standard_normal((count, 3)))


def _solve(cloud, window, **kwargs):
    """Deposit the cloud on the window and solve Brinkman there."""
    return K.brinkman_solve(*K.deposit(cloud, window), window, **kwargs)


class TestWindow:
    spec = K.GridSpec(16.0, 32)

    def _rel(self, a, b):
        return float(np.abs(a - b).max() / np.abs(b).max())

    @staticmethod
    def _at(cells, frac=0.75):
        """A position whose stencil's lowest corner is the given cell (h = 1/2)."""
        return (np.asarray(cells) + 0.5 + frac) * 0.5

    def test_stencil_window(self):
        # stencils over cells 5..17, 9..11 and 30..31: spans 13, 3 and 2 cells
        x = np.array([self._at((5, 9, 30)), self._at((16, 10, 30))])
        w = K.stencil_window(self.spec, x)
        assert w.spec.n == 16 and w.origin == (5, 9, 30)  # past the grid's z = L face: no face moves it
        assert w.spec.h == self.spec.h
        whole = K.deposit(_Cloud(x, np.full(2, 0.5)), full_window(self.spec))[0]
        assert np.count_nonzero(whole[w.cells]) == np.count_nonzero(whole)  # every stencil's cells lie in it
        below = K.stencil_window(self.spec, x - 40 * self.spec.h)  # the same stencils, 40 cells lower
        assert below.origin == (-35, -31, -10) and below.spec == w.spec
        # z spans 0..31: the grid's side, so the window is the grid's cells
        assert K.stencil_window(self.spec, np.vstack([x, self._at((0, 0, 0))])) == full_window(self.spec)
        with pytest.raises(DomainExhaustedError, match="span 33 cells"):  # z spans -1..31
            K.stencil_window(self.spec, np.vstack([x, self._at((0, 0, -1))]))
        assert K.stencil_window(self.spec, x[:1]).spec.n == 8  # one stencil: two cells per axis
        assert K.stencil_window(self.spec, np.zeros((0, 3))).spec.n == 8

    def test_deposit_on_the_window_is_bitwise_the_sliced_whole_grid_deposit(self):
        cloud = _phase_cloud(self.spec, 2000, seed=48)
        window = K.stencil_window(self.spec, cloud.x)
        assert window.spec.n < self.spec.n
        rho, j = K.deposit(cloud, window)
        whole_rho, whole_j = K.deposit(cloud, full_window(self.spec))
        assert rho.shape + (3,) == j.shape == (window.spec.n,) * 3 + (3,)
        assert rho.tobytes() == whole_rho[window.cells].tobytes()
        assert j.tobytes() == whole_j[window.cells].tobytes()

    @pytest.mark.parametrize("origin", [(5, 9, 16), (0, 16, 3)])
    def test_window_apply_matches_whole_grid(self, origin):
        # both sit on a face of the grid: z = n - s and x = 0, y = n - s
        s, n = 16, self.spec.n
        window = K.Window(self.spec, origin, K.GridSpec(s * self.spec.h, s))
        rng = np.random.default_rng(41)
        f, rho = np.zeros((n, n, n, 3)), np.zeros((n, n, n))
        f[window.cells], rho[window.cells] = rng.standard_normal((s, s, s, 3)), rng.random((s, s, s))
        g = np.array([0.36, -0.48, 0.8])
        whole, op = K.get_operator(self.spec), K.get_operator(window.spec)
        assert op.spec.n == s
        assert self._rel(op.apply(f[window.cells]), whole.apply(f)[window.cells]) <= 1e-14
        assert self._rel(op.apply(rho[window.cells], g), whole.apply(rho, g)[window.cells]) <= 1e-14

    def test_brinkman_on_window_matches_whole_grid_loop(self):
        cloud = _phase_cloud(self.spec, 2000, seed=42)
        window, whole_window = K.stencil_window(self.spec, cloud.x), full_window(self.spec)
        assert window.spec.n == 24
        windowed = _solve(cloud, window)
        warm = _solve(cloud, window, u0=windowed)
        whole = _solve(cloud, whole_window)
        cells = window.cells
        assert windowed.iterations == whole.iterations
        assert self._rel(windowed.velocity, whole.velocity[cells]) <= 1e-13
        # off the window, the held force's image is the whole-grid iterate
        assert self._rel(whole_fluid(windowed).velocity, whole.velocity) <= 1e-13
        whole_warm = _solve(cloud, whole_window, u0=whole)
        assert warm.iterations == whole_warm.iterations
        assert self._rel(warm.velocity, whole_warm.velocity[cells]) <= 1e-13

    def test_warm_start_from_another_window_is_the_embedded_field(self):
        # u0 on one window starts a solve on another with its field where they overlap and
        # zero elsewhere: bitwise the start from that field embedded in zeros on the whole grid
        n = self.spec.n
        base = _phase_cloud(self.spec, 500, seed=49, sigma=0.8)
        first = _solve(base, K.stencil_window(self.spec, base.x))
        moved = _phase_cloud(self.spec, 500, seed=50, sigma=0.8, center=(9.5, 8.0, 7.0))
        window = K.stencil_window(self.spec, moved.x)
        assert window.origin != first.window.origin and window.spec.n == first.window.spec.n
        embedded = np.zeros((n, n, n, 3))
        embedded[first.window.cells] = first.velocity
        via_grid = K.FluidState(embedded, 0.0, 1, full_window(self.spec))
        got, ref = _solve(moved, window, u0=first), _solve(moved, window, u0=via_grid)
        assert got.iterations == ref.iterations and got.velocity.tobytes() == ref.velocity.tobytes()
        # windows that do not meet start from zero, as a cold solve does
        far = _phase_cloud(self.spec, 500, seed=51, sigma=0.3, center=(2.5, 2.5, 2.5))
        far_window = K.stencil_window(self.spec, far.x)
        assert far_window.spec.n == 8 and max(far_window.origin) + 8 <= min(first.window.origin)
        got, cold = _solve(far, far_window, u0=first), _solve(far, far_window)
        assert got.iterations == cold.iterations and got.velocity.tobytes() == cold.velocity.tobytes()

    def test_weighted_start_is_the_weighted_sum_embedded_in_zeros(self):
        # fields on shifted windows, weighted: bitwise the same weighted sum of those fields
        # embedded in zeros on the whole grid, in the same order, read on the new window
        from sedlab import kinetic

        n, h = self.spec.n, self.spec.h
        rng = np.random.default_rng(54)
        target = K.Window(self.spec, (8, 6, 9), K.GridSpec(16 * h, 16))
        fields = [(K.Window(self.spec, origin, K.GridSpec(side * h, side)), side)
                  for origin, side in (((4, 6, 11), 16), ((12, 1, 5), 8), ((0, 8, 0), 24))]
        terms = [(c, rng.standard_normal((side,) * 3 + (3,)), window)
                 for c, (window, side) in zip(kinetic.relaxation_weights(0.7788, 3), fields)]
        whole = np.zeros((n, n, n, 3))
        for c, field, window in terms:
            embedded = np.zeros((n, n, n, 3))
            embedded[window.cells] = field
            whole += c * embedded
        ref = whole[target.cells]
        assert np.count_nonzero(ref) > 0 and np.count_nonzero(ref == 0.0) > 0  # overlaps, and cells none reach
        consumed = list(terms)
        start = K._start_field(target, consumed)
        assert start.tobytes() == ref.tobytes() and consumed == []  # the build pops every term
        # a solve from the terms is the solve from that field held by one FluidState
        cloud = _phase_cloud(self.spec, 400, seed=55, sigma=0.6, center=np.add(target.origin, 8) * h)
        got = _solve(cloud, target, u0=list(terms))
        held = _solve(cloud, target, u0=K.FluidState(ref.copy(), 0.0, 1, target))
        assert got.iterations == held.iterations and got.velocity.tobytes() == held.velocity.tobytes()

    def test_support_spanning_grid_is_bitwise_the_whole_grid_loop(self):
        rho = gaussian_density(self.spec, 1.5)
        j = rho[..., None] * np.array([0.2, 0.1, -1.0])
        got = K.brinkman_solve(rho, j, full_window(self.spec), tol=1e-11)
        op = K.get_operator(self.spec)
        u = np.zeros_like(j)
        u_norm, prev, rhov = 0.0, np.inf, rho[..., None]
        for it in range(1, 200):
            image = op.apply(j - rhov * u)
            defect = K._norm(image - u) / max(K._norm(image), u_norm, 1e-300)
            u, u_norm = image, K._norm(image)
            q = defect / prev if it > 1 else 1.0  # the contraction over the last two defects
            if defect <= 1e-11 or (q < 0.5 and 2.0 * q * defect <= 1e-11):
                break
            prev = defect
        assert (got.iterations, got.residual) == (it, defect)
        assert got.velocity.tobytes() == u.tobytes()

    def _whole_grid_field(self, cloud, g):
        """The steady field of the cloud's density on the full window, at its samples."""
        whole = full_window(self.spec)
        return K.stokes_solve(K.deposit(cloud, whole)[0], whole, g).at(cloud.x)

    def test_steady_velocities_match_whole_grid_solve(self):
        from sedlab.metrics import steady_field_velocities

        rng = np.random.default_rng(43)
        cloud = SimpleNamespace(x=8.0 + 1.5 * rng.standard_normal((2000, 3)), w=np.full(2000, 1 / 2000),
                                v=rng.standard_normal((2000, 3)))
        g = np.array([0.0, 0.6, -0.8])
        assert K.stencil_window(self.spec, cloud.x).spec.n < self.spec.n
        whole = self._whole_grid_field(cloud, g)
        assert self._rel(steady_field_velocities(cloud, self.spec, g, cloud.w), whole) <= 1e-13

    def test_steady_velocities_at_a_zero_weight_sample_off_the_density(self):
        from sedlab.transport import steady_velocity_field

        rng = np.random.default_rng(46)
        x = 8.0 + 1.2 * rng.standard_normal((500, 3))
        x[0] = 2.0  # weight 0: it deposits nothing, and its stencil lies off the density's window
        cloud = SimpleNamespace(x=x, w=np.r_[0.0, np.full(499, 1 / 499)], gravity=np.array([0.0, 0.6, -0.8]))
        assert min(K.stencil_window(self.spec, x[1:]).origin) > 3  # the sample's stencil starts at cell 3
        assert K.stencil_window(self.spec, x).spec.n < self.spec.n
        whole = self._whole_grid_field(cloud, cloud.gravity)
        assert self._rel(steady_velocity_field(cloud, self.spec).at(x), whole) <= 1e-13

    def test_vlasov_step_at_a_zero_weight_sample_off_the_density(self):
        from sedlab import kinetic

        rng = np.random.default_rng(46)
        g = np.array([0.0, 0.0, -1.0])
        x = 8.0 + 1.2 * rng.standard_normal((500, 3))
        x[0] = (2.1, 2.3, 2.2)  # weight 0: its stencil lies off the others' support
        cloud = kinetic.PhaseCloud(x=x, v=g + 0.1 * rng.standard_normal((500, 3)), w=np.r_[0.0, np.full(499, 1 / 499)],
                                   lam=20.0, gravity=g)
        assert min(K.stencil_window(self.spec, x[1:]).origin) > 4
        _, fluid, budget = kinetic.vlasov_step(cloud, self.spec, 0.01)
        assert fluid.window.spec.n < self.spec.n and np.isfinite(budget.grad_term)
        whole = _solve(cloud, full_window(self.spec))
        assert fluid.iterations == whole.iterations
        assert self._rel(fluid.at(x[0]), whole.at(x[0])) <= 1e-13

    @pytest.mark.parametrize("cells", [3, 40, -40, 1000])
    def test_whole_cell_shift_changes_nothing(self, cells):
        # positions are multiples of 2^-20, so moving them by whole cells (h = 1/2) is exact
        from sedlab import kinetic

        rng = np.random.default_rng(53)
        g = np.array([0.0, 0.0, -1.0])
        x = np.round((8.0 + 1.5 * rng.standard_normal((500, 3))) * 2.0**20) / 2.0**20
        cloud = kinetic.PhaseCloud(x=x, v=g + 0.1 * rng.standard_normal((500, 3)), w=np.full(500, 1 / 500),
                                   lam=20.0, gravity=g)
        moved = dataclasses.replace(cloud, x=x + cells * self.spec.h)
        assert np.all(moved.x - cells * self.spec.h == x)
        stepped, base, _ = kinetic.vlasov_step(cloud, self.spec, 0.01)
        shifted, fluid, _ = kinetic.vlasov_step(moved, self.spec, 0.01)
        assert fluid.window.origin == tuple(o + cells for o in base.window.origin)
        assert fluid.iterations == base.iterations
        assert fluid.velocity.tobytes() == base.velocity.tobytes()
        assert fluid.at(moved.x).tobytes() == base.at(x).tobytes()
        assert shifted.v.tobytes() == stepped.v.tobytes()

    def test_vlasov_run_builds_each_window_table_once(self, monkeypatch):
        from collections import OrderedDict

        from sedlab import harness

        monkeypatch.setattr(K, "_OPERATOR_CACHE", OrderedDict())
        K.get_operator(self.spec)
        built = []
        init = K.StokesOperator.__init__
        monkeypatch.setattr(K.StokesOperator, "__init__", lambda op, spec: built.append(spec.n) or init(op, spec))
        config = harness.default_config(
            {
                "run": {"tier": "vlasov", "n": 2000, "lambda": 20.0, "dt": 0.0125, "t_final": 0.05, "seed": 3},
                "grid": {"box": 16.0, "cells": 32},
            }
        )
        record = harness.run(config)  # 4 steps under 50 snapshots: S at every step
        assert record.ok and len(record.s_series) == 5
        assert built and self.spec.n not in built
        assert sorted(built) == sorted(set(built))

    def _count_applies(self, monkeypatch):
        """Sides of the Stokes applies made from now on, in call order."""
        sides = []
        apply = K.StokesOperator.apply
        monkeypatch.setattr(K.StokesOperator, "apply",
                            lambda op, *args: sides.append(op.spec.n) or apply(op, *args))
        return sides

    @staticmethod
    def _count_deposits(monkeypatch):
        """Window sides of the deposits made from now on, wherever a sedlab module calls `deposit`."""
        import sys

        sides = []
        deposit = K.deposit
        for name, module in list(sys.modules.items()):
            if name.startswith("sedlab") and getattr(module, "deposit", None) is deposit:
                monkeypatch.setattr(module, "deposit",
                                    lambda cloud, window: sides.append(window.spec.n) or deposit(cloud, window))
        return sides

    @pytest.mark.parametrize("budget", [0, 1])
    def test_no_whole_grid_apply_in_a_windowed_run(self, monkeypatch, budget):
        from sedlab import harness

        config = harness.default_config(
            {
                "run": {"tier": "vlasov", "n": 2000, "lambda": 20.0, "dt": 0.0125, "t_final": 0.05, "seed": 3},
                "grid": {"box": 16.0, "cells": 32},
                "output": {"energy_budget": budget},
            }
        )
        sides, deposits = self._count_applies(monkeypatch), self._count_deposits(monkeypatch)
        # the well-prepared draw solves for its field too
        draw = harness.sample_initial(config.initial, config.n, config.seed, config.lam, grid=self.spec,
                                      want_ensemble=False)
        assert config.initial["family"] == "well_prepared" and sides and deposits
        record = harness.run(config, draw=draw)
        assert record.ok and len(record.budgets) == budget * config.steps
        assert all(b.grad_term > 0.0 for b in record.budgets)
        assert self.spec.n not in sides and self.spec.n not in deposits
        assert len(sides) > config.steps  # the window iterations and the S solves

    def test_solve_holds_the_force_of_its_last_apply(self, monkeypatch):
        cloud = _phase_cloud(self.spec, 2000, seed=44)
        window = K.stencil_window(self.spec, cloud.x)
        assert window.spec.n < self.spec.n
        rho, j = K.deposit(cloud, window)
        # the loop with theta = 1, written out
        op = K.get_operator(window.spec)
        jw, rhov = j, rho[..., None]
        u, u_norm, prev = np.zeros_like(jw), 0.0, np.inf
        for it in range(1, 200):
            force = jw - rhov * u
            image = op.apply(force)
            defect = K._norm(image - u) / max(K._norm(image), u_norm, 1e-300)
            u, u_norm = image, K._norm(image)
            q = defect / prev if it > 1 else 1.0  # the contraction over the last two defects
            if defect <= 1e-9 or (q < 0.5 and 2.0 * q * defect <= 1e-9):
                break
            prev = defect
        sides = self._count_applies(monkeypatch)
        fluid = K.brinkman_solve(rho, j, window)
        energy = fluid.dirichlet_energy
        assert fluid.iterations == it and sides == [window.spec.n] * it
        assert fluid.window == window and fluid.velocity.shape == (window.spec.n,) * 3 + (3,)
        assert fluid.velocity.tobytes() == u.tobytes() and fluid.force.tobytes() == force.tobytes()
        assert energy > 0.0 and energy == pytest.approx(float(np.sum(u * force)) * self.spec.cell_volume, rel=1e-12)

    def test_every_solve_returns_a_contiguous_float64_field_on_its_window(self):
        cloud = _phase_cloud(self.spec, 500, seed=52)
        window = K.stencil_window(self.spec, cloud.x)
        assert window.spec.n < self.spec.n
        rho, j = K.deposit(cloud, window)
        solves = (
            K.stokes_solve(j, window),
            K.stokes_solve(rho, window, np.array([0.0, 0.0, -1.0])),
            K.brinkman_solve(rho, j, window),
            K.brinkman_solve(100.0 * rho, 100.0 * j, window),  # damped: theta halves at sweeps 2 and 4
            K.brinkman_solve(np.zeros_like(rho), j, window),  # no drag: one apply
        )
        for fluid in solves:
            u = fluid.velocity
            assert fluid.window == window and u.shape == (window.spec.n,) * 3 + (3,)
            assert u.dtype == np.float64 and u.flags.c_contiguous

    def test_interpolation_on_the_window_is_bitwise_the_embedded_field(self, monkeypatch):
        cloud = _phase_cloud(self.spec, 2000, seed=45)
        window = K.stencil_window(self.spec, cloud.x)
        fluid = _solve(cloud, window)
        assert window.spec.n < self.spec.n
        sides = self._count_applies(monkeypatch)
        n = self.spec.n
        embedded = np.zeros((n, n, n, 3))
        embedded[window.cells] = fluid.velocity
        whole = full_window(self.spec)
        assert fluid.at(cloud.x).tobytes() == K.interpolate(embedded, cloud.x, whole).tobytes()
        assert fluid.at(cloud.x[0]).tobytes() == K.interpolate(embedded, cloud.x[0], whole).tobytes()
        with pytest.raises(DomainExhaustedError, match="outside the usable window"):
            fluid.at(np.array([1.0, 1.0, 1.0]))  # a stencil off the window
        assert sides == []


def _returned_defect(rho, j, fluid):
    """Measured defect of the field a Brinkman solve returned, by one more apply on its window."""
    u = fluid.velocity
    image = K.get_operator(fluid.window.spec).apply(j - rho[..., None] * u)
    return K._norm(image - u) / max(K._norm(image), K._norm(u), 1e-300)


class TestFixedPoint:
    """`fixed_point` on affine scalar maps x -> a x + 1, whose iterates here are exact in binary."""

    @staticmethod
    def _map(a):
        """(update, defect |y - x|, the iterates update saw, the defects)."""
        seen, defects = [], []

        def update(x):
            seen.append(x)
            return a * x + 1.0

        def defect(x, y):
            defects.append(abs(y - x))
            return defects[-1]

        return update, defect, seen, defects

    def test_returns_the_newest_iterate_and_its_sweep(self):
        # a = 1/2: y_k = 2 - 2^(1-k), d_k = 2^(1-k), and q = 1/2 never gives a contraction stop
        update, defect, _, _ = self._map(0.5)
        assert K.fixed_point(update, 0.0, defect, 1e-3, 50, "map") == (2.0 - 2.0**-10, 2.0**-10, 11)
        # a = 1/100: d_3 = 1e-4 > tol, but q = 1/100 puts y_3 within 2e-6 of the fixed point 1/0.99
        update, defect, _, defects = self._map(0.01)
        y, d, sweeps = K.fixed_point(update, 0.0, defect, 1e-5, 50, "map")
        assert sweeps == 3 and d == defects[-1] > 1e-5 and abs(y - 1.0 / 0.99) <= 1e-5

    def test_theta_halves_where_the_defect_grows(self):
        # a = -3/2 diverges undamped: d_2 = 3/2 > d_1 = 1, so sweep 2 goes half way from x_1 = 1 to y_2 = -1/2
        update, defect, seen, defects = self._map(-1.5)
        K.fixed_point(update, 0.0, defect, 0.05, 50, "map")
        assert defects[:2] == [1.0, 1.5] and seen[:3] == [0.0, 1.0, 0.25]

    def test_no_contraction_stop_while_damped(self):
        # at theta = 1/2 the map contracts by 1/4: sweep 4 meets the contraction rule, not tol, and goes on
        update, defect, _, defects = self._map(-1.5)
        assert K.fixed_point(update, 0.0, defect, 0.05, 50, "map") == (0.40234375, 0.0234375, 5)
        assert K.contraction_stop(defects[3], defects[2], 0.05) and defects[3] > 0.05

    def test_miss_raises_after_max_iter_with_theta_held_at_an_eighth(self):
        # a = 2 diverges at every theta: the defect grows at each sweep and theta halves down to 1/8
        update, defect, seen, defects = self._map(2.0)
        with pytest.raises(ConvergenceError, match="affine map left defect") as err:
            K.fixed_point(update, 0.0, defect, 1e-9, 6, "affine map")
        assert (err.value.residual, err.value.iterations, err.value.exit_code) == (defects[-1], 6, 3)
        assert len(seen) == 6
        thetas = [(x1 - x0) / (2.0 * x0 + 1.0 - x0) for x0, x1 in zip(seen[:-1], seen[1:])]
        assert thetas == [1.0, 0.5, 0.25, 0.125, 0.125]


class TestStopRule:
    """A solve stops on the contraction it measured; the field it returns still meets tol."""

    spec = K.GridSpec(16.0, 32)

    def _check_solves(self, monkeypatch):
        """Defect / tol of each field the vlasov step's solves return, and the count of contraction stops."""
        from sedlab import kinetic

        ratios, stops = [], []
        solve, stop = K.brinkman_solve, K.contraction_stop

        def checked(rho, j, window, tol=1e-9, **kwargs):
            fluid = solve(rho, j, window, tol=tol, **kwargs)
            ratios.append(_returned_defect(rho, j, fluid) / tol)
            return fluid

        monkeypatch.setattr(kinetic, "brinkman_solve", checked)
        monkeypatch.setattr(K, "contraction_stop", lambda *args: stops.append(stop(*args)) or stops[-1])
        return ratios, stops

    def test_contraction_stop_needs_two_finite_defects(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert K.contraction_stop(1e-10, 1e-8, 1e-9)  # q = 0.01: within 2e-12
            assert not K.contraction_stop(4e-9, 1e-8, 1e-9)  # q = 0.4: only within 3.2e-9
            assert not K.contraction_stop(1e-12, 1.5e-12, 1.0)  # q > 1/2
            for prev in (np.inf, 0.0, np.nan):
                assert not K.contraction_stop(0.0, prev, 1e-9)
            assert not K.contraction_stop(np.nan, 1e-8, 1e-9)

    def test_vlasov_run_returns_fields_within_tol(self, monkeypatch):
        from sedlab import harness

        ratios, stops = self._check_solves(monkeypatch)
        config = harness.default_config(
            {
                "run": {"tier": "vlasov", "n": 2000, "lambda": 20.0, "dt": 0.0125, "t_final": 0.1, "seed": 3},
                "grid": {"box": 16.0, "cells": 32},
            }
        )
        assert harness.run(config).ok
        assert len(ratios) == config.steps and any(stops)
        assert max(ratios) <= 1.0

    def test_hydro_member_returns_fields_within_tol(self, monkeypatch):
        from sedlab import harness
        from sedlab.harness import sweeps

        base = harness.default_config(
            {
                "run": {"tier": "vlasov", "n": 2000, "lambda": 10.0, "t_final": 0.25, "dt": 0.0125, "seed": 1},
                "grid": {"box": 16.0, "cells": 32},
            }
        )
        draw = harness.sample_initial(base.initial, base.n, base.seed, base.lam, grid=self.spec, want_ensemble=False)
        ratios, stops = self._check_solves(monkeypatch)
        member = sweeps._hydro_member(base, draw, draw.cloud, 4.0, None, 80.0)  # the stiffest hydro-32 member
        assert member.record.ok and len(ratios) == 80 and any(stops)
        assert max(ratios) <= 1.0

    def test_damped_solve_keeps_the_defect_rule(self):
        spec = K.GridSpec(8.0, 32)
        rho = 60.0 * gaussian_density(spec, 0.9)  # heavy enough that the defect grows twice
        j = rho[..., None] * np.array([0.2, 0.1, -1.0])
        got = K.brinkman_solve(rho, j, full_window(spec), tol=1e-11)
        # the loop written out: theta halves where the defect grows, and once damped it stops on its defect only
        # (`TestFixedPoint` has a map where the contraction rule would have stopped it sooner)
        op, rhov = K.get_operator(spec), rho[..., None]
        u, defects, theta, halvings = np.zeros_like(j), [np.inf], 1.0, []
        for it in range(1, 200):
            image = op.apply(j - rhov * u)
            defects.append(K._norm(image - u) / max(K._norm(image), K._norm(u), 1e-300))
            if defects[-1] > defects[-2]:
                theta, halvings = theta * 0.5, halvings + [it]
            u = image if theta == 1.0 else (1.0 - theta) * u + theta * image
            if defects[-1] <= 1e-11:
                break
        assert (halvings, it) == ([2, 4], 61)
        assert (got.iterations, got.residual) == (it, defects[-1]) and got.velocity.tobytes() == u.tobytes()

    def test_converged_start_returns_at_once(self):
        cloud = _phase_cloud(self.spec, 2000, seed=47)
        window = K.stencil_window(self.spec, cloud.x)
        rho, j = K.deposit(cloud, window)
        cold = K.brinkman_solve(rho, j, window)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warm = K.brinkman_solve(rho, j, window, u0=cold)
        assert warm.iterations == 1 and np.isfinite(warm.residual)
        assert np.all(np.isfinite(warm.velocity))
        assert _returned_defect(rho, j, warm) <= 1e-9
