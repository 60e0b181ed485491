import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from conftest import full_window
from sedlab import metrics
from sedlab.errors import ConvergenceError
from sedlab.kernels import GridSpec, deposit, stokes_solve
from sedlab.metrics import (
    ModulatedEnergies,
    energies_to_rows,
    modulated_energies,
    rate_fit,
    wasserstein2,
    wasserstein2_entropic,
    wasserstein2_exact,
    write_metrics_csv,
)


def brute_force_cost(pa, pb):
    n = pa.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = np.sum((pa - pb[list(perm)]) ** 2) / n
        best = min(best, cost)
    return best


class TestExact:
    def test_identical_clouds(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(20, 3))
        out = wasserstein2_exact(a, a)
        assert out.cost == 0.0
        assert np.array_equal(out.pairing, np.arange(20))

    def test_single_pair(self):
        x = np.array([[0.0, 0.0, 0.0]])
        y = np.array([[3.0, 4.0, 0.0]])
        assert wasserstein2_exact(x, y).distance == pytest.approx(5.0, abs=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for n in (2, 4, 6, 8):
            for _ in range(10):
                a = rng.normal(size=(n, 3))
                b = rng.normal(size=(n, 3))
                out = wasserstein2_exact(a, b)
                assert out.cost == pytest.approx(brute_force_cost(a, b), abs=1e-12)

    def test_phase_mode_matches_brute_force(self):
        rng = np.random.default_rng(7)
        a = SimpleNamespace(x=rng.normal(size=(6, 3)), v=rng.normal(size=(6, 3)))
        b = SimpleNamespace(x=rng.normal(size=(6, 3)), v=rng.normal(size=(6, 3)))
        out = wasserstein2_exact(a, b, space="phase")
        packed_a = np.hstack([a.x, a.v])
        packed_b = np.hstack([b.x, b.v])
        assert out.cost == pytest.approx(brute_force_cost(packed_a, packed_b), abs=1e-12)

    def test_metric_axioms(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.normal(size=(16, 3))
            b = rng.normal(size=(16, 3))
            c = rng.normal(size=(16, 3))
            dab = wasserstein2_exact(a, b).distance
            dba = wasserstein2_exact(b, a).distance
            dac = wasserstein2_exact(a, c).distance
            dcb = wasserstein2_exact(c, b).distance
            assert dab == pytest.approx(dba, abs=1e-12)
            assert dab <= dac + dcb + 1e-12

    def test_permutation_sanity_dominance(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(32, 3))
        b = rng.normal(size=(32, 3))
        out = wasserstein2_exact(a, b)
        for _ in range(100):
            perm = rng.permutation(32)
            assert out.cost <= np.mean(np.sum((a - b[perm]) ** 2, axis=1)) + 1e-12

    def test_cost_consistent_with_pairing(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(24, 3))
        b = rng.normal(size=(24, 3))
        out = wasserstein2_exact(a, b)
        recomputed = np.mean(np.sum((a - b[out.pairing]) ** 2, axis=1))
        assert out.cost == pytest.approx(recomputed, abs=1e-12)
        # a permutation coupling has exact marginals by construction
        assert len(np.unique(out.pairing)) == 24

    def test_input_validation(self, monkeypatch):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(8, 3))
        with pytest.raises(ValueError):
            wasserstein2_exact(a, rng.normal(size=(9, 3)))
        with monkeypatch.context() as patch, pytest.raises(ValueError):
            patch.setattr(metrics, "EXACT_CAP", 4)
            wasserstein2_exact(a, rng.normal(size=(8, 3)))
        lopsided = SimpleNamespace(x=a, w=np.linspace(0.1, 0.9, 8) / np.sum(np.linspace(0.1, 0.9, 8)))
        with pytest.raises(ValueError):
            wasserstein2_exact(lopsided, a)
        with pytest.raises(ValueError):
            wasserstein2_exact(a, a, space="spectral")
        # within numpy's default rtol of 1e-5 of 1/64, but not uniform
        c = rng.normal(size=(64, 3))
        near = (1.0 + 9e-6 * np.tile([1.0, -1.0], 32)) / 64
        with pytest.raises(ValueError):
            wasserstein2_exact(SimpleNamespace(x=c, w=near), c + 0.5)
        with pytest.raises(ValueError):
            wasserstein2_exact(c, SimpleNamespace(x=c + 0.5, w=near))


def expanded_reference(pa, pb):
    """Exact W2^2 by splitting each first-cloud atom into m / n explicit
    copies and solving the plain square assignment."""
    expanded = np.repeat(pa, pb.shape[0] // pa.shape[0], axis=0)
    cost = cdist(expanded, pb, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def duplicated_clouds():
    """(label, first cloud, second cloud) with m = k n, spatial and phase."""
    rng = np.random.default_rng(21)
    for k in (2, 3, 8, 16):
        n = 24
        yield f"spatial k={k}", rng.normal(size=(n, 3)), rng.normal(size=(k * n, 3)) + 0.2
        yield f"phase k={k}", rng.normal(size=(n, 6)), rng.normal(size=(k * n, 6))
        # coincident atoms: repeated points in both clouds make exact ties
        pa = rng.normal(size=(6, 3))[rng.integers(0, 6, n)]
        pb = np.vstack([pa[rng.integers(0, n, k * n // 2)], rng.normal(size=(k * n - k * n // 2, 3))])
        yield f"ties k={k}", pa, pb
        # every pair at one point: the median cost is zero
        yield f"one point k={k}", np.ones((n, 3)), np.ones((k * n, 3))


class TestDuplicatedAtoms:
    def test_matches_brute_force_over_the_expansion(self):
        rng = np.random.default_rng(17)
        for m in (4, 6):
            for _ in range(10):
                a = rng.normal(size=(2, 3))
                b = rng.normal(size=(m, 3))
                expanded = np.repeat(a, m // 2, axis=0)
                assert wasserstein2_exact(a, b).cost == pytest.approx(
                    brute_force_cost(expanded, b), abs=1e-12
                )

    @pytest.mark.parametrize("label, pa, pb", list(duplicated_clouds()))
    def test_matches_explicit_expansion(self, label, pa, pb):
        reference = expanded_reference(pa, pb)
        out = wasserstein2_exact(pa, pb)
        assert out.mode == "exact"
        assert abs(out.cost - reference) <= 1e-12 * max(reference, 1e-300)

    def test_phase_clouds_through_views(self):
        rng = np.random.default_rng(3)
        a = SimpleNamespace(x=rng.normal(size=(10, 3)), v=rng.normal(size=(10, 3)), w=np.full(10, 0.1))
        b = SimpleNamespace(x=rng.normal(size=(40, 3)), v=rng.normal(size=(40, 3)), w=np.full(40, 1 / 40))
        out = wasserstein2_exact(a, b, space="phase")
        reference = expanded_reference(np.hstack([a.x, a.v]), np.hstack([b.x, b.v]))
        assert out.cost == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("label, pa, pb", list(duplicated_clouds()))
    def test_pairing_is_a_coupling(self, label, pa, pb):
        n, m = pa.shape[0], pb.shape[0]
        out = wasserstein2_exact(pa, pb)
        # every atom receives k columns, every column is used once
        assert out.pairing.shape == (n, m // n)
        assert np.array_equal(np.sort(out.pairing.ravel()), np.arange(m))
        matched = np.sum((pa[:, None, :] - pb[out.pairing]) ** 2, axis=2)
        assert out.cost == pytest.approx(matched.mean(), rel=1e-14, abs=1e-300)

    def test_equal_sizes_are_the_plain_assignment(self):
        rng = np.random.default_rng(8)
        for n in (1, 5, 64, 300):
            a = rng.normal(size=(n, 6))
            b = rng.normal(size=(n, 6))
            cost = cdist(a, b, "sqeuclidean")
            rows, cols = linear_sum_assignment(cost)
            out = wasserstein2_exact(a, b)
            assert out.cost == float(cost[rows, cols].mean())
            assert np.array_equal(out.pairing[rows], cols)

    def test_sizes_must_divide(self, monkeypatch):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(8, 3))
        for m in (12, 20, 4):
            with pytest.raises(ValueError):
                wasserstein2_exact(a, rng.normal(size=(m, 3)))
        with monkeypatch.context() as patch, pytest.raises(ValueError):
            patch.setattr(metrics, "EXACT_CAP", 16)
            wasserstein2_exact(a, rng.normal(size=(32, 3)))
        with pytest.raises(ValueError):
            wasserstein2_exact(a, rng.normal(size=(16, 2)))

    def test_non_finite_warm_start_stays_exact(self, monkeypatch):
        def broken(cost, work):
            n, m = cost.shape
            return np.full(n, np.nan), np.full(m, np.inf)

        monkeypatch.setattr(metrics, "_warm_potentials", broken)
        for label, pa, pb in duplicated_clouds():
            reference = expanded_reference(pa, pb)
            assert abs(wasserstein2_exact(pa, pb).cost - reference) <= 1e-12 * max(reference, 1e-300)

    def test_one_square_buffer(self):
        rng = np.random.default_rng(6)
        n, m = 250, 2000
        a = rng.normal(size=(n, 6))
        b = rng.normal(size=(m, 6))
        tracemalloc.start()
        try:
            wasserstein2_exact(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * m * m


class TestSolverChoice:
    def test_exact_when_sizes_divide_under_the_cap(self, monkeypatch):
        rng = np.random.default_rng(5)
        a, b, c = rng.normal(size=(8, 3)), rng.normal(size=(16, 3)) + 0.2, rng.normal(size=(12, 3)) + 0.2
        exact = wasserstein2_exact(a, b).distance
        assert wasserstein2(a, b) == exact
        # a cloud without weights counts as uniform
        assert wasserstein2(SimpleNamespace(x=a, w=np.full(8, 1 / 8)), b) == exact
        assert wasserstein2(a, c) == wasserstein2_entropic(a, c).distance  # 8 does not divide 12
        monkeypatch.setattr(metrics, "EXACT_CAP", 8)
        entropic = wasserstein2_entropic(a, b).distance
        assert wasserstein2(a, b) == entropic != exact

    def test_either_order_takes_the_exact_solver(self, monkeypatch):
        # 200 vs 100 samples: the smaller count divides the larger whichever cloud comes first
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(100, 3)), rng.normal(size=(200, 3)) + 0.2

        def refuse(*args, **kwargs):
            raise AssertionError("the entropic solver ran on a pair the exact solver takes")

        monkeypatch.setattr(metrics, "wasserstein2_entropic", refuse)
        forward = wasserstein2(a, b)
        assert forward == wasserstein2_exact(a, b).distance
        assert wasserstein2(b, a) == pytest.approx(forward, rel=1e-12, abs=0.0)


class TestEntropic:
    def test_identical_clouds_score_zero(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(32, 3))
        out = wasserstein2_entropic(a, a)
        assert out.mode == "entropic"
        assert abs(out.cost) < 1e-6

    def test_within_a_percent_of_exact(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(64, 3))
        b = rng.normal(size=(64, 3)) + 0.3
        exact = wasserstein2_exact(a, b)
        approx = wasserstein2_entropic(a, b)
        assert abs(approx.cost - exact.cost) / exact.cost < 0.01
        assert approx.marginal_violation < 1e-6

    def test_stagewise_improvement(self):
        rng = np.random.default_rng(104)
        a = rng.normal(size=(64, 3))
        b = rng.normal(size=(64, 3)) + rng.normal(size=3) * 0.5
        exact = wasserstein2_exact(a, b)
        approx = wasserstein2_entropic(a, b)
        errs = [abs(c - exact.cost) for c in approx.stage_costs]
        assert all(errs[k + 1] <= errs[k] * (1 + 1e-9) for k in range(len(errs) - 1))

    def test_translation_cost(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(48, 3))
        shift = np.array([0.5, 0.0, 0.25])
        out = wasserstein2_entropic(a, a + shift)
        assert out.distance == pytest.approx(np.linalg.norm(shift), rel=0.01)

    def test_marginal_feasibility(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(32, 3))
        b = rng.normal(size=(32, 3))
        out = wasserstein2_entropic(a, b)
        pi = out.pairing
        assert np.abs(pi.sum(axis=1) - 1.0 / 32).max() < 1e-6
        assert np.abs(pi.sum(axis=0) - 1.0 / 32).max() < 1e-6

    def test_unconverged_self_term_raises(self, monkeypatch):
        # at the last eps stage the cross term OT(a, b) meets tol within
        # max_iter, but the debiasing term OT(a, a) needs about ten times as
        # many iterations; the call must not hand back that estimate
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 1.0, size=(32, 1))
        b = rng.normal(0.5, 0.3, size=(32, 1))
        violations = []
        solve = metrics._scale

        def recording(*args):
            out = solve(*args)
            violations.append(out[2])
            return out

        monkeypatch.setattr(metrics, "_scale", recording)
        with pytest.raises(ConvergenceError) as err:
            wasserstein2_entropic(a, b, max_iter=1000)
        cross, self_a, self_b = violations[-3:]
        assert cross < 1e-6 <= self_a
        assert err.value.residual == max(cross, self_a, self_b)
        assert err.value.iterations == 1000

    def test_every_stage_reports_its_worst_violation(self, monkeypatch):
        # 8 vs 12 samples: the fourth eps stage ends above tol after max_iter iterations,
        # the last meets it; the estimate is returned with that stage's violation on record
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((8, 3)), rng.standard_normal((12, 3)) + 0.2
        violations = []
        solve = metrics._scale

        def recording(*args):
            out = solve(*args)
            violations.append(out[2])
            return out

        monkeypatch.setattr(metrics, "_scale", recording)
        out = wasserstein2_entropic(a, b)
        assert len(out.stage_violations) == len(out.stage_costs) == metrics.ENTROPIC_STAGES
        assert out.stage_violations == tuple(max(violations[k : k + 3]) for k in range(0, len(violations), 3))
        assert out.marginal_violation <= out.stage_violations[-1] < 1e-6 <= out.stage_violations[3]

    def test_weight_validation(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(8, 3))
        bad = SimpleNamespace(x=a, w=np.full(8, 1.0))
        with pytest.raises(ValueError):
            wasserstein2_entropic(bad, a)

    @pytest.mark.parametrize("tol, max_iter", [(1e-6, 0), (np.nan, 20000), (0.0, 20000), (np.inf, 20000)])
    def test_tolerance_and_iteration_validation(self, tol, max_iter):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(8, 3))
        with pytest.raises(ValueError):
            wasserstein2_entropic(a, a + 0.5, tol=tol, max_iter=max_iter)

    def test_no_square_temporary_per_iteration(self):
        # three costs and at most two couplings at a time, but no n x m temporary per iteration
        rng = np.random.default_rng(1)
        a = rng.normal(size=(400, 3))
        b = rng.normal(size=(200, 3)) + 0.2
        cost_bytes = 8 * (400 * 200 + 400 * 400 + 200 * 200)
        tracemalloc.start()
        try:
            wasserstein2_entropic(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * cost_bytes


def relaxed_snapshots(rng, spec, n, lam, gravity, times):
    center = spec.box_length / 2.0
    x = center + rng.normal(scale=1.0, size=(n, 3))
    w = np.full(n, 1.0 / n)
    return [
        SimpleNamespace(x=x, v=np.tile(gravity * (1.0 - np.exp(-lam * t)), (n, 1)), w=w)
        for t in times
    ]


SPEC = GridSpec(16.0, 32)
GRAVITY = np.array([0.0, 0.0, -1.0])


def phase_snapshot(rng, n):
    x = SPEC.box_length / 2 + rng.normal(scale=1.2, size=(n, 3))
    return SimpleNamespace(x=x, v=rng.normal(size=(n, 3)), w=np.full(n, 1.0 / n))


class TestModulatedEnergies:
    def test_identical_paired_runs(self):
        rng = np.random.default_rng(10)
        times = np.array([0.0, 0.5, 1.0])
        snaps = [phase_snapshot(rng, 32) for _ in times]
        for entry in modulated_energies(times, snaps, snaps, SPEC, GRAVITY):
            assert entry.E == 0.0 and entry.H == 0.0
            assert np.isfinite(entry.S) and entry.S > 0.0

    def test_second_run_enters_by_its_first_n_samples(self):
        rng = np.random.default_rng(11)
        times = np.array([0.0, 0.5])
        snaps_a = [phase_snapshot(rng, 16) for _ in times]
        longer = [phase_snapshot(rng, 32) for _ in times]
        prefix = [SimpleNamespace(x=s.x[:16], v=s.v[:16]) for s in longer]
        got = modulated_energies(times, snaps_a, longer, SPEC, GRAVITY)
        assert got == modulated_energies(times, snaps_a, prefix, SPEC, GRAVITY)
        assert all(entry.E > 0.0 and entry.H > 0.0 for entry in got)

    def test_series_of_unequal_length_rejected(self):
        rng = np.random.default_rng(11)
        snaps = [phase_snapshot(rng, 8) for _ in range(2)]
        with pytest.raises(ValueError):
            modulated_energies(np.array([0.0, 0.5]), snaps, snaps[:1], SPEC, GRAVITY)
        with pytest.raises(ValueError):
            modulated_energies(np.array([0.0]), snaps, snaps, SPEC, GRAVITY)

    def test_decoupled_relaxation_matches_closed_form(self):
        # u forced to zero and V0 = 0 gives v(t) = g (1 - e^{-lam t}); with a
        # weak ambient field S(t) tracks (1/2) e^{-2 lam t} until the field
        # plateau takes over
        rng = np.random.default_rng(11)
        lam = 4.0
        times = np.array([0.0, 0.05, 0.1, 0.2])
        snaps = relaxed_snapshots(rng, SPEC, 512, lam, GRAVITY, times)
        series = modulated_energies(times, snaps, snaps, SPEC, GRAVITY)
        for entry in series:
            ratio = entry.S / (0.5 * np.exp(-2.0 * lam * entry.t))
            assert 1.0 < ratio < 1.2
        assert abs(series[0].S - 0.5) < 0.05

    def test_s_wiring_against_direct_computation(self):
        rng = np.random.default_rng(12)
        snap = phase_snapshot(rng, 128)
        entry = modulated_energies(np.array([0.0]), [snap], [snap], SPEC, GRAVITY)[0]
        rho, _ = deposit(snap, full_window(SPEC))
        fluid = stokes_solve(rho[..., None] * GRAVITY, full_window(SPEC))
        field_v = fluid.at(snap.x)
        expected = 0.5 * np.mean(np.sum((snap.v - GRAVITY - field_v) ** 2, axis=1))
        assert entry.S == pytest.approx(expected, rel=1e-12)

    def test_product_coupling_dominates_w2(self):
        # any fixed pairing is a feasible coupling, so W2^2 <= 2E + 2H
        rng = np.random.default_rng(13)
        for _ in range(5):
            xa, va = SPEC.box_length / 2 + rng.normal(size=(2, 24, 3))
            xb, vb = xa + rng.normal(scale=0.3, size=(24, 3)), va + rng.normal(
                scale=0.3, size=(24, 3)
            )
            w = np.full(24, 1.0 / 24)
            a, b = SimpleNamespace(x=xa, v=va, w=w), SimpleNamespace(x=xb, v=vb, w=w)
            entry = modulated_energies(np.array([0.0]), [a], [b], SPEC, GRAVITY)[0]
            w2 = wasserstein2_exact(a, b, space="phase")
            assert w2.cost <= 2.0 * entry.E + 2.0 * entry.H + 1e-12

    def test_nonnegativity_enforced(self):
        with pytest.raises(ValueError):
            ModulatedEnergies(t=0.0, S=-1.0, E=0.0, H=0.0)


class TestRateFit:
    def test_powerlaw_exact(self):
        x = np.linspace(1.0, 9.0, 12)
        slope, r2 = rate_fit(x, 7.0 / x, model="powerlaw")
        assert slope == pytest.approx(-1.0, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_exponential_exact(self):
        t = np.linspace(0.0, 2.0, 9)
        rate, r2 = rate_fit(t, 3.0 * np.exp(-5.0 * t), model="exponential")
        assert rate == pytest.approx(-5.0, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_noisy_powerlaw(self):
        rng = np.random.default_rng(21)
        lam = np.array([10.0, 20.0, 40.0, 80.0])
        y = 3.0 / lam * np.exp(rng.normal(scale=0.05, size=4))
        slope, r2 = rate_fit(lam, y, model="powerlaw")
        assert abs(slope + 1.0) < 0.1
        assert r2 > 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            rate_fit([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            rate_fit([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
        with pytest.raises(ValueError):
            rate_fit([0.0, 2.0, 3.0], [1.0, 2.0, 3.0], model="powerlaw")
        with pytest.raises(ValueError):
            rate_fit([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], model="cubic")


class TestCsv:
    def test_tidy_output(self, tmp_path):
        series = [
            ModulatedEnergies(t=0.0, S=0.5, E=0.1, H=0.2),
            ModulatedEnergies(t=1.0, S=0.25, E=0.05, H=0.1),
        ]
        with pytest.raises(ValueError):  # a NaN energy never reaches the file
            ModulatedEnergies(t=1.0, S=np.nan, E=0.05, H=0.1)
        path = tmp_path / "energies.csv"
        write_metrics_csv(path, "run7", energies_to_rows(series))
        raw = path.read_bytes().decode()
        assert "\r\n" in raw
        lines = raw.strip().split("\r\n")
        assert lines[0] == "run_id,t,metric,value"
        # S, E, H at t = 0, then at t = 1
        assert len(lines) == 1 + 6
        assert lines[1].split(",") == ["run7", "0.0", "S", "0.5"]
        assert lines[4].split(",") == ["run7", "1.0", "S", "0.25"]
