import numpy as np
import pytest
from scipy.integrate import solve_ivp

from sedlab.bounds import (
    GronwallEnvelope,
    comparison_system,
    envelope_a,
    envelope_b,
)
from sedlab.errors import AssumptionError


def integrate_comparison(env, t_grid):
    sol = solve_ivp(
        comparison_system(env),
        (t_grid[0], t_grid[-1]),
        [env.a0, env.b0],
        method="DOP853",
        rtol=1e-11,
        atol=1e-13,
        t_eval=t_grid,
    )
    assert sol.success
    return sol.y


class TestGronwallEnvelope:
    def test_equality_case_evaluates_to_e(self):
        env = GronwallEnvelope(C=1.0, c=1.0, lam=1.0, d=0.0, a0=1.0, b0=0.0)
        assert abs(envelope_a(env, 1.0) - np.e) < 1e-12

    def test_t_zero_returns_initial_data(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            env = GronwallEnvelope(
                C=rng.uniform(1, 3),
                c=rng.uniform(1, 3),
                lam=rng.uniform(0.5, 50),
                d=rng.uniform(0, 2),
                a0=rng.uniform(0, 2),
                b0=rng.uniform(0, 2),
            )
            assert envelope_a(env, 0.0) == pytest.approx(env.a0, abs=1e-15)
            assert envelope_b(env, 0.0) == pytest.approx(env.b0, abs=1e-15)

    def test_pure_growth_collapse(self):
        # without forcing and without b-data the a-envelope is a plain exponential
        env = GronwallEnvelope(C=2.5, c=1.5, lam=10.0, d=0.0, a0=0.7, b0=0.0)
        t = np.linspace(0, 3, 31)
        assert np.allclose(envelope_a(env, t), 0.7 * np.exp(2.5 * t), rtol=1e-14)

    def test_zero_data_zero_envelope(self):
        env = GronwallEnvelope(C=1.5, c=2.0, lam=5.0, d=0.0, a0=0.0, b0=0.0)
        t = np.linspace(0, 3, 16)
        assert np.all(envelope_a(env, t) == 0.0)
        assert np.all(envelope_b(env, t) == 0.0)

    def test_parameter_validation(self):
        with pytest.raises(AssumptionError):
            GronwallEnvelope(C=0.5, c=1.0, lam=1.0)
        with pytest.raises(AssumptionError):
            GronwallEnvelope(C=1.0, c=0.0, lam=1.0)
        with pytest.raises(AssumptionError):
            GronwallEnvelope(C=1.0, c=1.0, lam=-1.0)
        with pytest.raises(AssumptionError):
            GronwallEnvelope(C=1.0, c=1.0, lam=1.0, d=-0.1)
        with pytest.raises(ValueError):
            envelope_a(GronwallEnvelope(C=1.0, c=1.0, lam=1.0), -0.5)

    def test_domination_over_comparison_system(self):
        # the extremal trajectory must stay below both closed forms everywhere
        rng = np.random.default_rng(1234)
        t = np.linspace(0.0, 3.0, 301)
        for _ in range(100):
            env = GronwallEnvelope(
                C=rng.uniform(1, 3),
                c=rng.uniform(1, 3),
                lam=rng.uniform(0.5, 50),
                d=rng.uniform(0, 2),
                a0=rng.uniform(0, 2),
                b0=rng.uniform(0, 2),
            )
            assert env.guarantees_domination
            a, b = integrate_comparison(env, t)
            ea = envelope_a(env, t)
            eb = envelope_b(env, t)
            assert np.all(a <= ea * (1 + 1e-9) + 1e-12)
            assert np.all(b <= eb * (1 + 1e-9) + 1e-12)

    def test_domination_lost_below_unit_damping(self):
        # weak damping with strong relaxation grows faster than e^{Ct}
        env = GronwallEnvelope(C=2.0, c=0.2, lam=40.0, d=0.0, a0=1.0, b0=0.0)
        assert not env.guarantees_domination
        t = np.linspace(0.0, 3.0, 301)
        a, _ = integrate_comparison(env, t)
        assert np.max(a / envelope_a(env, t)) > 10.0

    def test_initial_slope_sharp_without_forcing(self):
        # with a0 = d = 0 the a-envelope's initial slope equals b0, the
        # largest slope any admissible pair can have there
        env = GronwallEnvelope(C=2.0, c=1.5, lam=8.0, d=0.0, a0=0.0, b0=1.3)
        h = 1e-8
        slope = (envelope_a(env, h) - envelope_a(env, 0.0)) / h
        assert slope == pytest.approx(env.b0, rel=1e-6)

    def test_monotone_in_data_and_forcing(self):
        rng = np.random.default_rng(99)
        t = np.linspace(0.0, 3.0, 61)
        for _ in range(25):
            base = dict(
                C=rng.uniform(1, 3),
                c=rng.uniform(1, 3),
                lam=rng.uniform(0.5, 50),
                d=rng.uniform(0, 2),
                a0=rng.uniform(0, 2),
                b0=rng.uniform(0, 2),
            )
            lo = GronwallEnvelope(**base)
            for key in ("a0", "b0", "d"):
                bumped = dict(base)
                bumped[key] = base[key] + rng.uniform(0.1, 1.0)
                hi = GronwallEnvelope(**bumped)
                assert np.all(envelope_a(hi, t) >= envelope_a(lo, t) - 1e-14)
                assert np.all(envelope_b(hi, t) >= envelope_b(lo, t) - 1e-14)
