"""Particle-method solver for the kinetic tier.

A phase-space probability measure is carried by weighted samples.  Each step
deposits density and momentum on the window of the samples' stencils in a
grid, solves the damped Stokes (Brinkman) problem for the fluid velocity u
there, and pushes every sample through the stiff relaxation

    x' = v,   v' = lam (g + u(x) - v)

with u frozen over the step and the linear part integrated exactly, the same
splitting the discrete-particle tier uses.  Weights never change: the cloud
is a push-forward of its initial measure.

The energy budget tracks the identity

    (1/2) dM2/dt + lam |grad u|_2^2 + lam int |u - v|^2 df = lam int v . g df

term by term.  The derivative slot is filled by the caller from adjacent
M2 samples (centered differences need neighbors a single step cannot see).
|grad u|_2^2 is the weak form of the Brinkman solve, h^3 <u, f> with its
force f = j - rho u: the budget closes only if the push reads that field.
"""

from dataclasses import dataclass, replace

import numpy as np

from .csvfile import write_csv
from .kernels import brinkman_solve, deposit, stencil_window
from .transport import admit_samples


@dataclass(frozen=True)
class PhaseCloud:
    """Weighted phase-space samples of a probability measure."""

    x: np.ndarray
    v: np.ndarray
    w: np.ndarray
    lam: float
    gravity: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        admit_samples(self)
        v = np.asarray(self.v, dtype=float)
        if v.shape != self.x.shape:
            raise ValueError("x and v must be matching (N, 3) arrays")
        if not np.all(np.isfinite(v)):
            raise ValueError("velocities must be finite")
        if self.lam <= 0.0:
            raise ValueError("lam must be positive")
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class EnergyBudget:
    """One time slice of the energy identity.

    dm2_dt stays NaN until the caller fills it in from neighboring M2
    samples; the residual is signed so systematic drifts stay visible.
    """

    t: float
    m2: float
    grad_term: float  # lam h^3 <u, f>: the whole-space Dirichlet energy of the solve, times lam
    friction_term: float
    gravity_term: float
    dm2_dt: float = np.nan

    @property
    def residual(self) -> float:
        return 0.5 * self.dm2_dt + self.grad_term + self.friction_term - self.gravity_term

    @property
    def term_scale(self) -> float:
        return (
            abs(0.5 * self.dm2_dt)
            + abs(self.grad_term)
            + abs(self.friction_term)
            + abs(self.gravity_term)
        )


def energy_budget(cloud, fluid, u_at, dm2_dt=np.nan):
    """Instantaneous terms of the energy identity; u_at is the field at the samples, `fluid.at(cloud.x)`,
    and grad_term pairs the solve's field with its force on its window (`FluidState.dirichlet_energy`)."""
    m2 = float(cloud.w @ np.sum(cloud.v**2, axis=1))
    grad_term = cloud.lam * fluid.dirichlet_energy
    friction_term = cloud.lam * float(cloud.w @ np.sum((u_at - cloud.v) ** 2, axis=1))
    gravity_term = cloud.lam * float(cloud.w @ (cloud.v @ cloud.gravity))
    return EnergyBudget(
        t=cloud.time,
        m2=m2,
        grad_term=grad_term,
        friction_term=friction_term,
        gravity_term=gravity_term,
        dm2_dt=dm2_dt,
    )


def finalize_budgets(budgets, final_m2, dt):
    """Fill the dm2_dt slots of a fixed-step budget series.

    Interior slots get `np.gradient`'s centered differences over the M2
    samples; the first slot gets the second-order one-sided stencil, written
    out since `np.gradient`'s edge_order=2 rounds it differently.
    final_m2 is M2 of the cloud after the last recorded step.
    """
    if len(budgets) < 2:
        return list(budgets)
    m2 = np.array([b.m2 for b in budgets] + [float(final_m2)])
    dm2_dt = np.gradient(m2, dt)[:-1]
    dm2_dt[0] = (-3.0 * m2[0] + 4.0 * m2[1] - m2[2]) / (2.0 * dt)
    return [replace(b, dm2_dt=d) for b, d in zip(budgets, dm2_dt.tolist())]


def relaxation_push(x, v, drift, lam, dt):
    """Exact flow over dt of x' = v, v' = lam (drift - v) with the drift frozen:

        v+ = drift + e^{-lam dt} (v - drift)
        x+ = x + dt drift + (1 - e^{-lam dt}) (v - drift) / lam

    Returns (x+, v+); `micro.step`, `vlasov_step` and `replay_flow` all push
    through here.
    """
    deviation = v - drift
    decay = np.exp(-lam * dt)
    return x + dt * drift + (1.0 - decay) / lam * deviation, drift + decay * deviation


def relaxation_weights(decay, count):
    """Weights, newest first, that extrapolate a sequence's next term from its last `count` terms.

    They are the coefficients of (E - 1)(E - r)^2 for three or more terms,
    (E - 1)(E - r) for two and E - 1 for one, r = `decay`, so the next term
    is exact for a + b r^k + c k r^k, for a + b r^k and for a constant.
    With r = e^{-lam dt}, the factor by which `relaxation_push` shrinks a
    velocity's deviation in a step, that is the mode a run's fluid and
    closure relax in; the runner starts each solve from this extrapolation
    of its last three solutions.  No terms give no weights.
    """
    r = decay
    return ((), (1.0,), (1.0 + r, -r), (1.0 + 2.0 * r, -(2.0 * r + r * r), r * r))[min(count, 3)]


def vlasov_step(cloud, grid, dt, tol=1e-9, u0=None, budget=True):
    """Advance the cloud one step; returns (new cloud, fluid, start-of-step budget).

    The fluid lives on the window of the samples' stencils in `grid`
    (`kernels.stencil_window`): the step deposits there, solves there and
    reads u at the samples there.  u0, earlier solves' fields, starts the
    Brinkman fixed point and is passed through as `brinkman_solve`'s u0:
    one earlier `FluidState`, or the runner's list of weighted fields
    (`relaxation_weights`).  budget=False leaves the budget slot None.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    window = stencil_window(grid, cloud.x)
    rho, j = deposit(cloud, window)
    fluid = brinkman_solve(rho, j, window, tol=tol, u0=u0)
    u_at = fluid.at(cloud.x)
    terms = energy_budget(cloud, fluid, u_at) if budget else None
    x_new, v_new = relaxation_push(cloud.x, cloud.v, cloud.gravity[None, :] + u_at, cloud.lam, dt)
    new_cloud = replace(cloud, x=x_new, v=v_new, time=cloud.time + dt)
    return new_cloud, fluid, terms


@dataclass
class FieldHistory:
    """Per-step record of the frozen fields a run used.

    fields entries are the steps' `FluidState`s, or None for steps taken
    with u = 0, which `replay_flow` reads so; their grad_sup_norms of zero
    contribute nothing to the expansion factor.
    """

    dts: list
    fields: list
    grad_sup_norms: list

    def append(self, dt, field, grad_sup_norm):
        self.dts.append(float(dt))
        self.fields.append(field)
        self.grad_sup_norms.append(float(grad_sup_norm))

    @property
    def duration(self) -> float:
        return float(np.sum(self.dts))

    def expansion_factor(self) -> float:
        """A(t) = exp(int 2 |grad u|_inf ds) accumulated over the record."""
        return float(np.exp(2.0 * np.dot(self.dts, self.grad_sup_norms)))


def replay_flow(history, x0, w0, gravity, lam):
    """Push phase points, (3,) or (k, 3) positions and velocities, through the recorded frozen fields."""
    x = np.array(x0, dtype=float)
    w = np.array(w0, dtype=float)
    for dt, field in zip(history.dts, history.fields):
        u_at = 0.0 if field is None else field.at(x)
        x, w = relaxation_push(x, w, gravity + u_at, lam, dt)
    return x, w


@dataclass(frozen=True)
class JacobianReport:
    """Finite-difference probes of the flow map's velocity derivatives.

    det_values holds |det dW/dw| at fixed initial position per probe point;
    the admissible ceiling is expansion^3 e^{-3 lam t}.  inverse_lip holds
    the operator norm of the initial-velocity derivative of the inverse map,
    bounded by expansion e^{lam t}.  applicable reflects the strong-damping
    precondition lam >= 4 (1 + sup |grad u|_inf).
    """

    applicable: bool
    t: float
    expansion: float
    det_values: np.ndarray
    det_bound: float
    inverse_lip: np.ndarray
    inverse_bound: float


def jacobian_check(cloud0, history, probes=4, delta=1e-4, seed=0):
    """Probe the Jacobian bounds of the recorded flow at sampled phase points.

    Each probe's 6x6 Jacobian is the central difference over +-delta along each phase
    coordinate; all probes' twelve starts go through one `replay_flow`.
    """
    lam = cloud0.lam
    applicable = lam >= 4.0 * (1.0 + max(history.grad_sup_norms, default=0.0))
    t = history.duration
    expansion = history.expansion_factor()

    idx = np.random.default_rng(seed).choice(cloud0.n, size=min(probes, cloud0.n), replace=False)
    base = np.hstack([cloud0.x[idx], cloud0.v[idx]])[:, None, :]
    bumps = delta * np.eye(6)
    starts = np.concatenate([base + bumps, base - bumps]).reshape(-1, 6)
    x, w = replay_flow(history, starts[:, :3], starts[:, 3:], cloud0.gravity, lam)
    ends = np.hstack([x, w]).reshape(2, len(idx), 6, 6)  # (sign, probe, bumped coordinate, end coordinate)
    jac = np.swapaxes((ends[0] - ends[1]) / (2.0 * delta), 1, 2)
    a, b, c, d = jac[:, :3, :3], jac[:, :3, 3:], jac[:, 3:, :3], jac[:, 3:, 3:]
    # velocity derivative of the inverse map at fixed current position
    schur = d - c @ np.linalg.solve(a, b)
    return JacobianReport(
        applicable=bool(applicable),
        t=t,
        expansion=expansion,
        det_values=np.abs(np.linalg.det(d)),
        det_bound=expansion**3 * np.exp(-3.0 * lam * t),
        inverse_lip=np.linalg.norm(np.linalg.inv(schur), ord=2, axis=(1, 2)),
        inverse_bound=expansion * np.exp(lam * t),
    )


def save_budget_csv(budgets, path):
    write_csv(
        path,
        ["t", "m2", "grad_term", "friction_term", "gravity_term", "residual"],
        ((b.t, b.m2, b.grad_term, b.friction_term, b.gravity_term, b.residual) for b in budgets),
    )
