"""Particle-method solver for the kinetic tier.

A phase-space probability measure is carried by weighted samples.  Each step
deposits density and momentum on a grid, solves the damped Stokes (Brinkman)
problem for the fluid velocity u, and pushes every sample through the stiff
relaxation

    x' = v,   v' = lam (g + u(x) - v)

with u frozen over the step and the linear part integrated exactly, the same
splitting the discrete-particle tier uses.  Weights never change: the cloud
is a push-forward of its initial measure.

The energy budget tracks the identity

    (1/2) dM2/dt + lam |grad u|_2^2 + lam int |u - v|^2 df = lam int v . g df

term by term.  The derivative slot is filled by the caller from adjacent
M2 samples (centered differences need neighbors a single step cannot see).
"""

from dataclasses import dataclass, replace

import numpy as np

from .csvfile import write_csv
from .kernels import (
    FluidState,
    VectorGrid,
    brinkman_solve,
    deposit,
    interpolate,
)

DEFAULT_MOMENT_ORDERS = (0.0, 1.0, 2.0, 3.0, 9.0, 9.5)


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
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.v, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if x.ndim != 2 or x.shape[1] != 3 or x.shape != v.shape:
            raise ValueError("x and v must be matching (N, 3) arrays")
        if w.shape != (x.shape[0],):
            raise ValueError("w must be an (N,) weight vector")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise ValueError("positions and velocities must be finite")
        if self.lam <= 0.0:
            raise ValueError("lam must be positive")
        gravity = np.asarray(self.gravity, dtype=float)
        if gravity.shape != (3,) or abs(np.linalg.norm(gravity) - 1.0) > 1e-12:
            raise ValueError("gravity must be a unit 3-vector")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "gravity", gravity)

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
    grad_term: float
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


def energy_budget(cloud, fluid, dm2_dt=np.nan):
    """Instantaneous terms of the energy identity for a cloud and its field."""
    m2 = float(cloud.w @ np.sum(cloud.v**2, axis=1))
    grad_term = cloud.lam * fluid.dirichlet_energy
    u_at = interpolate(fluid.velocity, cloud.x)
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

    Interior slots get centered differences over the M2 samples; the first
    slot gets the second-order one-sided stencil so its accuracy matches.
    final_m2 is M2 of the cloud after the last recorded step.
    """
    if len(budgets) < 2:
        return list(budgets)
    m2 = [b.m2 for b in budgets] + [float(final_m2)]
    out = []
    for k, b in enumerate(budgets):
        if k == 0:
            d = (-3.0 * m2[0] + 4.0 * m2[1] - m2[2]) / (2.0 * dt)
        else:
            d = (m2[k + 1] - m2[k - 1]) / (2.0 * dt)
        out.append(replace(b, dm2_dt=d))
    return out


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


def _zero_fluid(grid):
    zero = VectorGrid(grid, np.zeros((grid.n, grid.n, grid.n, 3)))
    return FluidState(velocity=zero, residual=0.0, iterations=0)


def vlasov_step(cloud, grid, dt, coupling=True, theta=1.0, tol=1e-9, max_iter=200, u0=None):
    """Advance the cloud one step; returns (new cloud, fluid, start-of-step budget).

    coupling=False forces u to zero, leaving the pure relaxation toward g;
    u0 warm-starts the Brinkman fixed point with the previous step's field.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if coupling:
        rho, j = deposit(cloud, grid)
        fluid = brinkman_solve(rho, j, tol=tol, max_iter=max_iter, theta=theta, u0=u0)
        u_at = interpolate(fluid.velocity, cloud.x)
    else:
        fluid = _zero_fluid(grid)
        u_at = np.zeros_like(cloud.v)
    budget = energy_budget(cloud, fluid)
    x_new, v_new = relaxation_push(cloud.x, cloud.v, cloud.gravity[None, :] + u_at, cloud.lam, dt)
    new_cloud = replace(cloud, x=x_new, v=v_new, time=cloud.time + dt)
    return new_cloud, fluid, budget


@dataclass(frozen=True)
class MomentReport:
    """Velocity moments M_k = sum w |v|^k and grid L^p norms of the density."""

    m: dict
    lp_rho: dict


def moments(cloud, k_set=DEFAULT_MOMENT_ORDERS, grid=None, p_set=(1.0, 4.0 / 3.0, 4.0)):
    speeds = np.linalg.norm(cloud.v, axis=1)
    m = {float(k): float(cloud.w @ speeds**k) for k in k_set}
    lp = {}
    if grid is not None:
        rho, _ = deposit(cloud, grid)
        cell = grid.cell_volume
        for p in p_set:
            lp[float(p)] = float((np.sum(np.abs(rho.values) ** p) * cell) ** (1.0 / p))
    return MomentReport(m=m, lp_rho=lp)


@dataclass
class FieldHistory:
    """Per-step record of the frozen fields a run used.

    fields entries may be None for steps taken with the coupling switched
    off; grad_sup_norms then contribute zero to the expansion factor.
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
    """Push one phase point through the recorded frozen fields."""
    x = np.array(x0, dtype=float)
    w = np.array(w0, dtype=float)
    for dt, field in zip(history.dts, history.fields):
        u_at = np.zeros(3) if field is None else interpolate(field, x)
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
    """Probe the Jacobian bounds of the recorded flow at sampled phase points."""
    lam = cloud0.lam
    gravity = cloud0.gravity
    grad_sup = max(history.grad_sup_norms, default=0.0)
    applicable = lam >= 4.0 * (1.0 + grad_sup)
    t = history.duration
    expansion = history.expansion_factor()

    rng = np.random.default_rng(seed)
    idx = rng.choice(cloud0.n, size=min(probes, cloud0.n), replace=False)
    dets = []
    inv_lips = []
    for i in idx:
        base_x = cloud0.x[i]
        base_w = cloud0.v[i]
        jac = np.empty((6, 6))
        for col in range(6):
            bump = np.zeros(6)
            bump[col] = delta
            xp, wp = replay_flow(history, base_x + bump[:3], base_w + bump[3:], gravity, lam)
            xm, wm = replay_flow(history, base_x - bump[:3], base_w - bump[3:], gravity, lam)
            jac[:3, col] = (xp - xm) / (2.0 * delta)
            jac[3:, col] = (wp - wm) / (2.0 * delta)
        a, b = jac[:3, :3], jac[:3, 3:]
        c, d = jac[3:, :3], jac[3:, 3:]
        dets.append(abs(np.linalg.det(d)))
        # velocity derivative of the inverse map at fixed current position
        schur = d - c @ np.linalg.solve(a, b)
        inv_lips.append(np.linalg.norm(np.linalg.inv(schur), ord=2))
    return JacobianReport(
        applicable=bool(applicable),
        t=t,
        expansion=expansion,
        det_values=np.array(dets),
        det_bound=expansion**3 * np.exp(-3.0 * lam * t),
        inverse_lip=np.array(inv_lips),
        inverse_bound=expansion * np.exp(lam * t),
    )


def save_cloud_csv(cloud, path):
    table = np.hstack([cloud.x, cloud.v, cloud.w[:, None]])
    write_csv(path, ["id", "x", "y", "z", "vx", "vy", "vz", "w"], ([i, *r] for i, r in enumerate(table)))


def save_budget_csv(budgets, path):
    write_csv(
        path,
        ["t", "m2", "grad_term", "friction_term", "gravity_term", "residual"],
        ((b.t, b.m2, b.grad_term, b.friction_term, b.gravity_term, b.residual) for b in budgets),
    )
