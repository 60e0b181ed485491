"""Wasserstein-2 distances, transport couplings and modulated energies.

Two solvers cover the two regimes that matter here: an exact assignment
solver for equal-size uniformly weighted clouds (the empirical measures all
tiers produce), and a debiased entropic solver for instances too large for
the exact path.  On top of the distances, `modulated_energies` evaluates the
quadratic functionals S, Z, E, H that track how far a kinetic run sits from
its own steady transport field (S) and how far two coupled runs have drifted
apart in position (Z, H) and velocity (E).  All couplings in cross-tier
comparisons are fixed at t = 0 and pushed forward by the dynamics, so paired
samples keep their indices for all time.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .csvfile import write_csv
from .errors import ConvergenceError
from .kernels import interpolate
from .transport import steady_velocity_field

EXACT_CAP = 4096


@dataclass(frozen=True)
class TransportCoupling:
    """An optimal (or entropically relaxed) coupling and its quadratic cost.

    For exact mode `pairing` is a permutation: sample i of the first cloud is
    matched to sample pairing[i] of the second, each carrying mass 1/n.  For
    entropic mode `pairing` is the full coupling matrix.  `cost` estimates
    the squared Wasserstein-2 distance.
    """

    pairing: np.ndarray
    cost: float
    mode: str
    eps_final: float = 0.0
    marginal_violation: float = 0.0
    stage_costs: tuple = ()

    @property
    def distance(self) -> float:
        # debiased entropic estimates can undershoot zero by roundoff
        return float(np.sqrt(max(self.cost, 0.0)))


def _cloud_arrays(cloud):
    if hasattr(cloud, "x"):
        x = np.asarray(cloud.x, dtype=float)
        v = getattr(cloud, "v", None)
        v = None if v is None else np.asarray(v, dtype=float)
        w = getattr(cloud, "w", None)
        w = None if w is None else np.asarray(w, dtype=float)
        return x, v, w
    arr = np.atleast_2d(np.asarray(cloud, dtype=float))
    return arr, None, None


def _as_samples(cloud, space):
    """Flatten a cloud to sample points in the requested comparison space."""
    x, v, w = _cloud_arrays(cloud)
    if space == "spatial":
        return x, w
    if space == "phase":
        if v is None:
            raise ValueError("phase mode needs velocities on both clouds")
        return np.hstack([x, v]), w
    raise ValueError(f"space must be 'spatial' or 'phase', got {space!r}")


def _require_uniform(w, n):
    if w is None:
        return
    if w.shape != (n,) or not np.allclose(w, 1.0 / n, atol=1e-12):
        raise ValueError("exact mode requires equal uniform weights")


def wasserstein2_exact(a, b, space="spatial", cap=EXACT_CAP):
    """Optimal assignment between two equal-size uniformly weighted clouds.

    Squared Euclidean ground cost; in phase mode the cost of a pair is
    |x1 - x2|^2 + |v1 - v2|^2.  The squared distance is the mean matched
    cost and the returned coupling carries the optimal permutation.
    """
    pa, wa = _as_samples(a, space)
    pb, wb = _as_samples(b, space)
    if pa.shape != pb.shape:
        raise ValueError(
            f"exact mode requires equal sample counts and dimensions, got {pa.shape} vs {pb.shape}"
        )
    n = pa.shape[0]
    if n > cap:
        raise ValueError(f"{n} samples exceeds the exact-mode cap {cap}; use wasserstein2_entropic")
    _require_uniform(wa, n)
    _require_uniform(wb, n)
    cost_matrix = cdist(pa, pb, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost_matrix)
    pairing = np.empty(n, dtype=np.int64)
    pairing[rows] = cols
    cost = float(cost_matrix[rows, cols].mean())
    return TransportCoupling(pairing=pairing, cost=cost, mode="exact")


def _normalized_weights(w, n):
    if w is None:
        return np.full(n, 1.0 / n)
    if w.shape != (n,) or np.any(w <= 0.0):
        raise ValueError("weights must be strictly positive probability vectors")
    total = w.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {total}")
    return w / total


def _sinkhorn_potentials(cost, log_wa, log_wb, eps, f, g, tol, max_iter):
    """Log-domain scaling iterations at fixed eps, warm-started at (f, g)."""
    wa = np.exp(log_wa)
    wb = np.exp(log_wb)
    violation = np.inf
    for it in range(max_iter):
        f = -eps * _lse((g[None, :] - cost) / eps + log_wb[None, :], axis=1)
        g = -eps * _lse((f[:, None] - cost) / eps + log_wa[:, None], axis=0)
        if it % 5 == 4 or it == max_iter - 1:
            log_pi = (f[:, None] + g[None, :] - cost) / eps + log_wa[:, None] + log_wb[None, :]
            pi = np.exp(log_pi)
            violation = max(
                np.abs(pi.sum(axis=1) - wa).max(), np.abs(pi.sum(axis=0) - wb).max()
            )
            if violation < tol:
                return f, g, pi, violation, it + 1
    return f, g, pi, violation, max_iter


def _lse(arr, axis):
    m = arr.max(axis=axis, keepdims=True)
    out = m.squeeze(axis) + np.log(np.exp(arr - m).sum(axis=axis))
    return out


def _stage_cost(cost, log_wa, log_wb, eps, tol, max_iter, f0=None, g0=None):
    """One annealing stage: returns the midpoint of the transport cost
    <pi, C> and the dual value f.wa + g.wb, which bracket the unregularized
    optimum from below and above."""
    n, m = cost.shape
    f = np.zeros(n) if f0 is None else f0
    g = np.zeros(m) if g0 is None else g0
    f, g, pi, violation, iters = _sinkhorn_potentials(cost, log_wa, log_wb, eps, f, g, tol, max_iter)
    sharp = float((pi * cost).sum())
    dual = float(f @ np.exp(log_wa) + g @ np.exp(log_wb))
    return 0.5 * (sharp + dual), pi, f, g, violation, iters


def wasserstein2_entropic(
    a,
    b,
    space="spatial",
    eps_schedule=None,
    tol=1e-6,
    max_iter=20000,
    eps_final_factor=0.01,
    eps_stages=5,
):
    """Debiased entropic estimate of the squared Wasserstein-2 distance.

    Runs log-domain scaling iterations along a geometric schedule of the
    regularization eps (default: 10x the median ground cost down to
    eps_final_factor times it, over eps_stages stages, warm-starting the
    potentials).  Each stage scores a cloud pair by the midpoint of the
    transport cost <pi, C> and the dual value, which bracket the true
    optimum, and removes the self-transport bias:
    cost = score(a,b) - (score(a,a) + score(b,b))/2.  The bias removal makes
    identical clouds score exactly zero and pulls the 64-sample regime well
    within a percent of the exact solver.  A looser eps_final_factor trades
    accuracy for iteration count; an explicit eps_schedule overrides both
    knobs.
    """
    pa, wa = _as_samples(a, space)
    pb, wb = _as_samples(b, space)
    n, m = pa.shape[0], pb.shape[0]
    wa = _normalized_weights(wa, n)
    wb = _normalized_weights(wb, m)
    cost_ab = cdist(pa, pb, "sqeuclidean")
    cost_aa = cdist(pa, pa, "sqeuclidean")
    cost_bb = cdist(pb, pb, "sqeuclidean")
    scale = float(np.median(cost_ab))
    if scale <= 0.0:
        # all cross costs vanish: the clouds sit on one common point
        return TransportCoupling(
            pairing=np.outer(wa, wb), cost=0.0, mode="entropic", eps_final=0.0
        )
    if eps_schedule is None:
        eps_schedule = np.geomspace(10.0 * scale, eps_final_factor * scale, int(eps_stages))
    log_wa = np.log(wa)
    log_wb = np.log(wb)
    stage_costs = []
    f_ab = g_ab = f_aa = g_aa = f_bb = g_bb = None
    for eps in eps_schedule:
        ab, pi_ab, f_ab, g_ab, violation, _ = _stage_cost(
            cost_ab, log_wa, log_wb, eps, tol, max_iter, f_ab, g_ab
        )
        aa, _, f_aa, g_aa, _, _ = _stage_cost(
            cost_aa, log_wa, log_wa, eps, tol, max_iter, f_aa, g_aa
        )
        bb, _, f_bb, g_bb, _, _ = _stage_cost(
            cost_bb, log_wb, log_wb, eps, tol, max_iter, f_bb, g_bb
        )
        stage_costs.append(ab - 0.5 * (aa + bb))
    if violation >= tol:
        raise ConvergenceError(
            "entropic scaling iterations did not reach the marginal tolerance",
            residual=float(violation),
            iterations=max_iter,
        )
    return TransportCoupling(
        pairing=pi_ab,
        cost=float(stage_costs[-1]),
        mode="entropic",
        eps_final=float(eps_schedule[-1]),
        marginal_violation=float(violation),
        stage_costs=tuple(stage_costs),
    )


@dataclass(frozen=True)
class ModulatedEnergies:
    """Quadratic mismatch functionals at one output time.

    S measures the kinetic cloud's velocity excess over gravity plus its own
    steady transport field; Z and H are half the weighted squared position
    gap between paired runs; E the matching velocity gap.  Entries that do
    not apply to the run at hand are NaN.
    """

    t: float
    S: float
    Z: float
    E: float
    H: float

    def __post_init__(self):
        for name in ("S", "Z", "E", "H"):
            val = getattr(self, name)
            if not np.isnan(val) and val < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {val}")


@dataclass
class CoupledRun:
    """Snapshot series of one run, optionally paired with a second.

    `pairing` records how samples of the two runs were coupled at t = 0:
    "identity" when both were drawn from one seed stream (sample i pairs
    with sample i), or an index array mapping run-a samples to run-b
    samples.  None means the runs were never coupled, which rules out the
    paired energies.
    """

    times: np.ndarray
    snapshots_a: list
    snapshots_b: list = None
    pairing: object = None
    gravity: np.ndarray = None
    lam: float = 1.0
    grid: object = None


def steady_field_velocities(snapshot, grid, gravity):
    """Velocity of the steady transport field of the snapshot's own density,
    sampled at the snapshot's positions."""
    # positions and weights only: the momentum deposit of a phase cloud is not needed
    carrier = SimpleNamespace(x=np.asarray(snapshot.x, dtype=float), w=snapshot.w, gravity=gravity)
    fluid = steady_velocity_field(carrier, grid)
    return interpolate(fluid.velocity, carrier.x)


def s_functional(snapshot, grid, gravity, weights):
    """S = (1/2) sum_i weights_i |v_i - g - w[rho](x_i)|^2, with w[rho] the
    steady transport field of the snapshot's own density."""
    field_v = steady_field_velocities(snapshot, grid, gravity)
    excess = np.asarray(snapshot.v, dtype=float) - gravity[None, :] - field_v
    return 0.5 * float(weights @ (excess * excess).sum(axis=1))


def modulated_energies(run):
    """Evaluate S, Z, E, H along a coupled run.

    S needs a grid to solve for the snapshot's steady field; Z, H need a
    paired second run; E additionally needs velocities on it.  Anything the
    run cannot support comes back NaN rather than silently zero.
    """
    times = np.asarray(run.times, dtype=float)
    paired = run.snapshots_b is not None
    if paired and run.pairing is None:
        raise ValueError("runs are not coupled: no pairing metadata")
    if paired and len(run.snapshots_b) != len(run.snapshots_a):
        raise ValueError("paired runs must share output times")
    gravity = None if run.gravity is None else np.asarray(run.gravity, dtype=float)

    out = []
    for k, t in enumerate(times):
        snap = run.snapshots_a[k]
        x, v, w = _cloud_arrays(snap)
        weights = _normalized_weights(w, x.shape[0])

        S = np.nan
        if run.grid is not None and v is not None and gravity is not None:
            S = s_functional(snap, run.grid, gravity, weights)

        Z = E = H = np.nan
        if paired:
            other = run.snapshots_b[k]
            xb, vb, _ = _cloud_arrays(other)
            if isinstance(run.pairing, str) and run.pairing == "identity":
                idx = slice(None)
            else:
                idx = np.asarray(run.pairing, dtype=np.int64)
            dx = x - xb[idx]
            H = 0.5 * float(weights @ (dx * dx).sum(axis=1))
            Z = H
            if v is not None and vb is not None:
                dv = v - vb[idx]
                E = 0.5 * float(weights @ (dv * dv).sum(axis=1))
        out.append(ModulatedEnergies(t=float(t), S=S, Z=Z, E=E, H=H))
    return out


def rate_fit(x, y, model="powerlaw"):
    """Least-squares fit of log y against x (exponential) or log x (powerlaw).

    Returns (slope_or_rate, r_squared).  The slope is the power-law exponent
    or the exponential rate; constants are deliberately not reported.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be matching 1-d arrays")
    if x.size < 3:
        raise ValueError("need at least 3 points to fit a rate")
    if np.any(y <= 0.0):
        raise ValueError("y must be strictly positive")
    if model == "powerlaw":
        if np.any(x <= 0.0):
            raise ValueError("x must be strictly positive for a power law")
        xs = np.log(x)
    elif model == "exponential":
        xs = x
    else:
        raise ValueError(f"model must be 'powerlaw' or 'exponential', got {model!r}")
    ys = np.log(y)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    total = float(np.sum((ys - ys.mean()) ** 2))
    if total < 1e-300:
        r2 = 1.0 if float(np.max(np.abs(resid))) < 1e-12 else 0.0
    else:
        r2 = 1.0 - float(np.sum(resid**2)) / total
    return float(slope), float(r2)


def write_metrics_csv(path, run_id, rows):
    """Write tidy (run_id, t, metric, value) rows; `rows` yields (t, name, value)."""
    rows = ((run_id, float(t), name, float(value)) for t, name, value in rows)
    write_csv(path, ["run_id", "t", "metric", "value"], rows)


def energies_to_rows(series):
    for entry in series:
        for name in ("S", "Z", "E", "H"):
            value = getattr(entry, name)
            if not np.isnan(value):
                yield entry.t, name, value
