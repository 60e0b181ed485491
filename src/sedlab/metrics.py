"""Wasserstein-2 distances, transport couplings and modulated energies.

Two solvers cover the two regimes that matter here: an exact assignment
solver for uniformly weighted clouds (the empirical measures all tiers
produce) whose sizes divide, n | m, as for equal-size tiers or a member
against a larger reference, and a debiased entropic solver for the rest.
Both scale on one kernel-domain Sinkhorn stage, `_scale`, which warm-starts
the assignment and makes the entropic estimate.  On top of the distances,
`modulated_energies` evaluates the quadratic functionals S, E, H that
track how far a kinetic run sits from its own steady transport field (S)
and how far two coupled runs have drifted apart in position (H) and
velocity (E).  The coupling of a cross-tier comparison is fixed at t = 0
by drawing both runs from one sample and pushed forward by the dynamics,
so paired samples keep their indices for all time.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .csvfile import write_csv
from .errors import ConvergenceError
from .transport import steady_velocity_field

EXACT_CAP = 4096
# warm start of the duplicated-atom assignment: eps stages, iterations per
# stage, and the last eps as a fraction of the median cost
WARM_STAGES = 4
WARM_ITERS = 20
WARM_FLOOR = 0.01
# entropic schedule: ENTROPIC_STAGES geometric eps stages from 10 times the
# median cost down to ENTROPIC_FLOOR of it
ENTROPIC_STAGES = 5
ENTROPIC_FLOOR = 0.01


@dataclass(frozen=True)
class TransportCoupling:
    """An optimal (or entropically relaxed) coupling and its quadratic cost.

    For exact mode `pairing` is a permutation: sample i of the first cloud is
    matched to sample pairing[i] of the second, each carrying mass 1/n.  For
    entropic mode `pairing` is the full coupling matrix.  `cost` estimates
    the squared Wasserstein-2 distance; an entropic one lists its eps
    stages' estimates and worst marginal violations.
    """

    pairing: np.ndarray
    cost: float
    mode: str
    marginal_violation: float = 0.0
    stage_costs: tuple = ()
    stage_violations: tuple = ()

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
    if w.shape != (n,) or not np.allclose(w, 1.0 / n, rtol=0.0, atol=1e-12):
        raise ValueError("exact mode requires equal uniform weights")


def wasserstein2(a, b, space="spatial"):
    """W2 distance between two clouds, in either order.

    Exact when the smaller count n divides the larger m and m fits
    EXACT_CAP, entropic otherwise.  A cloud without weights `w` counts as
    uniformly weighted.
    """
    n, m = _cloud_arrays(a)[0].shape[0], _cloud_arrays(b)[0].shape[0]
    if n > m:  # W2 is symmetric; the exact solver takes the smaller cloud first
        a, b, n, m = b, a, m, n
    if m % n == 0 and m <= EXACT_CAP:
        return wasserstein2_exact(a, b, space=space).distance
    return wasserstein2_entropic(a, b, space=space).distance


def wasserstein2_exact(a, b, space="spatial"):
    """Optimal assignment between uniformly weighted clouds of n and m = k n samples.

    Squared Euclidean ground cost; in phase mode the cost of a pair is
    |x1 - x2|^2 + |v1 - v2|^2.  For k > 1 each atom of the first cloud
    splits into k equal copies, which leaves its measure unchanged, so the
    assignment is still an optimal coupling.  The squared distance is the
    mean matched cost.  The returned coupling carries the optimal
    permutation (k = 1) or an (n, k) array whose row i lists the samples of
    the second cloud matched to atom i.
    """
    pa, wa = _as_samples(a, space)
    pb, wb = _as_samples(b, space)
    n, m = pa.shape[0], pb.shape[0]
    if pa.shape[1] != pb.shape[1] or n == 0 or m % n:
        raise ValueError(
            "exact mode requires equal dimensions and a second sample count that is a "
            f"multiple of the first, got {pa.shape} vs {pb.shape}"
        )
    if m > EXACT_CAP:
        raise ValueError(f"{m} samples exceeds the exact-mode cap {EXACT_CAP}; use wasserstein2_entropic")
    _require_uniform(wa, n)
    _require_uniform(wb, m)
    if m > n:
        return _duplicated_assignment(pa, pb)
    cost_matrix = cdist(pa, pb, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost_matrix)
    pairing = np.empty(n, dtype=np.int64)
    pairing[rows] = cols
    cost = float(cost_matrix[rows, cols].mean())
    return TransportCoupling(pairing=pairing, cost=cost, mode="exact")


def _duplicated_assignment(pa, pb):
    """Exact assignment of k copies of each of n atoms to m = k n samples.

    Everything lives in one m x m buffer: the compact n x m cost in its
    first n rows, the warm start's scratch in the next n.  The assignment
    then runs on the reduced cost C - f - g, tiled so that row j n + i holds
    copy j of atom i.  Any (f, g) shifts every permutation's total by the
    same k sum(f) + sum(g), so the optimum stays exact whatever the warm
    start's quality; good potentials only shorten the augmenting paths
    (Jonker & Volgenant, Computing 1987).
    """
    n, m = pa.shape[0], pb.shape[0]
    k = m // n
    buf = np.empty((m, m))
    cost = cdist(pa, pb, "sqeuclidean", out=buf[:n])
    f, g = _warm_potentials(cost, buf[n : 2 * n])
    if not (np.isfinite(f).all() and np.isfinite(g).all()):
        f, g = np.zeros(n), np.zeros(m)
    cost -= f[:, None]
    cost -= g[None, :]
    buf[n:].reshape(k - 1, n, m)[...] = cost
    _, cols = linear_sum_assignment(buf)
    del buf, cost
    diff = pa[np.arange(m) % n] - pb[cols]
    matched = float((diff * diff).sum(axis=1).mean())
    return TransportCoupling(pairing=cols.reshape(k, n).T.copy(), cost=matched, mode="exact")


def _warm_potentials(cost, work):
    """Near-optimal dual potentials (f, g) between uniform measures on the
    rows and columns of `cost`, for warm-starting the exact assignment:
    `_scale` in `work` (shaped like `cost`), WARM_ITERS iterations with no
    tolerance at each of WARM_STAGES geometric eps stages from the median
    cost down to WARM_FLOOR of it."""
    n, m = cost.shape
    f, g = np.zeros(n), np.zeros(m)
    flat = work.reshape(-1)
    np.copyto(work, cost)
    flat.partition(flat.size // 2)
    scale = float(flat[flat.size // 2])
    if not scale > 0.0:
        return f, g
    wa, wb = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    for eps in np.geomspace(scale, WARM_FLOOR * scale, WARM_STAGES):
        f, g, _ = _scale(cost, wa, wb, eps, f, g, 0.0, WARM_ITERS, work)
    return f, g


def _scale(cost, wa, wb, eps, f, g, tol, max_iter, work):
    """One eps stage of stabilised scaling (Schmitzer, SISC 2019), warm-started at (f, g).

    Absorbs the potentials into the kernel work = wa wb exp((f + g - C) / eps), then
    alternates u = wa / (work v) and v = wb / (u work) as BLAS matrix-vector products, at
    most max_iter times.  The columns match after each v update; the product the next u
    update needs gives the row violation |u (work v) - wa|, and the loop stops once it is
    below tol.  Leaves the coupling diag(u) work diag(v) in `work`; returns the updated
    potentials and the last violation.
    """
    np.subtract(f[:, None], cost, out=work)
    work += g[None, :]
    work *= 1.0 / eps
    np.exp(work, out=work)
    work *= wa[:, None]
    work *= wb[None, :]
    v = np.ones(cost.shape[1])
    row = work @ v
    for _ in range(max_iter):
        u = wa / row
        v = wb / (u @ work)
        row = work @ v
        violation = float(np.abs(u * row - wa).max())
        if violation < tol:
            break
    work *= u[:, None]
    work *= v[None, :]
    return f + eps * np.log(u), g + eps * np.log(v), violation


def _normalized_weights(w, n):
    if w is None:
        return np.full(n, 1.0 / n)
    if w.shape != (n,) or np.any(w <= 0.0):
        raise ValueError("weights must be strictly positive probability vectors")
    total = w.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {total}")
    return w / total


def wasserstein2_entropic(a, b, space="spatial", tol=1e-6, max_iter=20000):
    """Debiased entropic estimate of the squared Wasserstein-2 distance.

    Runs `_scale` along a geometric schedule of the regularization eps,
    ENTROPIC_STAGES stages from 10x the median ground cost down to
    ENTROPIC_FLOOR times it, warm-starting the potentials.  Each stage
    scores a cloud pair by the midpoint of the transport cost <pi, C> and
    the dual value, which bracket the true optimum, and removes the
    self-transport bias: cost = score(a,b) - (score(a,a) + score(b,b))/2.
    The bias removal makes identical clouds score exactly zero and pulls the
    64-sample regime well within a percent of the exact solver.  Each
    stage's worst marginal violation is returned in `stage_violations`; an
    earlier stage that ends at tol or above only warm-starts the next.  If
    any of the three problems of the last stage leaves a marginal violation
    of tol or more after max_iter iterations, ConvergenceError carries the worst.
    The scaling runs through BLAS: an estimate's last bits follow its thread count.
    """
    if not (0.0 < tol < np.inf and max_iter >= 1):
        raise ValueError(f"need 0 < tol < inf and max_iter >= 1, got tol={tol}, max_iter={max_iter}")
    pa, wa = _as_samples(a, space)
    pb, wb = _as_samples(b, space)
    wa, wb = _normalized_weights(wa, pa.shape[0]), _normalized_weights(wb, pb.shape[0])
    pairs = ((pa, pb, wa, wb), (pa, pa, wa, wa), (pb, pb, wb, wb))  # the cross term, then the two self terms
    problems = [(cdist(p, q, "sqeuclidean"), w1, w2) for p, q, w1, w2 in pairs]
    scale = float(np.median(problems[0][0]))
    if scale <= 0.0:
        # all cross costs vanish: the clouds sit on one common point
        return TransportCoupling(pairing=np.outer(wa, wb), cost=0.0, mode="entropic")
    potentials = [(np.zeros(w1.size), np.zeros(w2.size)) for _, w1, w2 in problems]
    violations = [np.inf] * 3
    stage_costs, stage_violations = [], []
    for eps in np.geomspace(10.0 * scale, ENTROPIC_FLOOR * scale, ENTROPIC_STAGES):
        scores = []
        for k, (cost, w1, w2) in enumerate(problems):
            pi = np.empty_like(cost)
            f, g, violations[k] = _scale(cost, w1, w2, eps, *potentials[k], tol, max_iter, pi)
            potentials[k] = (f, g)
            sharp = float(np.einsum("ij,ij->", pi, cost))
            scores.append(0.5 * (sharp + float(f @ w1 + g @ w2)))
            if k == 0:
                pi_ab = pi
        stage_costs.append(scores[0] - 0.5 * (scores[1] + scores[2]))
        stage_violations.append(float(np.max(violations)))
    if not all(v < tol for v in violations):
        raise ConvergenceError(
            "entropic scaling iterations did not reach the marginal tolerance",
            residual=stage_violations[-1],
            iterations=max_iter,
        )
    return TransportCoupling(
        pairing=pi_ab,
        cost=float(stage_costs[-1]),
        mode="entropic",
        marginal_violation=violations[0],
        stage_costs=tuple(stage_costs),
        stage_violations=tuple(stage_violations),
    )


@dataclass(frozen=True)
class ModulatedEnergies:
    """Quadratic mismatch functionals at one output time.

    S measures the first run's velocity excess over gravity plus its own
    steady transport field; H is half the weighted squared position gap
    between paired samples of the two runs; E the matching velocity gap.
    """

    t: float
    S: float
    E: float
    H: float

    def __post_init__(self):
        for name, val in (("S", self.S), ("E", self.E), ("H", self.H)):
            if not val >= 0.0:  # NaN too
                raise ValueError(f"{name} must be nonnegative, got {val}")


def steady_field_velocities(snapshot, grid, gravity, weights):
    """Velocity of the steady transport field of the density that `weights`
    put on the snapshot's positions, sampled at those positions."""
    # positions and weights only: the momentum deposit of a phase cloud is not needed
    carrier = SimpleNamespace(x=np.asarray(snapshot.x, dtype=float), w=weights, gravity=gravity)
    return steady_velocity_field(carrier, grid).at(carrier.x)


def s_functional(snapshot, grid, gravity, weights):
    """S = (1/2) sum_i weights_i |v_i - g - w[rho](x_i)|^2, with w[rho] the
    steady transport field of the snapshot's own density."""
    field_v = steady_field_velocities(snapshot, grid, gravity, weights)
    excess = np.asarray(snapshot.v, dtype=float) - gravity[None, :] - field_v
    return 0.5 * float(weights @ (excess * excess).sum(axis=1))


def modulated_energies(times, snapshots_a, snapshots_b, grid, gravity):
    """S, E, H at each output time of two runs coupled at t = 0.

    Both runs start from one draw, so sample i of snapshots_a[k] pairs with
    sample i of snapshots_b[k] for all time.  The second run may hold more
    samples than the first; only its first n enter.  S is the first run's,
    solved on `grid`.  The three series must have equal lengths.
    """
    gravity = np.asarray(gravity, dtype=float)
    out = []
    for t, snap, other in zip(times, snapshots_a, snapshots_b, strict=True):
        x, v, w = _cloud_arrays(snap)
        n = x.shape[0]
        weights = _normalized_weights(w, n)
        xb, vb, _ = _cloud_arrays(other)
        dx = x - xb[:n]
        dv = v - vb[:n]
        out.append(
            ModulatedEnergies(
                t=float(t),
                S=s_functional(snap, grid, gravity, weights),
                E=0.5 * float(weights @ (dv * dv).sum(axis=1)),
                H=0.5 * float(weights @ (dx * dx).sum(axis=1)),
            )
        )
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
    return ((entry.t, name, getattr(entry, name)) for entry in series for name in ("S", "E", "H"))
