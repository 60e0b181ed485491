"""N-particle sedimentation with an implicit pairwise velocity closure.

Particles settle under unit gravity with a stiff velocity relaxation of rate
lam.  The fluid enters through the closure

    w_i = (1/N) sum_{j != i} Phi(X_i - X_j) (V_j - w_j),

where Phi is the free-space mobility kernel: each particle is advected by
the flow the others generate, and that flow is itself set by how far the
others lag behind their own ambient flow.  The 1/N prefactor is the drag
coefficient 6 pi R under the radius coupling R = 1/(6 pi N), so the forces
on the fluid are F_i = 6 pi R (V_i - w_i) and N F_i = V_i - w_i.

The closure is solved by fixed-point sweeps, each two GEMMs against the
r^-1 and r^-3 pair matrices (`_PairKernel`).  Time stepping freezes w over
a step and integrates the remaining linear relaxation exactly, which keeps
the integrator uniformly stable in lam; `step` takes the w already solved
for its state, so a run solves the closure once per state.
Particle contact (distance <= 2R) aborts the run: the model has no
lubrication regime and a contact means the configuration left the regime
the closure is valid in.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import CollisionError, ConvergenceError
from .kernels import EIGHT_PI, contraction_stop, oseen_tensor
from .kinetic import relaxation_push

DENSE_FALLBACK_CAP = 512
PAIR_BLOCK_BYTES = 1 << 20  # the most a pair scan's block of cdist rows holds


def _pair_rows(n):
    return max(1, PAIR_BLOCK_BYTES // (8 * n))  # float64 rows against n points, at least one


def pairwise_min_distance(x):
    """Smallest distance between two distinct points; inf below two points.

    A k-d tree nearest-neighbour query: O(N log N) time and O(N) memory.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[0] < 2:
        return np.inf
    d, _ = cKDTree(x).query(x, k=2)
    return float(d[:, 1].min())


@dataclass(frozen=True)
class ParticleEnsemble:
    """State of the N-particle system at one instant.

    h1 records whether the radius obeys the coupling R = 1/(6 pi N); most of
    the theory lives in that regime and `forces` reports N F = V - w exactly
    there.
    """

    x: np.ndarray
    v: np.ndarray
    lam: float
    gravity: np.ndarray
    radius: float = None
    time: float = 0.0
    h1: bool = True

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if x.ndim != 2 or x.shape[1] != 3 or x.shape != v.shape:
            raise ValueError("positions and velocities must be matching (N, 3) arrays")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)
        gravity = np.asarray(self.gravity, dtype=float)
        if abs(np.linalg.norm(gravity) - 1.0) > 1e-12:
            raise ValueError("gravity must be a unit vector")
        object.__setattr__(self, "gravity", gravity)
        if self.lam <= 0.0:
            raise ValueError("lam must be positive")
        n = x.shape[0]
        coupled = 1.0 / (6.0 * np.pi * n)
        if self.radius is None:
            object.__setattr__(self, "radius", coupled)
        elif self.radius <= 0.0:
            raise ValueError("radius must be positive")
        elif self.h1 and abs(self.radius * 6.0 * np.pi * n - 1.0) > 1e-9:
            raise ValueError(
                f"radius {self.radius} breaks the coupling 1/(6 pi N) = {coupled} implied by h1"
            )
        d_min = pairwise_min_distance(x)
        if d_min <= 2.0 * self.radius:
            raise CollisionError(
                f"particle contact: d_min = {d_min:.3e} <= 2R = {2 * self.radius:.3e} "
                f"at t = {self.time}",
                ensemble=self,
            )

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class EnsembleStats:
    """Configuration diagnostics.

    s_beta maps an exponent beta to sup_i sum_j d_ij^{-beta} / N, with the
    i = j term counted at d_min; v_moment9 and force_moment9 are the ninth
    moments (1/N) sum |V_i|^9 and (1/N) sum |N F_i|^9.
    """

    d_min: float
    s_beta: dict
    v_moment9: float
    force_moment9: float


def _interaction_matrix(x):
    """Flat (3N, 3N) mobility coupling; the diagonal blocks vanish."""
    diffs = x[:, None, :] - x[None, :, :]
    phi = oseen_tensor(diffs)  # Phi(0) = 0 handles the diagonal
    n = x.shape[0]
    return phi.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)


class _PairKernel:
    """Pairwise mobility action without materializing the (3N, 3N) matrix.

    apply(q)_i = sum_j Phi(x_i - x_j) q_j.  With d_ij = x_i - x_j the
    anisotropic part of Phi splits through

        (d_ij . q_j) d_ij = (x_i . q_j) x_i - (x_i . q_j) x_j
                            - (x_j . q_j) x_i + (x_j . q_j) x_j,

    so every sum over j is a product of the r^-3 matrix with a column built
    from q and x alone: q (3), q_a x_c (9), s = x . q (1) and s x (3).  A
    sweep is then one (N, N) @ (N, 3) product against r^-1 and one
    (N, N) @ (N, 16) product against r^-3; only those two N x N matrices
    are kept.  The four terms cancel down to the pair's own term, losing
    about eps |x_i|^2 / r_ij^2 of it, so the positions are centred first,
    r^2 comes straight from the coordinate differences, and each point's
    NEAR nearest neighbours, where that loss concentrates, are taken out
    of the r^-3 matrix and summed directly.  Takes N >= 2 distinct
    points, as a `ParticleEnsemble`'s are.
    """

    NEAR = 8

    def __init__(self, x):
        x = self.x = x - x.mean(axis=0)
        n = x.shape[0]
        r2 = cdist(x, x, "sqeuclidean")
        np.fill_diagonal(r2, np.inf)  # the i = j term drops out
        self.r_inv = np.sqrt(r2)
        np.reciprocal(self.r_inv, out=self.r_inv)
        self.r_inv3 = np.multiply(self.r_inv, self.r_inv, out=r2)
        self.r_inv3 *= self.r_inv
        # neighbours of rank 2..k+1, rank 1 being the point itself
        self.near = cKDTree(x).query(x, k=range(2, min(self.NEAR, n - 1) + 2))[1]
        self.near_d = x[:, None, :] - x[self.near]
        self.near_r3 = np.take_along_axis(self.r_inv3, self.near, axis=1)
        np.put_along_axis(self.r_inv3, self.near, 0.0, axis=1)

    def apply(self, q):
        x = self.x
        n = x.shape[0]
        s = np.einsum("ic,ic->i", x, q)
        cols = np.empty((n, 16))
        cols[:, :3] = q
        cols[:, 3:12] = (q[:, :, None] * x[:, None, :]).reshape(n, 9)
        cols[:, 12] = s
        cols[:, 13:] = s[:, None] * x
        m = self.r_inv3 @ cols
        kq, kqx, ks, ksx = m[:, :3], m[:, 3:12].reshape(n, 3, 3), m[:, 12], m[:, 13:]
        aniso = x * (np.einsum("ia,ia->i", x, kq) - ks)[:, None]
        aniso -= np.einsum("ia,iac->ic", x, kqx)
        aniso += ksx
        along = self.near_r3 * np.einsum("ikc,ikc->ik", self.near_d, q[self.near])
        aniso += np.einsum("ikc,ik->ic", self.near_d, along)
        return (self.r_inv @ q + aniso) / EIGHT_PI


def implicit_velocities(ens, tol=1e-12, max_iter=200):
    """Solve the closure for the ambient velocities w.

    Fixed-point iteration on w <- (1/N) sum_j Phi(x_i - x_j)(V_j - w_j),
    matrix-free: `_PairKernel` builds the r^-1 and r^-3 matrices once and
    each sweep is two GEMMs against them.  The off-diagonal coupling is
    O(S_1 / N), so the map is strongly contractive for configurations the
    assumptions admit and theta = 1 converges in a handful of sweeps;
    whenever the residual grows the damping halves (down to 1/8).  A sweep
    y = F(w) returns w once max_i |w_i - y_i| <= tol * scale, or, at theta = 1,
    y once the last two residuals put y that near (`kernels.contraction_stop`).
    Falls back to a dense direct solve of (I + M/N) w = (M/N) V for
    N <= DENSE_FALLBACK_CAP before giving up; above it, a miss raises
    ConvergenceError with the last residual and iterations = max_iter.
    The runner solves once per particle state and hands the result to
    `step`.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = ens.n
    if n == 1:
        return np.zeros((1, 3))
    kernel = _PairKernel(ens.x)
    scale = 1.0 + float(np.max(np.linalg.norm(ens.v, axis=1)))
    w = np.zeros((n, 3))
    theta, residual, prev_residual = 1.0, np.inf, np.inf
    for _ in range(max_iter):
        y = kernel.apply(ens.v - w) / n
        residual = float(np.max(np.linalg.norm(w - y, axis=1)))
        if residual <= tol * scale:
            return w
        if theta == 1.0 and contraction_stop(residual, prev_residual, tol * scale):
            return y
        if residual > prev_residual and theta > 0.125:
            theta *= 0.5
        prev_residual = residual
        w = (1.0 - theta) * w + theta * y
    if n <= DENSE_FALLBACK_CAP:
        mat = _interaction_matrix(ens.x) / n
        eye = np.eye(3 * n)
        w = np.linalg.solve(eye + mat, mat @ ens.v.reshape(-1))
        return w.reshape(n, 3)
    raise ConvergenceError(
        "closure iteration stalled; configuration too clustered for the fixed point",
        residual=residual,
        iterations=max_iter,
    )


def forces(ens, w):
    """Drag forces F_i = 6 pi R (V_i - w_i) the particles exert on the fluid."""
    w = np.asarray(w, dtype=float)
    if w.shape != ens.v.shape:
        raise ValueError("w must match the ensemble's velocity array")
    return 6.0 * np.pi * ens.radius * (ens.v - w)


def step(ens, dt, w=None, tol=1e-12):
    """Advance one step of X' = V, V' = lam (g + w - V) with w frozen.

    w is the closure solution for ens; when None it is solved here to tol,
    otherwise it is used unchanged (zeros switch the interactions off).
    The linear relaxation toward g + w is integrated exactly (see
    `kinetic.relaxation_push`), so the only approximation is holding w
    constant over the step.  A step that produces contact raises, carrying
    the offending state.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if w is None:
        w = implicit_velocities(ens, tol=tol)
    elif np.shape(w) != ens.v.shape:
        raise ValueError("w must match the ensemble's velocity array")
    x_new, v_new = relaxation_push(ens.x, ens.v, ens.gravity[None, :] + w, ens.lam, dt)
    return replace(ens, x=x_new, v=v_new, time=ens.time + dt)


def stats(ens, force_values=None):
    """Configuration statistics: d_min, normalized interaction sums, moments.

    The sums S_beta are taken for beta = 1 and 9/4.  The row sums scan the
    pairs in blocks of `cdist` rows of at most PAIR_BLOCK_BYTES each, so
    memory stays O(N); each row counts its i = j entry at d_min.
    """
    x = ens.x
    n = ens.n
    if n >= 2:
        d_min = pairwise_min_distance(x)
        row_max = {1.0: 0.0, 2.25: 0.0}
        block = _pair_rows(n)
        for start in range(0, n, block):
            d = cdist(x[start : start + block], x)
            np.fill_diagonal(d[:, start:], d_min)  # i = j counts at d_min
            for beta in row_max:
                row_max[beta] = max(row_max[beta], float(np.max(np.sum(d ** (-beta), axis=1))))
        s_beta = {beta: value / n for beta, value in row_max.items()}
    else:
        d_min = np.inf
        s_beta = {1.0: 0.0, 2.25: 0.0}
    speeds = np.linalg.norm(ens.v, axis=1)
    v_moment9 = float(np.mean(speeds**9))
    if force_values is None:
        force_moment9 = np.nan
    else:
        scaled = n * np.linalg.norm(np.asarray(force_values, dtype=float), axis=1)
        force_moment9 = float(np.mean(scaled**9))
    return EnsembleStats(d_min=d_min, s_beta=s_beta, v_moment9=v_moment9, force_moment9=force_moment9)


def h3_ratio(x, v, lam):
    """Worst pairwise |V_i - V_j| / ((lam/2) |X_i - X_j|); h3 holds iff <= 1.

    Scans the pairs in blocks of `_pair_rows(N)` rows.
    """
    n = x.shape[0]
    if n < 2:
        return 0.0
    block = _pair_rows(n)
    worst = 0.0
    for start in range(0, n, block):
        cap = cdist(x[start : start + block], x)
        cap *= 0.5 * lam
        np.fill_diagonal(cap[:, start:], np.inf)
        ratio = cdist(v[start : start + block], v)
        ratio /= cap
        worst = max(worst, float(ratio.max()))
    return worst


def h4_value(v, lam):
    """The h4 quantity (1/N) sum |V_i|^9 + sup_i |V_i| / lam."""
    speeds = np.linalg.norm(v, axis=1)
    return float(np.mean(speeds**9) + np.max(speeds, initial=0.0) / lam)


@dataclass(frozen=True)
class AssumptionReport:
    """Initial-data checks.

    h3_ratio and h4_value are the module functions of the same names on the
    ensemble; h3 holds iff h3_ratio <= 1, h4 iff h4_value <= c_v.
    """

    h1: bool
    h3: bool
    h4: bool
    h3_ratio: float
    h4_value: float


def check_assumptions(ens, c_v):
    """Report the verifiable assumptions h1, h3 and h4 <= c_v on an initial ensemble.

    The density-proximity assumption (h2) is not checked here: it needs a
    reference density that the ensemble does not carry.
    """
    ratio = h3_ratio(ens.x, ens.v, ens.lam)
    value = h4_value(ens.v, ens.lam)
    return AssumptionReport(
        h1=abs(ens.radius * 6.0 * np.pi * ens.n - 1.0) <= 1e-9,
        h3=ratio <= 1.0,
        h4=value <= c_v,
        h3_ratio=ratio,
        h4_value=value,
    )
