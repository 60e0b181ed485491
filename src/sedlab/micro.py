"""N-particle sedimentation with an implicit pairwise velocity closure.

Particles settle under unit gravity with a stiff velocity relaxation of rate
lam.  The fluid enters through the closure

    w_i = (1/N) sum_{j != i} Phi(X_i - X_j) (V_j - w_j),

where Phi is the free-space mobility kernel: each particle is advected by
the flow the others generate, and that flow is itself set by how far the
others lag behind their own ambient flow.  The 1/N prefactor is the drag
coefficient 6 pi R under the radius coupling R = 1/(6 pi N), so the forces
on the fluid are F_i = 6 pi R (V_i - w_i) and N F_i = V_i - w_i.

Time stepping freezes w over a step and integrates the remaining linear
relaxation exactly, which keeps the integrator uniformly stable in lam.
Particle contact (distance <= 2R) aborts the run: the model has no
lubrication regime and a contact means the configuration left the regime
the closure is valid in.
"""

import struct
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .csvfile import write_csv
from .errors import CollisionError, ConvergenceError
from .kernels import oseen_tensor
from .kinetic import relaxation_push

DENSE_FALLBACK_CAP = 512


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

    Stores the difference vectors and inverse distances once per
    configuration; apply(q)_i = sum_j Phi(x_i - x_j) q_j.  The i = j term
    vanishes because the inverse distance is zeroed on the diagonal.
    """

    def __init__(self, x):
        diffs = x[:, None, :] - x[None, :, :]
        r2 = np.einsum("ijc,ijc->ij", diffs, diffs)
        with np.errstate(divide="ignore"):
            r_inv = np.where(r2 > 0.0, r2**-0.5, 0.0)
        self.diffs = diffs
        self.r_inv = r_inv
        self.scaled = diffs * (r_inv**3)[..., None]

    def apply(self, q):
        iso = self.r_inv @ q
        along = np.einsum("ijc,jc->ij", self.scaled, q)
        aniso = np.einsum("ijc,ij->ic", self.diffs, along)
        return (iso + aniso) / (8.0 * np.pi)


def implicit_velocities(ens, tol=1e-12, max_iter=200, theta=1.0):
    """Solve the closure for the ambient velocities w.

    Fixed-point iteration on w <- (1/N) sum_j Phi(x_i - x_j)(V_j - w_j),
    matrix-free: the pair geometry is built once and each sweep costs a
    few (N, N) contractions.  The off-diagonal coupling is O(S_1 / N),
    so the map is strongly contractive for configurations the
    assumptions admit and theta = 1 converges in a handful of sweeps;
    whenever the residual grows the damping halves (down to 1/8).
    Falls back to a dense direct solve of (I + M/N) w = (M/N) V for
    modest N before giving up.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = ens.n
    if n == 1:
        return np.zeros((1, 3))
    kernel = _PairKernel(ens.x)
    scale = 1.0 + float(np.max(np.linalg.norm(ens.v, axis=1)))
    w = np.zeros((n, 3))
    residual = np.inf
    prev_residual = np.inf
    for _ in range(max_iter):
        y = kernel.apply(ens.v - w) / n
        residual = float(np.max(np.linalg.norm(w - y, axis=1)))
        if residual <= tol * scale:
            return w
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


def step(ens, dt, interactions=True, tol=1e-12, max_iter=200):
    """Advance one step of X' = V, V' = lam (g + w - V) with w frozen.

    The linear relaxation toward g + w is integrated exactly (see
    `kinetic.relaxation_push`), so the only approximation is holding w
    constant over the step.  A step that produces contact raises, carrying
    the offending state.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if interactions:
        w = implicit_velocities(ens, tol=tol, max_iter=max_iter)
    else:
        w = np.zeros_like(ens.v)
    x_new, v_new = relaxation_push(ens.x, ens.v, ens.gravity[None, :] + w, ens.lam, dt)
    return replace(ens, x=x_new, v=v_new, time=ens.time + dt)


def default_dt(lam):
    # frozen-w drift error control; the relaxation itself is exact
    return min(0.01, 1.0 / (4.0 * lam))


def stats(ens, force_values=None, betas=(1.0, 2.25)):
    """Configuration statistics: d_min, normalized interaction sums, moments."""
    x = ens.x
    n = ens.n
    if n >= 2:
        d = cdist(x, x)
        d_min = float(d[~np.eye(n, dtype=bool)].min())
        np.fill_diagonal(d, d_min)  # i = j counts at d_min
        s_beta = {
            float(beta): float(np.max(np.sum(d ** (-beta), axis=1))) / n for beta in betas
        }
    else:
        d_min = np.inf
        s_beta = {float(beta): 0.0 for beta in betas}
    speeds = np.linalg.norm(ens.v, axis=1)
    v_moment9 = float(np.mean(speeds**9))
    if force_values is None:
        force_moment9 = np.nan
    else:
        scaled = n * np.linalg.norm(np.asarray(force_values, dtype=float), axis=1)
        force_moment9 = float(np.mean(scaled**9))
    return EnsembleStats(d_min=d_min, s_beta=s_beta, v_moment9=v_moment9, force_moment9=force_moment9)


def h3_ratio(x, v, lam, block=1024):
    """Worst pairwise |V_i - V_j| / ((lam/2) |X_i - X_j|); h3 holds iff <= 1.

    Scans the pairs in row blocks, so memory stays O(block N).
    """
    n = x.shape[0]
    if n < 2:
        return 0.0
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
    """Initial-data checks; h2_w2 is a measured distance, not a verdict.

    h3_ratio and h4_value are the module functions of the same names on the
    ensemble; h3 holds iff h3_ratio <= 1, h4 iff h4_value <= c_v.
    """

    h1: bool
    h3: bool
    h4: bool
    h2_w2: float
    h3_ratio: float
    h4_value: float


def check_assumptions(ens, c_v=10.0, rho_w2=None):
    """Report the verifiable assumptions on an initial ensemble.

    The density-proximity check (h2) needs a reference density the ensemble
    does not carry; the caller measures that distance and passes it through,
    and this report simply records it.
    """
    ratio = h3_ratio(ens.x, ens.v, ens.lam)
    value = h4_value(ens.v, ens.lam)
    return AssumptionReport(
        h1=abs(ens.radius * 6.0 * np.pi * ens.n - 1.0) <= 1e-9,
        h3=ratio <= 1.0,
        h4=value <= c_v,
        h2_w2=np.nan if rho_w2 is None else float(rho_w2),
        h3_ratio=ratio,
        h4_value=value,
    )


def save_ensemble_csv(ens, path):
    table = np.hstack([ens.x, ens.v])
    write_csv(path, ["id", "x", "y", "z", "vx", "vy", "vz"], ([i, *r] for i, r in enumerate(table)))


_CHECKPOINT_HEADER = "<qdddq"  # N, R, lam, t, seed


def save_checkpoint(ens, path, seed=0):
    """Binary state dump: (N, R, lam, t, seed) header, then gravity, h1, X, V."""
    with open(path, "wb") as fh:
        fh.write(struct.pack(_CHECKPOINT_HEADER, ens.n, ens.radius, ens.lam, ens.time, seed))
        fh.write(np.asarray(ens.gravity, dtype="<f8").tobytes())
        fh.write(struct.pack("<B", 1 if ens.h1 else 0))
        fh.write(ens.x.astype("<f8").tobytes())
        fh.write(ens.v.astype("<f8").tobytes())


def load_checkpoint(path):
    with open(path, "rb") as fh:
        n, radius, lam, time, seed = struct.unpack(
            _CHECKPOINT_HEADER, fh.read(struct.calcsize(_CHECKPOINT_HEADER))
        )
        gravity = np.frombuffer(fh.read(24), dtype="<f8").copy()
        (h1,) = struct.unpack("<B", fh.read(1))
        x = np.frombuffer(fh.read(24 * n), dtype="<f8").reshape(n, 3).copy()
        v = np.frombuffer(fh.read(24 * n), dtype="<f8").reshape(n, 3).copy()
    ens = ParticleEnsemble(
        x=x, v=v, lam=lam, gravity=gravity, radius=radius, time=time, h1=bool(h1)
    )
    return ens, seed
