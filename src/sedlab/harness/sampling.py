"""Seeded initial-data families shared by all three tiers.

Every family draws positions and velocities from one rng stream, so a
(family, n, seed) triple is bit-reproducible.  The velocity structure is
post-processed until the relative Lipschitz condition

    |V_i - V_j| <= (lam/2) |X_i - X_j|   for all pairs

holds: the well-prepared family builds it in through a smooth jitter
field, the i.i.d. families project offending pairs and redraw when that
touches too much mass.  The contact floor d_min > 2R and the ninth-moment
cap are enforced by redrawing.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ..errors import AssumptionError
from ..kinetic import PhaseCloud
from ..micro import AssumptionReport, ParticleEnsemble, check_assumptions, h4_value, pairwise_min_distance
from ..transport import SpatialCloud, steady_velocity_field
from .config import DEFAULTS

GRAVITY = np.array([0.0, 0.0, -1.0])

FAMILIES = ("gaussian", "uniform_ball", "well_prepared")


@dataclass(frozen=True)
class SampleReport:
    """How the draw went: resample count, clipping, and measured margins."""

    family: str
    resamples: int
    clipped_fraction: float
    d_min: float
    h4_value: float
    s0: float  # well-prepared only, NaN otherwise
    field_lipschitz: float


@dataclass(frozen=True)
class SampleDraw:
    cloud: PhaseCloud
    ensemble: ParticleEnsemble | None
    report: SampleReport
    assumptions: AssumptionReport | None = None  # the ensemble's checks; runs record it as is

    def spatial_cloud(self) -> SpatialCloud:
        """The position marginal, for the transport tier."""
        return SpatialCloud(
            x=self.cloud.x.copy(), w=self.cloud.w.copy(), gravity=self.cloud.gravity
        )


def _ball(rng, n, radius):
    direction = rng.standard_normal((n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return radius * direction * rng.random(n)[:, None] ** (1.0 / 3.0)


def _truncated_gaussian(rng, n, center, sigma, cap=4.0):
    x = center + sigma * rng.standard_normal((n, 3))
    for _ in range(64):
        far = np.linalg.norm(x - center, axis=1) > cap * sigma
        if not far.any():
            return x
        x[far] = center + sigma * rng.standard_normal((int(far.sum()), 3))
    raise AssumptionError("could not confine positions to the sampling ball")


def _smooth_jitter(rng, x, center, kappa, n_modes=6):
    """Zero-clipping velocity jitter: a band-limited field with known
    Lipschitz bound, rescaled to unit rms per component on the sample."""
    k = kappa * rng.standard_normal((n_modes, 3))
    theta = rng.uniform(0.0, 2.0 * np.pi, n_modes)
    amp = rng.standard_normal((n_modes, 3))
    phase = (x - center) @ k.T + theta
    phi = np.cos(phase) @ amp
    rms = np.sqrt((phi**2).mean(axis=0))
    rms = np.where(rms > 0, rms, 1.0)
    phi /= rms
    # |D phi_{cd}| <= sum_m |amp_mc| |k_md| entrywise, Frobenius dominates op
    bound = np.abs(amp).T @ np.abs(k)  # (3 components, 3 derivatives)
    bound /= rms[:, None]
    return phi, float(np.linalg.norm(bound))


def _h3_candidate_pairs(x, v, lam):
    """Pairs that could violate the relative Lipschitz condition: only
    points closer than (largest velocity spread)/(lam/2) can."""
    spread = 2.0 * np.linalg.norm(v - v.mean(axis=0), axis=1).max()
    if spread == 0.0:
        return np.empty((0, 2), dtype=int)
    radius = spread / (0.5 * lam)
    pairs = cKDTree(x).query_pairs(radius, output_type="ndarray")
    return pairs


def _project_h3(x, v, lam, max_sweeps=64):
    """Pull paired velocities together until every candidate pair obeys
    |dV| <= (lam/2) d.  Returns (v, touched mask, converged flag)."""
    pairs = _h3_candidate_pairs(x, v, lam)
    touched = np.zeros(x.shape[0], dtype=bool)
    if pairs.size == 0:
        return v, touched, True
    caps = 0.5 * lam * np.linalg.norm(x[pairs[:, 0]] - x[pairs[:, 1]], axis=1)
    for _ in range(max_sweeps):
        dv = v[pairs[:, 0]] - v[pairs[:, 1]]
        norms = np.linalg.norm(dv, axis=1)
        bad = norms > caps * (1.0 + 1e-12)
        if not bad.any():
            return v, touched, True
        for idx in np.flatnonzero(bad):
            i, j = pairs[idx]
            diff = v[i] - v[j]
            m = np.linalg.norm(diff)
            if m <= caps[idx]:
                continue  # an earlier projection in this sweep fixed it
            shift = 0.5 * (1.0 - caps[idx] / m) * diff
            v[i] -= shift
            v[j] += shift
            touched[i] = touched[j] = True
    return v, touched, False


def sample_initial(f0_spec, n, seed, lam, grid=None, want_ensemble=True):
    """Draw matched initial data for the particle and kinetic tiers.

    f0_spec maps the keys of DEFAULTS["initial"] (family: see FAMILIES),
    and takes the defaults there for those it omits; uniform_ball also
    reads x_radius and v_radius.  The cloud is centred in the grid's box, or at
    (8, 8, 8) without a grid.  The well-prepared family needs grid to solve
    for its transport field, on the window of its samples' stencils, and
    its jitter has wavenumber 1 / sigma_x.
    want_ensemble adds the ensemble and its checks, the draw's one h3 scan.
    """
    f0_spec = {**DEFAULTS["initial"], **f0_spec}
    family = f0_spec["family"]
    if family not in FAMILIES:
        raise ValueError(f"unknown initial family {family!r}; pick one of {FAMILIES}")
    sigma_x = float(f0_spec["sigma_x"])
    sigma_v = float(f0_spec["sigma_v"])
    c_v = float(f0_spec["c_v"])
    max_resamples = int(f0_spec["max_resamples"])
    radius = 1.0 / (6.0 * np.pi * n)
    center = np.full(3, 8.0 if grid is None else grid.box_length / 2.0)

    rng = np.random.default_rng(seed)
    failures = []
    for attempt in range(max_resamples + 1):
        clipped_fraction = 0.0
        field_lip = 0.0
        s0 = np.nan
        if family == "gaussian":
            x = _truncated_gaussian(rng, n, center, sigma_x)
            v = GRAVITY + sigma_v * rng.standard_normal((n, 3))
        elif family == "uniform_ball":
            x = center + _ball(rng, n, float(f0_spec.get("x_radius", 2.0 * sigma_x)))
            v = GRAVITY + _ball(rng, n, float(f0_spec.get("v_radius", sigma_v)))
        else:  # well_prepared
            if grid is None:
                raise ValueError("well_prepared sampling needs a grid for its field")
            x = _truncated_gaussian(rng, n, center, sigma_x)
            carrier = SpatialCloud(x=x, w=np.full(n, 1.0 / n), gravity=GRAVITY)
            fluid = steady_velocity_field(carrier, grid)
            u_at = fluid.at(x)
            if sigma_v > 0.0:
                phi, jitter_lip = _smooth_jitter(rng, x, center, 1.0 / sigma_x)
            else:
                phi, jitter_lip = np.zeros((n, 3)), 0.0
            field_lip = fluid.grad_sup_norm + sigma_v * jitter_lip
            if field_lip > 0.5 * lam:
                raise AssumptionError(
                    f"well-prepared field Lipschitz bound {field_lip:.3g} exceeds lam/2;"
                    " lower sigma_v or raise sigma_x"
                )
            v = GRAVITY + u_at + sigma_v * phi
            s0 = 1.5 * sigma_v**2

        d_min = pairwise_min_distance(x)
        if d_min <= 2.0 * radius:
            failures.append(f"attempt {attempt}: d_min {d_min:.3g} under the floor")
            continue

        if family != "well_prepared" and sigma_v > 0.0:
            v, touched, converged = _project_h3(x, v, lam)
            clipped_fraction = float(touched.mean())
            if not converged or clipped_fraction > 0.05:
                failures.append(
                    f"attempt {attempt}: H3 clipping touched {clipped_fraction:.1%}"
                )
                continue

        h4 = h4_value(v, lam)
        if h4 > c_v:
            failures.append(f"attempt {attempt}: ninth-moment value {h4:.3g} > {c_v}")
            continue

        w = np.full(n, 1.0 / n)
        cloud = PhaseCloud(x=x, v=v, w=w, lam=lam, gravity=GRAVITY)
        ensemble = checks = None
        if want_ensemble:
            ensemble = ParticleEnsemble(x=x.copy(), v=v.copy(), lam=lam, gravity=GRAVITY, radius=radius)
            checks = check_assumptions(ensemble, c_v=c_v)
        report = SampleReport(
            family=family,
            resamples=attempt,
            clipped_fraction=clipped_fraction,
            d_min=d_min,
            h4_value=h4,
            s0=s0,
            field_lipschitz=field_lip,
        )
        return SampleDraw(cloud=cloud, ensemble=ensemble, report=report, assumptions=checks)

    raise AssumptionError(
        "initial sampling failed after "
        f"{max_resamples + 1} attempts: " + "; ".join(failures[-3:])
    )
