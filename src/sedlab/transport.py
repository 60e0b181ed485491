"""Characteristics solver for the macroscopic settling equation.

The density is carried by weighted spatial samples advected along

    x' = g + u(t, x),   u = velocity of the force density rho g

with the fluid refreshed from the deposited density.  The drift has no
stiff part, so a midpoint rule with a mid-step field refresh gives a
genuinely second-order update.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError
from .kernels import deposit, stencil_window, stokes_solve


def admit_samples(cloud):
    """Check a frozen cloud's x, w and gravity and store them as float arrays.

    Every cloud needs finite (N, 3) positions, nonnegative weights that sum
    to 1 and a unit gravity vector.
    """
    x, w, gravity = (np.asarray(a, dtype=float) for a in (cloud.x, cloud.w, cloud.gravity))
    if x.ndim != 2 or x.shape[1] != 3:
        raise ValueError("x must be an (N, 3) array")
    if w.shape != (x.shape[0],):
        raise ValueError("w must be an (N,) weight vector")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
    if not np.all(np.isfinite(x)):
        raise ValueError("positions must be finite")
    if gravity.shape != (3,) or abs(np.linalg.norm(gravity) - 1.0) > 1e-12:
        raise ValueError("gravity must be a unit 3-vector")
    object.__setattr__(cloud, "x", x)
    object.__setattr__(cloud, "w", w)
    object.__setattr__(cloud, "gravity", gravity)


@dataclass(frozen=True)
class SpatialCloud:
    """Weighted spatial samples of a probability density."""

    x: np.ndarray
    w: np.ndarray
    gravity: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        admit_samples(self)

    @property
    def n(self) -> int:
        return self.x.shape[0]


def steady_velocity_field(cloud, grid):
    """Velocity of the deposited density forced along gravity, on the window of the samples' stencils.

    Accepts anything with .x, .w and .gravity.  The density is deposited on
    `kernels.stencil_window(grid, cloud.x)`, zero-weight samples included,
    and the force rho g goes through the one-transform density-times-direction
    solve there; the field agrees with the whole-grid solve on the window to
    rounding.  `.at(cloud.x)` reads it at the samples, and the Lipschitz sup
    norm is available, built on demand, on the FluidState.
    """
    window = stencil_window(grid, cloud.x)
    rho, _ = deposit(cloud, window)
    fluid = stokes_solve(rho, window, cloud.gravity)
    _require_finite(fluid.velocity)
    return fluid


def _require_finite(u):
    if not np.all(np.isfinite(u)):
        raise ConvergenceError("velocity solve produced non-finite values")


def transport_step(cloud, grid, dt):
    """Advance the cloud one midpoint step; returns the new cloud.

    The predictor uses the field deposited at the step's start; the
    corrector stage refreshes it from the half-step positions, which is
    what makes the update second order along the self-consistent flow.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    drift = cloud.gravity[None, :] + steady_velocity_field(cloud, grid).at(cloud.x)
    half = replace(cloud, x=cloud.x + 0.5 * dt * drift, time=cloud.time + 0.5 * dt)
    drift_half = cloud.gravity[None, :] + steady_velocity_field(half, grid).at(half.x)
    return replace(cloud, x=cloud.x + dt * drift_half, time=cloud.time + dt)
