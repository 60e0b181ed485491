"""Characteristics solver for the macroscopic settling equation.

The density is carried by weighted spatial samples advected along

    x' = g + u(t, x),   u = velocity of the force density rho g

with the fluid refreshed from the deposited density.  The drift has no
stiff part, so a midpoint rule with a mid-step field refresh gives a
genuinely second-order update.
"""

from dataclasses import dataclass, replace

import numpy as np

from .csvfile import write_csv
from .errors import ConvergenceError
from .kernels import deposit, interpolate, stokes_solve


@dataclass(frozen=True)
class SpatialCloud:
    """Weighted spatial samples of a probability density."""

    x: np.ndarray
    w: np.ndarray
    gravity: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        w = np.asarray(self.w, dtype=float)
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
        gravity = np.asarray(self.gravity, dtype=float)
        if gravity.shape != (3,) or abs(np.linalg.norm(gravity) - 1.0) > 1e-12:
            raise ValueError("gravity must be a unit 3-vector")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "gravity", gravity)

    @property
    def n(self) -> int:
        return self.x.shape[0]


def steady_velocity_field(cloud, grid):
    """Velocity of the deposited density forced along gravity.

    Accepts anything with .x, .w and .gravity; the force rho g goes
    through the one-transform density-times-direction solve, and the
    Lipschitz sup norm is available, built on demand, on the FluidState.
    """
    rho, _ = deposit(cloud, grid)
    fluid = stokes_solve(rho, cloud.gravity)
    if not np.all(np.isfinite(fluid.velocity.values)):
        raise ConvergenceError("velocity solve produced non-finite values")
    return fluid


def transport_step(cloud, grid, dt):
    """Advance the cloud one midpoint step; returns (new cloud, start-of-step fluid).

    The returned field is the one deposited at the step's start; the
    corrector stage refreshes it from the half-step positions, which is
    what makes the update second order along the self-consistent flow.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    fluid = steady_velocity_field(cloud, grid)
    drift = cloud.gravity[None, :] + interpolate(fluid.velocity, cloud.x)
    half = replace(cloud, x=cloud.x + 0.5 * dt * drift, time=cloud.time + 0.5 * dt)
    fluid_half = steady_velocity_field(half, grid)
    drift_half = cloud.gravity[None, :] + interpolate(fluid_half.velocity, half.x)
    new_cloud = replace(cloud, x=cloud.x + dt * drift_half, time=cloud.time + dt)
    return new_cloud, fluid


def save_spatial_csv(cloud, path):
    table = np.hstack([cloud.x, cloud.w[:, None]])
    write_csv(path, ["id", "x", "y", "z", "w"], ([i, *r] for i, r in enumerate(table)))
