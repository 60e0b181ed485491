"""Helpers shared by the test modules (import them with `from conftest import ...`)."""

import numpy as np

from sedlab import kernels as K


def full_window(spec):
    """The window that is the whole grid: a whole-grid field is a field on it."""
    return K.Window(spec, (0, 0, 0), spec)


def whole_fluid(fluid):
    """A solve's field on its whole grid, as a `FluidState` on the full window.

    The field is an (N, N, N, 3) array, N = `fluid.window.grid.n`.  On the
    window it is the solve's own (n, n, n, 3) field; off it, the full-window
    Stokes solve of the solve's last force put in zeros, which is the
    whole-grid iterate at theta = 1.  No run computes this field, and it
    costs one apply at the grid's side.
    """
    w = fluid.window
    force = np.zeros((w.grid.n,) * 3 + (3,))
    force[w.cells] = fluid.force
    whole = K.stokes_solve(force, full_window(w.grid))
    whole.velocity[w.cells] = fluid.velocity
    whole.residual, whole.iterations = fluid.residual, fluid.iterations
    return whole
