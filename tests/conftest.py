"""Helpers shared by the test modules (import them with `from conftest import ...`)."""

from sedlab import kernels as K


def whole_fluid(fluid):
    """A solve's field on its whole grid, as a `FluidState` with no window.

    On the window it is the solve's own field; off it, the whole-grid apply
    of the solve's last force, which is the whole-grid iterate at theta = 1.
    No run computes this field, and it costs one apply at the grid's side.
    """
    w = fluid.window
    whole = K.get_operator(w.grid).apply(w.embed(fluid.force))
    whole[w.cells] = fluid.velocity.values
    return K.FluidState(K.VectorGrid(w.grid, whole), fluid.residual, fluid.iterations)
