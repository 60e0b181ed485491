"""Free-space Stokes and Brinkman mobility kernels on cubic grids.

The long-range hydrodynamic interaction is the Oseen tensor

    Phi(x) = (1/8pi) (I/|x| + x xT / |x|^3),

the velocity field of a unit point force in unbounded Stokes flow.
Grid solves convolve a regularized version of Phi (`oseen_regularized`,
smoothing length one grid spacing) on a zero-padded box of twice the side
length, so the FFT convolution is the exact linear convolution for sources
and targets inside the box: there are no periodic images.  The kernel's
transform is built from one octant by parity, and the convolution is
pruned and blocked (see `StokesOperator`).  A force of the form rho g (a
density times one direction) needs a single forward transform.

Because the padded convolution is exact for any box that holds sources
and targets, every grid field lives on a `Window`: the smallest cube of
cells, side a multiple of 8, that holds the trilinear stencils of a
cloud's samples (`stencil_window`).  A field is a plain array on the
window's cells, with n = `window.spec.n`: a density is (n, n, n) and a
velocity, momentum or force (n, n, n, 3).  A solve deposits onto the window,
solves there and reads the field at the samples there (`FluidState.at`);
`brinkman_solve` also measures its stop rule there, and its Dirichlet
energy pairs its field with its force there.  A window may sit anywhere on
the configured grid's lattice, cells centred at (i + 1/2) h for every
integer i; the grid's n bounds only its side.  The box quadrature of
|grad u|^2 (`FluidState.box_energy`) omits the far-field tail outside the
window; `FluidState.dirichlet_energy` omits none.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import fft

from .errors import ConvergenceError, DomainExhaustedError

EIGHT_PI = 8.0 * np.pi


# ---------------------------------------------------------------------------
# point kernels


def oseen_tensor(x: np.ndarray) -> np.ndarray:
    """Oseen tensor of the displacement(s) x, shape (..., 3) -> (..., 3, 3).

    The singular point x = 0 is mapped to the zero matrix, which is the
    convention used by the pairwise sums (self-interaction drops out).
    """
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    safe = np.where(r2 > 0.0, r2, 1.0)
    inv_r = 1.0 / np.sqrt(safe)
    inv_r3 = inv_r / safe
    eye = np.eye(3)
    out = eye * inv_r[..., None, None] + x[..., :, None] * x[..., None, :] * inv_r3[..., None, None]
    out /= EIGHT_PI
    out[r2 == 0.0] = 0.0
    return out


# Quintic continuation of sqrt(u) used by the regularized kernel. Matched at
# u = 1 through the third derivative; the slope 2 at u = 0 pins the on-axis
# value of the kernel to exactly 1/(4 pi eps).
_SIGMA = np.array([0.0, 2.0, -23.0 / 16.0, 3.0 / 16.0, 7.0 / 16.0, -3.0 / 16.0])
_SIGMA_D1 = np.polynomial.polynomial.polyder(_SIGMA, 1)
_SIGMA_D2 = np.polynomial.polynomial.polyder(_SIGMA, 2)


def _oseen_generator(r2: np.ndarray, eps: float):
    """Isotropic and anisotropic coefficients of the regularized Oseen tensor.

    Phi_eps(x) = iso(|x|^2) I + aniso(|x|^2) x xT.  Writes Phi as
    (I Lap - grad grad) applied to a radial generator B(r) with
    B(r) = r / 8pi outside the core |x| < 4 eps, and swaps r for a quintic
    in r^2 inside; both tabulations of the kernel use these coefficients.
    """
    r0 = 4.0 * eps
    u = r2 / (r0 * r0)
    inside = u < 1.0
    # sigma'(u), sigma''(u): quintic branch inside, sqrt branch outside
    su = np.where(inside, u, 1.0)
    s1 = np.polynomial.polynomial.polyval(su, _SIGMA_D1)
    s2 = np.polynomial.polynomial.polyval(su, _SIGMA_D2)
    uo = np.where(inside, 1.0, u)
    s1 = np.where(inside, s1, 0.5 / np.sqrt(uo))
    s2 = np.where(inside, s2, -0.25 / uo**1.5)
    iso = (s1 + u * s2) / (2.0 * np.pi * r0)
    aniso = -s2 / (2.0 * np.pi * r0**3)
    return iso, aniso


def oseen_regularized(x: np.ndarray, eps: float) -> np.ndarray:
    """Oseen tensor with the singular core replaced inside |x| < 4 eps.

    Outside the core the result is the Oseen tensor exactly, not
    approximately; the splice is C^1 in the entries.  At x = 0 the
    matrix is (1 / 4 pi eps) I.  See `_oseen_generator`.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    x = np.asarray(x, dtype=float)
    iso, aniso = _oseen_generator(np.sum(x * x, axis=-1), eps)
    eye = np.eye(3)
    return eye * iso[..., None, None] + aniso[..., None, None] * x[..., :, None] * x[..., None, :]


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class GridSpec:
    """Cubic box [0, L)^3 with n cells per side, centers at (i + 1/2) h.

    n is a multiple of 8.  Configured grids are powers of two (`SimConfig`
    checks that); windows (`stencil_window`) take any multiple up to theirs.
    """

    box_length: float
    n: int

    def __post_init__(self):
        if not self.box_length > 0.0:
            raise ValueError("box_length must be positive")
        if self.n < 8 or self.n % 8 != 0:
            raise ValueError(f"grid resolution must be a multiple of 8, got {self.n}")

    @property
    def h(self) -> float:
        return self.box_length / self.n

    @property
    def cell_volume(self) -> float:
        return self.h ** 3

    def centers(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.h


class FluidState:
    """Result of a grid solve: velocity plus convergence diagnostics.

    A solve holds its field on its `window` only: `velocity` is a
    C-contiguous float64 (n, n, n, 3) array, n = `window.spec.n`, spaced by
    the window's h.  A Brinkman solve also holds the last force f it applied
    there, of the same shape: u = St f at theta = 1.  `at` reads the field
    at positions in the grid's coordinates, and `dirichlet_energy` pairs it
    with f.  Nothing computes it off the window; the next Brinkman solve
    takes it as `u0`.

    The finite-difference velocity gradient behind `grad_sup_norm` and
    `box_energy` is built on first use of either, once, over the window;
    solves whose gradient nobody reads never build it.  Its nine
    components are squared into one per-cell sum as they arrive, so the
    (n, n, n, 3, 3) gradient is never held.
    """

    def __init__(self, velocity: np.ndarray, residual: float, iterations: int, window: Window,
                 force: np.ndarray | None = None):
        self.velocity, self.residual, self.iterations = velocity, residual, iterations
        self.window = window
        self.force = force  # (n, n, n, 3) on the window; Brinkman solves hold it
        self._gradient_norms = None

    def at(self, positions: np.ndarray) -> np.ndarray:
        """The field at positions in the grid's coordinates, each stencil in the window (`interpolate`)."""
        return interpolate(self.velocity, positions, self.window)

    def _norms(self) -> tuple:
        if self._gradient_norms is None:
            spec = self.window.spec
            square = np.zeros((spec.n,) * 3)  # squared Frobenius norm per cell
            for _, _, d in _gradient_components(self.velocity, spec.h):
                np.multiply(d, d, out=d)
                square += d
            sup = float(np.sqrt(square.max()))
            self._gradient_norms = (sup, float(square.sum() * spec.cell_volume))
        return self._gradient_norms

    @property
    def grad_sup_norm(self) -> float:
        """Sup over cells of the Frobenius norm of the velocity gradient.

        Frobenius dominates the operator norm, so Lipschitz-type bounds
        built from this value stay valid envelopes.
        """
        return self._norms()[0]

    @property
    def box_energy(self) -> float:
        """Box quadrature of |grad u|^2 over the field's grid; the far-field tail outside is dropped."""
        return self._norms()[1]

    @property
    def dirichlet_energy(self) -> float:
        """h^3 <u, f> over the window: the whole-space energy int |grad u|^2 of u = St f by the
        weak form of the solve, with no tail dropped and no gradient built.  Needs the force."""
        return _dot(self.velocity, self.force) * self.window.spec.cell_volume


# ---------------------------------------------------------------------------
# deposit / interpolate (trilinear cloud-in-cell, adjoint pair)


def _cic_stencil(window: Window, positions: np.ndarray, what: str):
    """Yield (flat cell index on the window, weight) for each of the eight trilinear corners.

    The fractions are taken on the grid's lattice, wherever the window sits.
    Every stencil must lie in the window; anything outside, or not finite,
    raises DomainExhaustedError rather than wrapping.
    """
    pos = np.atleast_2d(positions)
    t = pos / window.grid.h - 0.5
    i0 = np.floor(t)  # each stencil's lowest corner cell
    frac = t - i0
    i0 -= window.origin
    bad = ~((i0 >= 0) & (i0 <= window.spec.n - 2))  # in floating point, so NaN and huge cells are caught
    if np.any(bad):
        k = int(np.argwhere(bad.any(axis=1))[0, 0])
        raise DomainExhaustedError(
            f"{what}: {int(bad.any(axis=1).sum())} position(s) outside the usable window "
            f"(first offender index {k} at {pos[k]}); window origin {window.origin}, side {window.spec.n} cells"
        )
    i0, n = i0.astype(np.int64), window.spec.n
    for corner in range(8):
        dx, dy, dz = corner & 1, (corner >> 1) & 1, (corner >> 2) & 1
        wgt = (
            (frac[:, 0] if dx else 1.0 - frac[:, 0])
            * (frac[:, 1] if dy else 1.0 - frac[:, 1])
            * (frac[:, 2] if dz else 1.0 - frac[:, 2])
        )
        yield ((i0[:, 0] + dx) * n + (i0[:, 1] + dy)) * n + (i0[:, 2] + dz), wgt


def deposit(cloud, window: Window) -> tuple[np.ndarray, np.ndarray]:
    """Deposit a weighted sample cloud onto a window of the grid that holds every sample's stencil.

    Returns number density rho, (n, n, n), and momentum density j,
    (n, n, n, 3), on the window's cells, n = `window.spec.n`, already
    divided by the cell volume, so sum(rho) * h^3 equals the total weight
    exactly and sum(j) * h^3 equals the total momentum.  Clouds without
    velocities deposit j = 0.
    """
    w = np.asarray(cloud.w, dtype=float)
    v = getattr(cloud, "v", None)
    n = window.spec.n
    cells = n * n * n
    # one bincount per field over the eight corners in turn: the additions
    # into each cell come in the same order as eight sequential scatters
    stencil = list(_cic_stencil(window, np.asarray(cloud.x, dtype=float), "deposit"))
    flat = np.concatenate([f for f, _ in stencil])
    mass = np.concatenate([w * wgt for _, wgt in stencil])
    vol = window.grid.cell_volume
    rho = np.bincount(flat, weights=mass, minlength=cells) / vol
    if v is None:
        j = np.zeros((n, n, n, 3))
    else:
        j = np.empty((n, n, n, 3))
        for c in range(3):  # each temporary is freed before the next one is made
            np.divide(np.bincount(flat, weights=mass * np.tile(v[:, c], 8), minlength=cells).reshape(n, n, n),
                      vol, out=j[..., c])
    return rho.reshape(n, n, n), j


def interpolate(field: np.ndarray, positions: np.ndarray, window: Window) -> np.ndarray:
    """Evaluate an (n, n, n, 3) field on a window at off-grid points with the same
    trilinear stencil as `deposit`, making the pair adjoint: for any cloud
    and field, sum_i w_i v_i . u(x_i) == sum_cells j . u * h^3.  The
    stencils are the grid's, shifted by the window's origin: bitwise the
    values of the field embedded in zeros on the grid."""
    pos = np.asarray(positions, dtype=float)
    n = window.spec.n
    vals = field.reshape(n * n * n, 3)
    out = np.zeros(np.atleast_2d(pos).shape)
    for flat, wgt in _cic_stencil(window, pos, "interpolate"):
        out += wgt[:, None] * vals[flat]
    return out[0] if pos.ndim == 1 else out


# ---------------------------------------------------------------------------
# spectral free-space Stokes operator


# the six stored tensor components and, for each row a, the component of (a, b)
_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_ROW_COMPONENTS = ((0, 1, 2), (1, 3, 4), (2, 4, 5))
_BLOCK_MODES = 4096  # (ky, kx, kz) modes per pass through the x transforms and the product
_SLAB_BYTES = 1 << 20  # largest slab of y rows of the padded spectrum per pass through the z transforms


class StokesOperator:
    """FFT application of the free-space Stokes mobility on one grid.

    The regularized Oseen tensor (eps = one grid spacing) is tabulated on
    the doubled box and transformed once.  Zero padding makes the circular
    convolution equal the exact linear convolution for sources and targets
    inside the box.  Component (a, a) is even in every axis and (a, b),
    a != b, odd in a and b, so the table is built from the (n + 1)^3 octant
    of nonnegative offsets by type-1 DCTs and DSTs.  It keeps the rows
    ky <= n, shape (n + 1, 6, 2n, n + 1), indexed [ky, component, kx, kz];
    row ky > n is D T(2n - ky) D, D = diag(1, -1, 1), signs in `_product`.

    `apply` never forms the padded (2n)^3 force or the full spectrum of
    all three components.  Seven eighths of the padded cube is zero on the
    way in and thrown away on the way out, so each 1-d pass transforms only
    the rows that can be nonzero or are kept.  A call holds one padded
    spectrum, [ky, component, x, kz] of shape (2n, 3, n, n + 1) complex
    (10.3 MiB at n = 48), plus its (n, n, n, 3) output, and keeps neither:

    1. rfft along z, padded to 2n, on the n x n input rows, one slab of
       y rows (at most _SLAB_BYTES of spectrum) at a time, into rows
       y < n; the rows y >= n are the zero padding;
    2. fft along y over all 2n rows, in place;
    3. for each block of ky rows, ky < n or ky >= n: fft along x
       (padded), the symmetric 3x3 real-by-complex product with the table,
       inverse fft along x, whose first n rows overwrite the block;
    4. inverse fft along y, in place;
    5. irfft along z on the rows y < n, slab by slab, keeping n.

    A rho (x) direction force fills and transforms component 0 only, and
    step 3 writes all three over it.

    The grid may be a `Window` of a larger one (same h, n any multiple of
    8); its table is cached like any other, under (n h, n).

    Solenoidality: the kernel is (I Lap - grad grad) of a radial generator,
    so div K = 0 identically, core included.  The grid output therefore
    samples an exactly divergence-free continuum field, and no k-space
    projection is applied: the box truncation of a 1/r kernel leaves large
    longitudinal leakage in individual modes, so removing it mode by mode
    would perturb the far field at the percent level, while the plain
    convolution is exact to rounding.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        n = spec.n
        axes = np.meshgrid(*3 * [np.arange(n + 1) * spec.h], indexing="ij", sparse=True)  # octant offsets
        iso, aniso = _oseen_generator(axes[0] ** 2 + axes[1] ** 2 + axes[2] ** 2, spec.h)
        self._table = table = np.empty((n + 1, 6, 2 * n, n + 1))
        for c, (a, b) in enumerate(_PAIRS):
            if a == b:  # even in every axis: the transform is a DCT-I
                octant = fft.dctn(aniso * axes[a] ** 2 + iso, type=1)
            else:  # odd in a and b: -DST-I along a and b (offset n, read by no pair, as 0), DCT-I along the third
                inner = tuple(slice(1, n) if axis in (a, b) else slice(None) for axis in range(3))
                octant = np.zeros((n + 1, n + 1, n + 1))
                odd = fft.dstn((aniso * axes[a] * axes[b])[inner], type=1, axes=(a, b))
                octant[inner] = -fft.dct(odd, type=1, axis=3 - a - b)
            table[:, c, : n + 1] = octant.transpose(1, 0, 2)
            # kx > n mirrors kx < n, negated where the component is odd in x
            np.multiply(table[:, c, n - 1 : 0 : -1], -1.0 if a == 0 and b != 0 else 1.0, out=table[:, c, n + 1 :])

    def apply(self, force: np.ndarray, direction: np.ndarray | None = None) -> np.ndarray:
        """Convolve a force density with the kernel; returns (n, n, n, 3).

        `force` is an (n, n, n, 3) vector density, or, with a `direction`,
        an (n, n, n) scalar density rho for the force rho (x) direction.  The
        second form transforms one field instead of three and contracts the
        table with the direction.
        """
        n = self.spec.n
        m = 2 * n
        along = None
        if direction is None:
            if force.shape != (n, n, n, 3):
                raise ValueError(f"force shape {force.shape} != {(n, n, n, 3)}")
            rows = force.transpose(1, 3, 0, 2)  # [y, component, x, z]
        else:
            direction = np.asarray(direction, dtype=float)
            if force.shape != (n, n, n) or direction.shape != (3,):
                raise ValueError(f"density shape {force.shape} != {(n, n, n)} or direction not a 3-vector")
            rows = force.transpose(1, 0, 2)[:, None]
            along = [b for b in range(3) if direction[b] != 0.0]
        spectrum = np.empty((m, 3, n, n + 1), dtype=complex)  # [ky, component, x, kz]
        step = max(1, _SLAB_BYTES // spectrum[0].nbytes)
        slabs = [slice(y0, min(y0 + step, n)) for y0 in range(0, n, step)]  # y rows per z transform
        head = spectrum[:, : rows.shape[1]]  # the components the force fills
        head[n:] = 0.0
        for ys in slabs:
            head[ys] = fft.rfft(rows[ys], n=m, axis=3)
        head = fft.fft(head, axis=0, overwrite_x=True)  # in place wherever scipy can
        block = max(1, _BLOCK_MODES // (m * (n + 1)))
        for h, table, sign in ((0, self._table, (1, 1, 1)), (n, self._table[n:0:-1], (1, -1, 1))):
            for k0 in range(h, h + n, block):  # ky >= n reads row 2n - ky; no block crosses ky = n
                k1 = min(k0 + block, h + n)
                f = fft.fft(head[k0:k1], n=m, axis=2)  # [ky, component, kx, kz]
                u = self._product(table[k0 - h : k1 - h], f, direction, along, sign)
                spectrum[k0:k1] = fft.ifft(u, axis=2, overwrite_x=True)[:, :, :n]  # over the rows f consumed
        del head
        spectrum = fft.ifft(spectrum, axis=0, overwrite_x=True)  # [y, a, x, kz]
        out = np.empty((n, n, n, 3))
        for ys in slabs:
            u = fft.irfft(spectrum[ys], n=m, axis=3)
            np.multiply(u[..., :n].transpose(2, 0, 3, 1), self.spec.cell_volume, out=out[:, ys])
        return out

    @staticmethod
    def _product(table, f, direction, along, sign):
        """Table rows times the x-transformed block f, as D T D with D = diag(sign).

        f is [ky, component, kx, kz] and the result [ky, a, kx, kz]: the
        symmetric 3x3 product, or for a rho (x) direction force the table
        contracted with the direction times the one density spectrum.
        """
        if direction is None:
            u = np.empty_like(f)
            term = np.empty_like(f[:, 0])
            for a, comps in enumerate(_ROW_COMPONENTS):
                np.multiply(table[:, comps[a]], f[:, a], out=u[:, a])
                for b in ((a + 1) % 3, (a + 2) % 3):
                    np.multiply(table[:, comps[b]], f[:, b], out=term)
                    (np.add if sign[a] == sign[b] else np.subtract)(u[:, a], term, out=u[:, a])
            return u
        kg = np.zeros(f.shape[:1] + (3,) + f.shape[2:])  # table rows contracted with direction
        for a, comps in enumerate(_ROW_COMPONENTS):
            for b in along:
                kg[:, a] += sign[a] * sign[b] * direction[b] * table[:, comps[b]]
        return kg * f


def stokes_direct_sum(spec: GridSpec, force_values: np.ndarray) -> np.ndarray:
    """Reference for `StokesOperator.apply`: the direct sum
    u(x_i) = h^3 sum_j Phi_h(x_i - x_j) f_j over all cell pairs, with the
    same regularized kernel.  O(n^6), so only for tiny grids."""
    cen = spec.centers()
    x = np.stack(np.meshgrid(cen, cen, cen, indexing="ij"), axis=-1).reshape(-1, 3)
    f = force_values.reshape(-1, 3)
    u = np.empty_like(f)
    for i in range(x.shape[0]):
        u[i] = np.einsum("jab,jb->a", oseen_regularized(x[i] - x, spec.h), f)
    return u.reshape(force_values.shape) * spec.cell_volume


_OPERATOR_CACHE: OrderedDict = OrderedDict()
_OPERATOR_CACHE_MAX = 3


def get_operator(spec: GridSpec) -> StokesOperator:
    key = (spec.box_length, spec.n)
    op = _OPERATOR_CACHE.get(key)
    if op is None:
        op = StokesOperator(spec)
        _OPERATOR_CACHE[key] = op
        while len(_OPERATOR_CACHE) > _OPERATOR_CACHE_MAX:
            _OPERATOR_CACHE.popitem(last=False)
    else:
        _OPERATOR_CACHE.move_to_end(key)
    return op


# ---------------------------------------------------------------------------
# windows: fields sized to the cloud's stencils


@dataclass(frozen=True)
class Window:
    """The cube of cells origin + [0, spec.n)^3 of a grid's lattice, as a grid of its own.

    `spec` has the grid's spacing h, so its `StokesOperator` tabulates the
    same kernel (eps = h) on a smaller padded box.  Zero padding makes that
    convolution exact for sources and targets inside the window, so a force
    supported in the window gives there the velocity of the whole-grid
    solve, to rounding.
    """

    grid: GridSpec
    origin: tuple  # first cell along x, y and z
    spec: GridSpec

    @property
    def cells(self) -> tuple:
        """Index of the window's cells in a whole-grid array."""
        return tuple(slice(o, o + self.spec.n) for o in self.origin)


def stencil_window(grid: GridSpec, positions: np.ndarray) -> Window:
    """Smallest cube of cells that holds every cell the trilinear stencils of `positions` read.

    Its origin is the lowest stencil cell, any integer triple, and its side
    the widest span rounded up to a multiple of 8.  Stencils that span more
    than the grid's n cells raise DomainExhaustedError, as do positions not
    finite or 2^52 cells or more from the origin, where they resolve no cell.
    """
    corners = np.floor(np.atleast_2d(positions) / grid.h - 0.5)  # each stencil's lowest cell
    lo, hi = (corners.min(axis=0), corners.max(axis=0)) if len(corners) else (np.zeros(3), np.zeros(3))
    span = float(np.max(hi - lo)) + 2.0  # NaN if any position is
    if not (span <= grid.n and np.abs(lo).max() < 2.0**52):
        raise DomainExhaustedError(f"stencil window: the stencils span {span:g} cells from cell {lo}; a window "
                                   f"is at most {grid.n} cells on a side and within 2^52 cells of the origin")
    side = max(8, -(-int(span) // 8) * 8)
    return Window(grid, tuple(int(o) for o in lo), GridSpec(side * grid.h, side))


def stokes_solve(force, window: Window, direction=None) -> FluidState:
    """Velocity field of a force density on a window, in free space.

    `force` is an (n, n, n, 3) array on the window's cells, n =
    `window.spec.n`, or, with a `direction`, an (n, n, n) density rho for
    the force rho (x) direction, which costs one forward transform instead
    of three.  The field, (n, n, n, 3), agrees with the whole-grid solve on
    the window when the force vanishes off it.
    """
    if not np.all(np.isfinite(force)):
        raise ValueError("force density contains non-finite values")
    return FluidState(get_operator(window.spec).apply(force, direction), 0.0, 1, window)


def brinkman_solve(
    rho: np.ndarray,
    j: np.ndarray,
    window: Window,
    tol: float = 1e-9,
    max_iter: int = 200,
    theta: float = 1.0,
    u0: FluidState | None = None,
) -> FluidState:
    """Solve -Lap u + grad p = j - rho u, div u = 0 by damped fixed point.

    Iterates u <- (1 - theta) u + theta St(j - rho u).  At the dilute
    loadings this box sees the map is strongly contractive and theta = 1
    converges in a handful of applications; if the defect ever grows the
    damping halves (down to 1/8), which restores convergence for heavily
    loaded densities at the usual damped-Jacobi cost.  It returns u_{k+1} once
    the undamped defect d_k = ||St(j - rho u_k) - u_k|| / ||u_k||, which
    dominates the reported step residual, is at most tol or, at theta = 1,
    once d_{k-1} and d_k put u_{k+1} within tol of the fixed point
    (`contraction_stop`).  A defect above tol after max_iter applications
    raises ConvergenceError with that defect and the iteration count.

    The force j - rho u vanishes off the support of rho, (n, n, n), and j,
    (n, n, n, 3), so the loop runs on the window they were deposited on,
    n = `window.spec.n`, and measures the defect and the residual there.  A previous solve `u0` starts it from its field
    where the two windows overlap, zero elsewhere.  The returned
    `FluidState` holds the field and the last force on the window.  With
    theta = 1 the field is that force's image, so their pairing is its
    Dirichlet energy; after damping it differs by the order of the defect.
    """
    n = window.spec.n
    if rho.shape != (n, n, n) or j.shape != (n, n, n, 3):
        raise ValueError(f"rho {rho.shape} or j {j.shape} is not a field on the window of side {n}")
    if np.any(rho < 0.0):
        raise ValueError("rho must be nonnegative")
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(j))):
        raise ValueError("non-finite input field")
    op = get_operator(window.spec)
    if rho.max(initial=0.0) == 0.0:
        # no drag: the equation is linear Stokes, one application is exact
        return FluidState(op.apply(j), 0.0, 1, window, j)
    rhov = rho[..., None]
    u = np.zeros(j.shape)
    if u0 is not None:  # u0's field where its window meets this one
        lo = np.maximum(window.origin, u0.window.origin)
        end = np.minimum(np.add(window.origin, window.spec.n), np.add(u0.window.origin, u0.window.spec.n))
        if np.all(lo < end):
            u[tuple(map(slice, lo - window.origin, end - window.origin))] = \
                u0.velocity[tuple(map(slice, lo - u0.window.origin, end - u0.window.origin))]
    u_norm, tiny = _norm(u), 1e-300
    defect = prev_defect = np.inf
    for it in range(1, max_iter + 1):
        force = j - rhov * u
        image = op.apply(force)
        step, image_norm = _norm(image - u), _norm(image)
        defect = step / max(image_norm, u_norm, tiny)
        if defect > prev_defect and theta > 0.125:
            theta *= 0.5
        u_next, u_norm = image, image_norm  # at theta = 1 the step and its norms are the defect's
        if theta != 1.0:
            u_next = (1.0 - theta) * u + theta * image
            step, u_norm = _norm(u_next - u), _norm(u_next)
        if defect <= tol or (theta == 1.0 and contraction_stop(defect, prev_defect, tol)):
            return FluidState(u_next, step / max(u_norm, tiny), it, window, force)
        u, prev_defect = u_next, defect
    raise ConvergenceError(
        f"Brinkman iteration left defect {defect:.3e} > tol {tol:.3e} after {max_iter} applications",
        residual=float(defect),
        iterations=max_iter,
    )


def contraction_stop(defect: float, prev_defect: float, tol: float) -> bool:
    """Whether F(u) is within tol of the fixed point of F, judged from the last two defects
    ||F(u) - u||: if their ratio q < 1/2 bounds F's contraction, that distance is at most
    q / (1 - q) defect <= 2 q defect.  An infinite (first), zero or non-finite prev_defect gives no q."""
    q = defect / prev_defect if 0.0 < prev_defect < math.inf else 1.0
    return q < 0.5 and 2.0 * q * defect <= tol


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of contiguous arrays by numpy's own summation loop: `np.dot` and `np.linalg.norm`
    call BLAS, whose last bits change with its thread count, and so could a stop decision or an output."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def _norm(x: np.ndarray) -> float:
    return math.sqrt(_dot(x, x))


# ---------------------------------------------------------------------------
# gradient diagnostics and identities


def _gradient_components(field: np.ndarray, h: float):
    """Yield (a, b, d u_a / d x_b) for the nine finite-difference entries of an (n, n, n, 3) field's gradient."""
    for a in range(3):
        for b, d in enumerate(np.gradient(field[..., a], h)):
            yield a, b, d


def velocity_gradient(field: np.ndarray, h: float) -> np.ndarray:
    """Finite-difference gradient of an (n, n, n, 3) field of spacing h, (n,n,n,3,3) with [a,b] = d u_a / d x_b."""
    g = np.empty(field.shape + (3,))
    for a, b, d in _gradient_components(field, h):
        g[..., a, b] = d
    return g


@dataclass
class DissipationReport:
    lhs: float  # int V . (V - u) drho
    grad_term: float  # || grad u ||_2^2
    friction_term: float  # || V - u ||_{L2(rho)}^2
    residual: float
    rel_residual: float


def dissipation_check(rho: np.ndarray, bulk: np.ndarray, fluid: FluidState) -> DissipationReport:
    """Test the Brinkman solution against its own weak form.

    With u = Br^{-1}_rho[V] the identity
        int V . (V - u) drho = ||grad u||^2 + ||V - u||^2_{L2(rho)}
    holds in the continuum; the report carries the discrete residual,
    relative to the largest term.  ||grad u||^2 is the box quadrature of
    the finite-difference gradient (`FluidState.box_energy`), so the field
    must span rho's grid.  rho, (n, n, n), and the bulk velocity V,
    (n, n, n, 3), are fields on the fluid's window.
    """
    vol = fluid.window.spec.cell_volume
    u = fluid.velocity
    V = bulk
    r = rho[..., None]
    lhs = float(np.sum(V * (V - u) * r) * vol)
    grad = fluid.box_energy
    fric = float(np.sum((V - u) ** 2 * r) * vol)
    res = lhs - grad - fric
    scale = max(abs(lhs), grad, fric, 1e-300)
    return DissipationReport(lhs, grad, fric, res, abs(res) / scale)
