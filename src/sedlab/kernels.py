"""Free-space Stokes and Brinkman mobility kernels on cubic grids.

The long-range hydrodynamic interaction is the Oseen tensor

    Phi(x) = (1/8pi) (I/|x| + x xT / |x|^3),

the velocity field of a unit point force in unbounded Stokes flow.
Grid solves tabulate a regularized version of Phi on a zero-padded
box (twice the side length), so the FFT convolution is the exact
linear convolution for sources and targets inside the box: there are
no periodic images.  The origin cell is handled by `oseen_regularized`
with a smoothing length of one grid spacing.  The convolution is pruned
and blocked (see `StokesOperator`): it transforms only the rows of the
padded cube that can be nonzero or are kept, and it works through the
spectrum a few ky columns at a time.  A force of the form rho g (a
density times one direction) needs a single forward transform.

Fields live on cell centers (i + 1/2) h of a cube [0, L)^3.  Energy
integrals over the box omit the O(h/L) far-field tail outside it;
callers that compare against whole-space identities should keep the
cloud diameter well under L.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
import struct

import numpy as np
from scipy import fft

from .csvfile import write_csv
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
    """Cubic box [0, L)^3 with n cells per side, centers at (i + 1/2) h."""

    box_length: float
    n: int

    def __post_init__(self):
        if not self.box_length > 0.0:
            raise ValueError("box_length must be positive")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid resolution must be a power of two >= 8, got {self.n}")

    @property
    def h(self) -> float:
        return self.box_length / self.n

    @property
    def cell_volume(self) -> float:
        return self.h ** 3

    def centers(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.h


@dataclass
class ScalarGrid:
    spec: GridSpec
    values: np.ndarray  # (n, n, n)

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        n = self.spec.n
        if self.values.shape != (n, n, n):
            raise ValueError(f"scalar grid shape {self.values.shape} != {(n, n, n)}")


@dataclass
class VectorGrid:
    spec: GridSpec
    values: np.ndarray  # (n, n, n, 3)

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        n = self.spec.n
        if self.values.shape != (n, n, n, 3):
            raise ValueError(f"vector grid shape {self.values.shape} != {(n, n, n, 3)}")

    @property
    def box_length(self) -> float:
        return self.spec.box_length

    @property
    def n(self) -> int:
        return self.spec.n


@dataclass
class FluidState:
    """Result of a grid solve: velocity plus convergence diagnostics.

    The finite-difference velocity gradient behind `grad_sup_norm` and
    `dirichlet_energy` is built on first use of either, once; solves whose
    gradient nobody reads never build it.
    """

    velocity: VectorGrid
    residual: float
    iterations: int
    _gradient_norms: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def _norms(self) -> tuple:
        if self._gradient_norms is None:
            g = velocity_gradient(self.velocity)
            g *= g
            sup = float(np.sqrt(g.sum(axis=(-2, -1)).max()))
            self._gradient_norms = (sup, float(g.sum() * self.velocity.spec.cell_volume))
        return self._gradient_norms

    @property
    def grad_sup_norm(self) -> float:
        """Sup over cells of the Frobenius norm of the velocity gradient.

        Frobenius dominates the operator norm, so Lipschitz-type bounds
        built from this value stay valid envelopes.
        """
        return self._norms()[0]

    @property
    def dirichlet_energy(self) -> float:
        """Box quadrature of |grad u|^2; the far-field tail outside is dropped."""
        return self._norms()[1]


# ---------------------------------------------------------------------------
# deposit / interpolate (trilinear cloud-in-cell, adjoint pair)


def _cic_stencil(spec: GridSpec, positions: np.ndarray, what: str):
    """Yield (flat cell index, weight) for each of the eight trilinear corners.

    Positions must stay a half cell away from the box faces; anything
    outside raises DomainExhaustedError rather than wrapping silently.
    """
    pos = np.atleast_2d(positions)
    t = pos / spec.h - 0.5
    i0 = np.floor(t).astype(np.int64)
    frac = t - i0
    bad = (i0 < 0) | (i0 > spec.n - 2)
    if np.any(bad):
        k = int(np.argwhere(bad.any(axis=1))[0, 0])
        raise DomainExhaustedError(
            f"{what}: {int(bad.any(axis=1).sum())} position(s) outside the usable box "
            f"(first offender index {k} at {pos[k]}); box side {spec.box_length}"
        )
    n = spec.n
    for corner in range(8):
        dx, dy, dz = corner & 1, (corner >> 1) & 1, (corner >> 2) & 1
        wgt = (
            (frac[:, 0] if dx else 1.0 - frac[:, 0])
            * (frac[:, 1] if dy else 1.0 - frac[:, 1])
            * (frac[:, 2] if dz else 1.0 - frac[:, 2])
        )
        yield ((i0[:, 0] + dx) * n + (i0[:, 1] + dy)) * n + (i0[:, 2] + dz), wgt


def deposit(cloud, spec: GridSpec) -> tuple[ScalarGrid, VectorGrid]:
    """Deposit a weighted sample cloud onto the grid.

    Returns number density rho and momentum density j as grid fields
    (already divided by the cell volume), so sum(rho) * h^3 equals the
    total weight exactly and sum(j) * h^3 equals the total momentum.
    Clouds without velocities deposit j = 0.
    """
    w = np.asarray(cloud.w, dtype=float)
    v = getattr(cloud, "v", None)
    n = spec.n
    rho = np.zeros(n * n * n)
    j = np.zeros((n * n * n, 3)) if v is not None else None
    for flat, wgt in _cic_stencil(spec, np.asarray(cloud.x, dtype=float), "deposit"):
        np.add.at(rho, flat, w * wgt)
        if j is not None:
            np.add.at(j, flat, (w * wgt)[:, None] * v)
    vol = spec.cell_volume
    rho_grid = ScalarGrid(spec, rho.reshape(n, n, n) / vol)
    j_vals = j.reshape(n, n, n, 3) / vol if j is not None else np.zeros((n, n, n, 3))
    return rho_grid, VectorGrid(spec, j_vals)


def interpolate(field: VectorGrid, positions: np.ndarray) -> np.ndarray:
    """Evaluate a grid field at off-grid points with the same trilinear
    stencil as `deposit`, making the pair adjoint: for any cloud and field,
    sum_i w_i v_i . u(x_i) == sum_cells j . u * h^3."""
    pos = np.asarray(positions, dtype=float)
    n = field.spec.n
    vals = field.values.reshape(n * n * n, 3)
    out = np.zeros(np.atleast_2d(pos).shape)
    for flat, wgt in _cic_stencil(field.spec, pos, "interpolate"):
        out += wgt[:, None] * vals[flat]
    return out[0] if pos.ndim == 1 else out


# ---------------------------------------------------------------------------
# spectral free-space Stokes operator


# the six stored tensor components and, for each row a, the component of (a, b)
_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_ROW_COMPONENTS = ((0, 1, 2), (1, 3, 4), (2, 4, 5))
_BLOCK_MODES = 4096  # (ky, kx, kz) modes per pass through the x transforms and the product


class StokesOperator:
    """FFT application of the free-space Stokes mobility on one grid.

    The regularized Oseen tensor (eps = one grid spacing) is tabulated on
    the doubled box and transformed once.  Zero padding makes the circular
    convolution equal the exact linear convolution for sources and targets
    inside the box.  Tabulation is even in x, hence the transform is real;
    the six independent tensor components are kept in one ky-major table
    of shape (2n, 6, 2n, n + 1), indexed [ky, component, kx, kz].

    `apply` never forms the padded (2n)^3 force or the full spectrum of
    all three components.  Seven eighths of the padded cube is zero on the
    way in and thrown away on the way out, so each 1-d pass transforms only
    the rows that can be nonzero or are kept:

    1. rfft along z, padded to 2n, on the n x n input rows;
    2. fft along y, padded to 2n, on the n x-rows of that half spectrum;
    3. for each block of ky columns: fft along x (padded), the symmetric
       3x3 real-by-complex product with the table, inverse fft along x,
       keeping the first n rows;
    4. inverse fft along y, keeping n;
    5. irfft along z, keeping n.

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
        m = 2 * n
        k = np.arange(m)
        xi = np.where(k <= n, k, k - m) * spec.h  # min-image offsets
        r2 = xi[:, None, None] ** 2 + xi[None, :, None] ** 2 + xi[None, None, :] ** 2
        iso, aniso = _oseen_generator(r2, spec.h)
        del r2
        table = np.empty((m, 6, m, n + 1))
        for c, (a, b) in enumerate(_PAIRS):
            comp = aniso * _axis_coord(xi, a) * _axis_coord(xi, b)
            if a == b:
                comp += iso
            # even tabulation -> real transform; stored ky-major
            table[:, c] = fft.rfftn(comp).real.transpose(1, 0, 2)
        self._table = table

    def apply(self, force: np.ndarray, direction: np.ndarray | None = None) -> np.ndarray:
        """Convolve a force density with the kernel; returns (n, n, n, 3).

        `force` is an (n, n, n, 3) vector density, or, with a `direction`,
        an (n, n, n) scalar density rho for the force rho (x) direction.  The
        second form transforms one field instead of three and contracts the
        table with the direction.
        """
        n = self.spec.n
        m = 2 * n
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
        half = fft.rfft(rows, n=m, axis=3)
        spectrum = fft.fft(half, n=m, axis=0, overwrite_x=True)  # [ky, component, x, kz]
        del half
        kept = np.empty((m, 3, n, n + 1), dtype=complex)  # [ky, a, x, kz]
        block = max(1, _BLOCK_MODES // (m * (n + 1)))
        for k0 in range(0, m, block):
            table = self._table[k0 : k0 + block]
            f = fft.fft(spectrum[k0 : k0 + block], n=m, axis=2)  # [ky, component, kx, kz]
            if direction is None:
                u = np.empty_like(f)
                term = np.empty_like(f[:, 0])
                for a, comps in enumerate(_ROW_COMPONENTS):
                    np.multiply(table[:, comps[0]], f[:, 0], out=u[:, a])
                    for b in (1, 2):
                        np.multiply(table[:, comps[b]], f[:, b], out=term)
                        u[:, a] += term
            else:
                kg = np.zeros(f.shape[:1] + (3,) + f.shape[2:])  # table rows contracted with direction
                for a, comps in enumerate(_ROW_COMPONENTS):
                    for b in along:
                        kg[:, a] += direction[b] * table[:, comps[b]]
                u = kg * f
            kept[k0 : k0 + block] = fft.ifft(u, axis=2, overwrite_x=True)[:, :, :n]
        del spectrum
        u = fft.irfft(fft.ifft(kept, axis=0, overwrite_x=True)[:n], n=m, axis=3)
        out = np.empty((n, n, n, 3))
        np.multiply(u[..., :n].transpose(2, 0, 3, 1), self.spec.cell_volume, out=out)
        return out


def _axis_coord(xi: np.ndarray, axis: int) -> np.ndarray:
    shape = [1, 1, 1]
    shape[axis] = -1
    return xi.reshape(shape)


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


def stokes_solve(force, direction=None) -> FluidState:
    """Velocity field of a force density in free space, on the force's grid.

    `force` is a VectorGrid, or, with a `direction`, a ScalarGrid density
    rho for the force rho (x) direction, which costs one forward transform
    instead of three.
    """
    if not np.all(np.isfinite(force.values)):
        raise ValueError("force density contains non-finite values")
    op = get_operator(force.spec)
    u = VectorGrid(force.spec, op.apply(force.values, direction))
    return FluidState(u, residual=0.0, iterations=1)


def brinkman_solve(
    rho: ScalarGrid,
    j: VectorGrid,
    tol: float = 1e-9,
    max_iter: int = 200,
    theta: float = 1.0,
    u0: VectorGrid | None = None,
) -> FluidState:
    """Solve -Lap u + grad p = j - rho u, div u = 0 by damped fixed point.

    Iterates u <- (1 - theta) u + theta St(j - rho u).  At the dilute
    loadings this box sees the map is strongly contractive and theta = 1
    converges in a handful of applications; if the defect ever grows the
    damping halves (down to 1/8), which restores convergence for heavily
    loaded densities at the usual damped-Jacobi cost.  The stop rule is the
    undamped defect ||St(j - rho u) - u|| / ||u|| <= tol, which dominates the
    reported step residual ||u_{k+1} - u_k|| / ||u_k||.  A defect still
    above tol after max_iter applications raises ConvergenceError carrying
    that defect and the iteration count.
    """
    if rho.spec != j.spec:
        raise ValueError("rho and j live on different grids")
    if np.any(rho.values < 0.0):
        raise ValueError("rho must be nonnegative")
    if not (np.all(np.isfinite(rho.values)) and np.all(np.isfinite(j.values))):
        raise ValueError("non-finite input field")
    op = get_operator(rho.spec)
    if rho.values.max(initial=0.0) == 0.0:
        # no drag: the equation is linear Stokes, one application is exact
        return FluidState(VectorGrid(rho.spec, op.apply(j.values)), residual=0.0, iterations=1)
    u = np.zeros_like(j.values) if u0 is None else u0.values.copy()
    rhov = rho.values[..., None]
    tiny = 1e-300
    defect = prev_defect = np.inf
    for it in range(1, max_iter + 1):
        image = op.apply(j.values - rhov * u)
        scale = max(np.linalg.norm(image), np.linalg.norm(u), tiny)
        defect = np.linalg.norm(image - u) / scale
        if defect > prev_defect and theta > 0.125:
            theta *= 0.5
        prev_defect = defect
        u_next = (1.0 - theta) * u + theta * image
        residual = np.linalg.norm(u_next - u) / max(np.linalg.norm(u_next), tiny)
        u = u_next
        if defect <= tol:
            return FluidState(VectorGrid(rho.spec, u), residual=residual, iterations=it)
    raise ConvergenceError(
        f"Brinkman iteration left defect {defect:.3e} > tol {tol:.3e} after {max_iter} applications",
        residual=float(defect),
        iterations=max_iter,
    )


# ---------------------------------------------------------------------------
# gradient diagnostics and identities


def velocity_gradient(field: VectorGrid) -> np.ndarray:
    """Finite-difference gradient, (n,n,n,3,3) with entry [a,b] = d u_a / d x_b."""
    h = field.spec.h
    n = field.spec.n
    g = np.empty((n, n, n, 3, 3))
    for a in range(3):
        for b, d in enumerate(np.gradient(field.values[..., a], h)):
            g[..., a, b] = d
    return g


def velocity_from_flux(rho: ScalarGrid, j: VectorGrid, floor_ratio: float = 1e-12) -> VectorGrid:
    """Bulk velocity j / rho with a density floor: cells with rho below
    floor_ratio * max(rho) get zero velocity instead of a division."""
    rmax = float(rho.values.max(initial=0.0))
    floor = floor_ratio * rmax
    safe = np.where(rho.values > floor, rho.values, 1.0)
    v = j.values / safe[..., None]
    v[rho.values <= floor] = 0.0
    return VectorGrid(rho.spec, v)


@dataclass
class DissipationReport:
    lhs: float  # int V . (V - u) drho
    grad_term: float  # || grad u ||_2^2
    friction_term: float  # || V - u ||_{L2(rho)}^2
    residual: float
    rel_residual: float


def dissipation_check(rho: ScalarGrid, bulk: VectorGrid, fluid: FluidState) -> DissipationReport:
    """Test the Brinkman solution against its own weak form.

    With u = Br^{-1}_rho[V] the identity
        int V . (V - u) drho = ||grad u||^2 + ||V - u||^2_{L2(rho)}
    holds in the continuum; the report carries the discrete residual,
    relative to the largest term.
    """
    vol = rho.spec.cell_volume
    u = fluid.velocity.values
    V = bulk.values
    r = rho.values[..., None]
    lhs = float(np.sum(V * (V - u) * r) * vol)
    grad = fluid.dirichlet_energy
    fric = float(np.sum((V - u) ** 2 * r) * vol)
    res = lhs - grad - fric
    scale = max(abs(lhs), grad, fric, 1e-300)
    return DissipationReport(lhs, grad, fric, res, abs(res) / scale)


# ---------------------------------------------------------------------------
# serialization

_GRID_HEADER = struct.Struct("<dq")  # box_length, n


def save_vector_grid(field: VectorGrid, path) -> None:
    """Flat binary: header (L float64, n int64), payload row-major
    float64 little-endian triples."""
    with open(path, "wb") as f:
        f.write(_GRID_HEADER.pack(field.spec.box_length, field.spec.n))
        f.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def load_vector_grid(path) -> VectorGrid:
    with open(path, "rb") as f:
        L, n = _GRID_HEADER.unpack(f.read(_GRID_HEADER.size))
        data = np.frombuffer(f.read(), dtype="<f8")
    spec = GridSpec(L, int(n))
    expect = spec.n ** 3 * 3
    if data.size != expect:
        raise ValueError(f"grid payload has {data.size} floats, expected {expect}")
    return VectorGrid(spec, data.reshape(spec.n, spec.n, spec.n, 3).copy())


def save_vector_grid_csv(field: VectorGrid, path) -> None:
    n = field.spec.n
    u = field.values
    rows = ((i, j, k, *u[i, j, k]) for i in range(n) for j in range(n) for k in range(n))
    write_csv(path, ["i", "j", "k", "ux", "uy", "uz"], rows)
