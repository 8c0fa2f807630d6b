"""Grids, problem descriptions, scheme configuration and time-step selection.

The solver works on uniform node grids: [a, b] split into N cells gives N+1
nodes x_i = a + i*dx.  A problem is the scalar conservation-diffusion law

    u_t + f(u)_x = g(u)_xx,        g'(u) >= 0 (degeneracy allowed),

with either periodic boundary conditions or the special homogeneous regime
(all spatial derivatives vanish at both ends; satisfied by data that is
constant near the boundary).  A 2D problem is one such law per axis; grids
and problems expose their per-axis parts as `axes`, so the stepping driver
and the operator treat 1D as one axis and 2D as two, with one WaveBounds per
axis (a one-entry tuple in 1D) and one sampler of u0, `initial_field`.

A field enters and leaves the solver on the grid's N+1 nodes per axis, node
N of a periodic axis repeating node 0; `unique_nodes` checks that layout and
keeps the nodes the solver evolves, dropping node N of periodic data.
Data past the ends is read by one rule: `padded` extends the last axis by
wrapping periodic data and repeating other data's end values, and `shifted`
returns the neighbour views v_{i+m} as slices of that one padded array.  The
quadrature rules read the padded line itself, the filter reads its slices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import LINEAR6, WENO5

#: samples used when bounding |f'| and |g'| over the solution range
BOUND_SAMPLES = 2048

#: below this, an advection/diffusion block is considered absent
DEGENERATE_TOL = 1e-14

#: largest accepted gap |u[..., N] - u[..., 0]| on a periodic axis, relative
#: to max|u|: node N repeats node 0 (`unique_nodes`)
PERIODIC_TOL = 1e-12


def _is_int(value) -> bool:
    """True for Python and numpy integers; False for bools and floats."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class Boundary(enum.Enum):
    PERIODIC = "periodic"
    HOMOGENEOUS = "homogeneous"


@dataclass(frozen=True)
class Grid1D:
    a: float
    b: float
    n_cells: int
    dx: float
    nodes: np.ndarray

    @property
    def axes(self) -> tuple:
        return (self,)


@dataclass(frozen=True)
class Grid2D:
    gx: Grid1D
    gy: Grid1D

    @property
    def axes(self) -> tuple:
        return (self.gx, self.gy)


def build_grid_1d(a: float, b: float, n_cells: int) -> Grid1D:
    """Uniform grid of n_cells cells (n_cells+1 nodes) on [a, b]."""
    if not (b > a and np.isfinite(b - a)):
        raise ValueError(f"need finite ends with b > a, got [{a}, {b}]")
    if not _is_int(n_cells):
        raise ValueError(f"n_cells must be an integer, got {n_cells!r}")
    if n_cells < 6:
        raise ValueError(f"need at least 6 cells for the quadrature stencil, got {n_cells}")
    dx = (b - a) / n_cells
    nodes = a + dx * np.arange(n_cells + 1)
    return Grid1D(a=float(a), b=float(b), n_cells=int(n_cells), dx=float(dx), nodes=nodes)


def build_grid_2d(ax: float, bx: float, nx: int, ay: float, by: float, ny: int) -> Grid2D:
    return Grid2D(gx=build_grid_1d(ax, bx, nx), gy=build_grid_1d(ay, by, ny))


def unique_nodes(values: np.ndarray, bc: Boundary, grid: Grid1D | Grid2D):
    """The nodes of a grid field that the solver evolves, and the rule that
    restores the grid's layout, N+1 nodes per axis (checked): periodic data,
    whose node N must repeat node 0 on each axis to PERIODIC_TOL, drops node
    N, and the rule appends node 0 again; other data keeps its nodes, and
    the rule copies them."""
    expected = tuple(g.n_cells + 1 for g in reversed(grid.axes))
    if values.shape != expected:
        raise ValueError(f"expected initial data of shape {expected} on this grid, "
                         f"got shape {values.shape}")
    if bc is not Boundary.PERIODIC:
        return values, np.copy
    scale = PERIODIC_TOL * np.max(np.abs(values))
    for name, v in zip("xy", (values, values.T)[:values.ndim]):
        gap = np.max(np.abs(v[..., -1] - v[..., 0]))
        if gap > scale:
            raise ValueError(f"periodic data along {name} differs at its two ends "
                             f"(max gap {gap:.3g}); node N must repeat node 0")
    return values[(slice(-1),) * values.ndim], lambda v: np.pad(v, (0, 1), mode="wrap")


def padded(v: np.ndarray, bc: Boundary, lo: int, hi: int) -> np.ndarray:
    """v_{i} for i = lo..n-1+hi (lo <= 0 <= hi), n = v.shape[-1], along the
    last axis: a new array padded by -lo nodes before and hi after.

    Periodic data wraps around its n nodes, other data repeats its end values.
    """
    n = v.shape[-1]
    if bc is Boundary.PERIODIC:
        return np.concatenate((v[..., n + lo:], v, v[..., :hi]), axis=-1)
    ext = np.empty(v.shape[:-1] + (n + hi - lo,), dtype=v.dtype)
    ext[..., :-lo] = v[..., :1]
    ext[..., -lo:n - lo] = v
    ext[..., n - lo:] = v[..., -1:]
    return ext


def shifted(v: np.ndarray, bc: Boundary, lo: int, hi: int) -> list:
    """Views w_m = v_{i+m} for m = lo..hi along the last axis: the slices of
    `padded(v, bc, lo, hi)`."""
    ext = padded(v, bc, lo, hi)
    n = v.shape[-1]
    return [ext[..., m:m + n] for m in range(hi - lo + 1)]


@dataclass
class ProblemSpec:
    """Scalar 1D problem u_t + f(u)_x = g(u)_xx."""

    flux: Callable[[np.ndarray], np.ndarray]
    flux_deriv: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    diffusion_deriv: Callable[[np.ndarray], np.ndarray]
    initial: Callable[[np.ndarray], np.ndarray]
    bc: Boundary = Boundary.PERIODIC

    @property
    def axes(self) -> tuple:
        return (self,)


@dataclass
class ProblemSpec2D:
    """u_t + f1(u)_x + f2(u)_y = g1(u)_xx + g2(u)_yy with initial data u0(x, y).

    The solver applies the 1D operator along every grid line of each axis;
    `axes` holds the x and y problems it uses, built once here.
    """

    f1: Callable
    f1_deriv: Callable
    g1: Callable
    g1_deriv: Callable
    f2: Callable
    f2_deriv: Callable
    g2: Callable
    g2_deriv: Callable
    initial: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bc: Boundary = Boundary.PERIODIC

    def __post_init__(self):
        self.axes = (
            ProblemSpec(flux=self.f1, flux_deriv=self.f1_deriv, diffusion=self.g1,
                        diffusion_deriv=self.g1_deriv, initial=None, bc=self.bc),
            ProblemSpec(flux=self.f2, flux_deriv=self.f2_deriv, diffusion=self.g2,
                        diffusion_deriv=self.g2_deriv, initial=None, bc=self.bc))


@dataclass
class SchemeConfig:
    """Scheme parameters: order k, beta, CFL, the convection quadrature rule.

    The diffusion chain and the k=3 cross term always use the linear rule.
    cross_term_k3 activates the extra fourth-derivative correction that makes
    the k=3 convection operator A-stable; lower orders ignore it.
    """

    order: int = 3
    beta: float = 0.4
    cfl: float = 0.5
    quadrature: str = WENO5  # WENO5 or LINEAR6
    filter_enabled: bool = True
    cross_term_k3: bool = True

    def __post_init__(self):
        if not _is_int(self.order) or self.order not in (1, 2, 3):
            raise ValueError(f"order must be 1, 2 or 3, got {self.order!r}")
        for name in ("beta", "cfl"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, not a bool, got {value!r}")
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.quadrature not in (WENO5, LINEAR6):
            raise ValueError(f"unknown quadrature {self.quadrature!r}")
        for name in ("filter_enabled", "cross_term_k3"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")


@dataclass
class SolutionField:
    values: np.ndarray
    time: float = 0.0


def initial_field(problem: ProblemSpec | ProblemSpec2D, grid: Grid1D | Grid2D,
                  t0: float) -> SolutionField:
    """Sample u0 on the grid's nodes at time t0: N+1 values in 1D, a
    (ny+1, nx+1) field in 2D with x along the last axis."""
    nodes = np.meshgrid(*(g.nodes for g in grid.axes))
    return SolutionField(values=np.asarray(problem.initial(*nodes), dtype=float), time=t0)


@dataclass(frozen=True)
class WaveBounds:
    c: float       # max |f'(u)| over the sampled range
    b_diff: float  # max |g'(u)| over the sampled range


def compute_bounds(problem: ProblemSpec, values: np.ndarray) -> WaveBounds:
    """Bound |f'| and |g'| of one axis's problem by dense sampling over the
    range of the field values.

    The range [min u, max u] is widened by 1e-6*(range+1) so endpoint extrema
    are not missed, then sampled at BOUND_SAMPLES points.
    """
    if values.size == 0:
        raise ValueError("empty solution field")
    lo, hi = float(np.min(values)), float(np.max(values))
    delta = 1e-6 * ((hi - lo) + 1.0)
    samples = np.linspace(lo - delta, hi + delta, BOUND_SAMPLES)
    fp = np.abs(np.asarray(problem.flux_deriv(samples), dtype=float))
    gp = np.asarray(problem.diffusion_deriv(samples), dtype=float)
    if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(gp))):
        raise ValueError("non-finite derivative samples while bounding wave speeds")
    if np.min(gp) < -1e-12 * max(1.0, float(np.max(np.abs(gp)))):
        raise ValueError("diffusion derivative must be nonnegative over the solution range")
    return WaveBounds(c=float(np.max(fp)), b_diff=float(np.max(gp)))


def compute_dt(config: SchemeConfig, bounds, grid: Grid1D | Grid2D) -> float:
    """Nominal time step; the integrator truncates the final step to land on T.

    dt = CFL / max over axes of (b + c)/dx, which in 1D is CFL dx / (b + c).
    bounds holds one WaveBounds per grid axis, a one-entry tuple in 1D.
    """
    rate = max((b.b_diff + b.c) / g.dx for b, g in zip(bounds, grid.axes, strict=True))
    if rate <= 0:
        raise ValueError("both wave-speed bounds vanish; nothing to evolve")
    return config.cfl / rate
