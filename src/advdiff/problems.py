"""Benchmark catalog, exact solutions, first-order reference scheme, errors.

make_problem(name, **knobs) builds a catalog case (CASE_NAMES) by calling
`_<name>`, whose keyword parameters are the case's knobs and whose docstring
describes the case.  A case carries the driver's defaults: domain,
resolution, final time, CFL and its beta for each order k = 1, 2, 3.
"""

from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (Boundary, Grid1D, ProblemSpec, ProblemSpec2D, SchemeConfig,
                   SolutionField, build_grid_1d, build_grid_2d, compute_bounds,
                   initial_field, shifted, unique_nodes)
from .operator import flux_split
from .timestep import advance


def exact_advdiff(x, t, c, b):
    """Exact solution of the linear problem: e^{-b t} sin(x - c t)."""
    return np.exp(-b * t) * np.sin(x - c * t)


def barenblatt(x, t, m):
    """Self-similar compactly supported porous-medium profile."""
    if m <= 1:
        raise ValueError("barenblatt profile needs m > 1")
    p = 1.0 / (m + 1)
    arg = 1.0 - p * (m - 1) / (2.0 * m) * np.abs(x) ** 2 / t ** (2 * p)
    return t ** (-p) * np.maximum(arg, 0.0) ** (1.0 / (m - 1))


# ---------------------------------------------------------------------------
# flux/diffusion building blocks

def _zero(u):
    return np.zeros_like(np.asarray(u, dtype=float))


def _pme_g(m):
    # odd extension keeps g' >= 0 for the (non-physical) negative undershoots
    def g(u):
        return np.sign(u) * np.abs(u) ** m

    def gp(u):
        return m * np.abs(u) ** (m - 1)

    return g, gp


def _bl_flux(gravity: bool):
    def f0(u):
        den = u ** 2 + (1 - u) ** 2
        return u ** 2 / den

    def f0p(u):
        den = u ** 2 + (1 - u) ** 2
        return 2 * u * (1 - u) / den ** 2

    if not gravity:
        return f0, f0p

    def f(u):
        return f0(u) * (1 - 5 * (1 - u) ** 2)

    def fp(u):
        return f0p(u) * (1 - 5 * (1 - u) ** 2) + f0(u) * 10 * (1 - u)

    return f, fp


# Buckley-Leverett diffusion: the primitive of 0.01 * 4u(1-u) on [0, 1],
# constant outside
def _bl_g(u):
    uu = np.clip(u, 0.0, 1.0)
    return 0.01 * (2 * uu ** 2 - 4.0 * uu ** 3 / 3.0)


def _bl_gp(u):
    uu = np.asarray(u, dtype=float)
    inside = (uu >= 0.0) & (uu <= 1.0)
    return np.where(inside, 0.01 * 4.0 * uu * (1.0 - uu), 0.0)


# strongly degenerate diffusion: the primitive of 0.1 * indicator(|u| > 1/4)
def _sd_g(u):
    uu = np.asarray(u, dtype=float)
    return 0.1 * (np.maximum(uu - 0.25, 0.0) + np.minimum(uu + 0.25, 0.0))


def _sd_gp(u):
    uu = np.asarray(u, dtype=float)
    return np.where(np.abs(uu) > 0.25, 0.1, 0.0)


# ---------------------------------------------------------------------------
# catalog

@dataclass
class BenchmarkCase:
    name: str
    spec: ProblemSpec | ProblemSpec2D
    domain: tuple            # (a, b) or (ax, bx, ay, by)
    default_n: int
    t0: float
    t_final: float
    default_cfl: float
    # {k: beta} for k = 1, 2, 3: the stability bound of the case's kind,
    # rounded down, halved in 2D (the scheme splits dimension by dimension)
    beta_defaults: dict
    exact: Optional[Callable] = None

    @property
    def is_2d(self) -> bool:
        return isinstance(self.spec, ProblemSpec2D)

    def build_grid(self, n: Optional[int] = None, ny: Optional[int] = None):
        """Grid of n cells per axis (the case default when None); ny sets the
        y cells of a 2D case and is an error for a 1D one."""
        n = self.default_n if n is None else n
        if self.is_2d:
            ax, bx, ay, by = self.domain
            return build_grid_2d(ax, bx, n, ay, by, n if ny is None else ny)
        if ny is not None:
            raise ValueError(f"case {self.name} is 1D; ny applies to 2D cases only")
        a, b = self.domain
        return build_grid_1d(a, b, n)

    def initial_field(self, grid) -> SolutionField:
        return initial_field(self.spec, grid, self.t0)

    def make_config(self, order: int = 3, beta: Optional[float] = None,
                    cfl: Optional[float] = None, **kw) -> SchemeConfig:
        if beta is None and order not in self.beta_defaults:
            raise ValueError(f"case {self.name} declares no beta for order {order!r}")
        return SchemeConfig(order=order, beta=self.beta_defaults[order] if beta is None else beta,
                            cfl=cfl if cfl is not None else self.default_cfl, **kw)


def _real(name: str, value, lo: float = -np.inf, strict: bool = False):
    """value as given, once it is a finite real number (not a bool) at least
    lo, or above lo when strict; a ValueError otherwise."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not np.isfinite(value) or value < lo or (strict and value == lo)):
        bound = f" {'>' if strict else '>='} {lo:g}" if lo > -np.inf else ""
        raise ValueError(f"{name} must be a finite real number{bound}, got {value!r}")
    return value


def _linear_advdiff(c=1.0, b=0.01) -> BenchmarkCase:
    """u_t + c u_x = b u_xx on [-pi, pi], periodic, u0 = sin x; exact e^{-b t} sin(x - c t)."""
    c, b = _real("c", c), _real("b", b, lo=0.0)
    spec = ProblemSpec(
        flux=lambda u: c * u, flux_deriv=lambda u: c * np.ones_like(np.asarray(u, dtype=float)),
        diffusion=lambda u: b * u, diffusion_deriv=lambda u: b * np.ones_like(np.asarray(u, dtype=float)),
        initial=np.sin, bc=Boundary.PERIODIC)
    return BenchmarkCase(name="linear_advdiff", spec=spec, domain=(-np.pi, np.pi),
                         default_n=160, t0=0.0, t_final=2.0, default_cfl=0.5,
                         beta_defaults={1: 1.0, 2: 0.5, 3: 0.4},
                         exact=lambda x, t: exact_advdiff(x, t, c, b))


def _pme_barenblatt(m=5) -> BenchmarkCase:
    """Porous medium u_t = (u^m)_xx on [-6, 6] from the self-similar profile at t = 1."""
    m = _real("m", m, lo=1.0, strict=True)
    g, gp = _pme_g(m)
    spec = ProblemSpec(flux=_zero, flux_deriv=_zero, diffusion=g, diffusion_deriv=gp,
                       initial=lambda x: barenblatt(x, 1.0, m), bc=Boundary.HOMOGENEOUS)
    return BenchmarkCase(name="pme_barenblatt", spec=spec, domain=(-6.0, 6.0),
                         default_n=200, t0=1.0, t_final=2.0, default_cfl=1.0,
                         beta_defaults={1: 2.0, 2: 1.0, 3: 0.8}, exact=lambda x, t: barenblatt(x, t, m))


def _pme_two_box(m=6) -> BenchmarkCase:
    """Porous medium u_t = (u^m)_xx on [-6, 6]: two boxes, of heights 1 and 2, merging."""
    m = _real("m", m, lo=1.0, strict=True)
    g, gp = _pme_g(m)

    def boxes(x):
        x = np.asarray(x, dtype=float)
        return np.where((x > -4) & (x < -1), 1.0, 0.0) + np.where((x > 0) & (x < 3), 2.0, 0.0)

    spec = ProblemSpec(flux=_zero, flux_deriv=_zero, diffusion=g, diffusion_deriv=gp,
                       initial=boxes, bc=Boundary.HOMOGENEOUS)
    return BenchmarkCase(name="pme_two_box", spec=spec, domain=(-6.0, 6.0),
                         default_n=400, t0=0.0, t_final=0.12, default_cfl=0.5,
                         beta_defaults={1: 2.0, 2: 1.0, 3: 0.8})


def _buckley_leverett(gravity=False) -> BenchmarkCase:
    """Two-phase flow flux, gravity term optional, and diffusion 0.01 * 4u(1-u) on [0, 1]."""
    if not isinstance(gravity, (bool, np.bool_)):
        raise ValueError(f"gravity must be a bool, got {gravity!r}")
    f, fp = _bl_flux(gravity)
    x0 = 1.0 - 1.0 / np.sqrt(2.0)
    spec = ProblemSpec(flux=f, flux_deriv=fp, diffusion=_bl_g, diffusion_deriv=_bl_gp,
                       initial=lambda x: np.where(np.asarray(x) < x0, 0.0, 1.0),
                       bc=Boundary.HOMOGENEOUS)
    return BenchmarkCase(name="buckley_leverett", spec=spec, domain=(0.0, 1.0),
                         default_n=200, t0=0.0, t_final=0.2, default_cfl=0.5,
                         beta_defaults={1: 1.0, 2: 0.5, 3: 0.4})


def _strong_degenerate() -> BenchmarkCase:
    """Convection u^2 on [-2, 2], diffusion off inside |u| <= 0.25 (hyperbolic/parabolic)."""
    c0 = 1.0 / np.sqrt(2.0)

    def u0(x):
        x = np.asarray(x, dtype=float)
        return (np.where(np.abs(x + c0) < 0.4, 1.0, 0.0)
                - np.where(np.abs(x - c0) < 0.4, 1.0, 0.0))

    spec = ProblemSpec(flux=lambda u: u ** 2, flux_deriv=lambda u: 2.0 * u,
                       diffusion=_sd_g, diffusion_deriv=_sd_gp, initial=u0,
                       bc=Boundary.HOMOGENEOUS)
    return BenchmarkCase(name="strong_degenerate", spec=spec, domain=(-2.0, 2.0),
                         default_n=200, t0=0.0, t_final=0.7, default_cfl=0.5,
                         beta_defaults={1: 1.0, 2: 0.5, 3: 0.4})


def _strong_degenerate_2d() -> BenchmarkCase:
    """The two-disc 2D variant of strong_degenerate on [-1.5, 1.5]^2."""
    fsq = lambda u: u ** 2
    fsqp = lambda u: 2.0 * u

    def discs(x, y):
        up = ((x + 0.5) ** 2 + (y + 0.5) ** 2) < 0.16
        dn = ((x - 0.5) ** 2 + (y - 0.5) ** 2) < 0.16
        return np.where(up, 1.0, 0.0) - np.where(dn, 1.0, 0.0)

    spec = ProblemSpec2D(f1=fsq, f1_deriv=fsqp, g1=_sd_g, g1_deriv=_sd_gp,
                         f2=fsq, f2_deriv=fsqp, g2=_sd_g, g2_deriv=_sd_gp,
                         initial=discs, bc=Boundary.HOMOGENEOUS)
    return BenchmarkCase(name="strong_degenerate_2d", spec=spec, domain=(-1.5, 1.5, -1.5, 1.5),
                         default_n=200, t0=0.0, t_final=0.5, default_cfl=0.5,
                         beta_defaults={1: 0.5, 2: 0.25, 3: 0.2})


def _buckley_leverett_2d() -> BenchmarkCase:
    """2D Buckley-Leverett on [-1.5, 1.5]^2, gravity along y, linear diffusion 0.01 u."""
    f1, f1p = _bl_flux(False)
    f2, f2p = _bl_flux(True)
    glin = lambda u: 0.01 * u
    glinp = lambda u: 0.01 * np.ones_like(np.asarray(u, dtype=float))

    def disc(x, y):
        return np.where(x ** 2 + y ** 2 < 0.5, 1.0, 0.0)

    spec = ProblemSpec2D(f1=f1, f1_deriv=f1p, g1=glin, g1_deriv=glinp,
                         f2=f2, f2_deriv=f2p, g2=glin, g2_deriv=glinp,
                         initial=disc, bc=Boundary.HOMOGENEOUS)
    return BenchmarkCase(name="buckley_leverett_2d", spec=spec, domain=(-1.5, 1.5, -1.5, 1.5),
                         default_n=200, t0=0.0, t_final=0.5, default_cfl=0.5,
                         beta_defaults={1: 0.5, 2: 0.25, 3: 0.2})


_CATALOG = {"linear_advdiff": _linear_advdiff, "pme_barenblatt": _pme_barenblatt,
            "pme_two_box": _pme_two_box, "buckley_leverett": _buckley_leverett,
            "strong_degenerate": _strong_degenerate,
            "strong_degenerate_2d": _strong_degenerate_2d,
            "buckley_leverett_2d": _buckley_leverett_2d}
CASE_NAMES = tuple(_CATALOG)


def make_problem(name: str, **knobs) -> BenchmarkCase:
    """The catalog case `name`, its builder called with the keyword knobs: c
    and b >= 0 (finite reals) for linear_advdiff, m > 1 (a finite real) for
    the porous-medium cases, gravity (a bool) for buckley_leverett; the other
    cases take none.  An unknown case, a knob the case does not take or a
    knob value outside its rule raises ValueError."""
    if name not in _CATALOG:
        raise ValueError(f"unknown benchmark case {name!r}")
    builder = _CATALOG[name]
    extra = set(knobs) - set(inspect.signature(builder).parameters)
    if extra:
        raise ValueError(f"case {name!r} does not take parameter(s) {', '.join(sorted(extra))}")
    return builder(**knobs)


# ---------------------------------------------------------------------------
# first-order reference scheme

def reference_solution(case: BenchmarkCase, T: Optional[float] = None,
                       n_ref: int = 3000) -> tuple[Grid1D, SolutionField]:
    """Explicit first-order scheme (upwind differences of the solver's
    Lax-Friedrichs split + central diffusion) on a fine grid,
    dt = 0.1 dx^2/(c dx + 2b); used to benchmark cases without an exact
    solution.  T must lie in [t0, inf), and a periodic u0 must repeat node 0
    at node N (`core.unique_nodes`)."""
    if case.is_2d:
        raise ValueError("reference scheme is one-dimensional")
    T = case.t_final if T is None else T
    if not case.t0 <= T < np.inf:
        raise ValueError(f"reference target time must lie in [{case.t0:g}, inf), got {T}")
    grid = case.build_grid(n_ref)
    prob = case.spec
    u, restore = unique_nodes(case.initial_field(grid).values, prob.bc, grid)
    bounds = compute_bounds(prob, u)
    c, b = bounds.c, bounds.b_diff
    dx = grid.dx
    if c * dx + 2.0 * b <= 0:
        raise ValueError("both wave-speed bounds vanish; nothing to evolve")
    dt0 = 0.1 * dx ** 2 / (c * dx + 2.0 * b)
    t = case.t0
    while t < T - 1e-12:
        dt = min(dt0, T - t)
        fp, fm = flux_split(prob, u, bounds)
        fp_left, _ = shifted(fp, prob.bc, -1, 0)
        _, fm_right = shifted(fm, prob.bc, 0, 1)
        g = prob.diffusion(u)
        g_left, _, g_right = shifted(g, prob.bc, -1, 1)
        u = (u - dt / dx * (fp - fp_left)
             - dt / dx * (fm_right - fm)
             + dt / dx ** 2 * (g_right - 2.0 * g + g_left))
        t += dt
    return grid, SolutionField(values=restore(u), time=t)


# ---------------------------------------------------------------------------
# errors and convergence

@dataclass
class ErrorReport:
    linf: float
    l1: float
    n_cells: int
    order_vs_previous: Optional[float] = None


def error_norms(u: SolutionField, truth: Callable, grid: Grid1D) -> ErrorReport:
    """Node-wise errors against the exact solution truth(x, t) at u's time;
    L1 is the trapezoid rule over the N+1 nodes, so a periodic field's
    repeated node N counts once."""
    err = np.abs(u.values - truth(grid.nodes, u.time))
    l1 = grid.dx * (np.sum(err[1:-1]) + 0.5 * (err[0] + err[-1]))
    return ErrorReport(linf=float(np.max(err)), l1=float(l1), n_cells=grid.n_cells)


def observed_orders(reports: list[ErrorReport]) -> list[ErrorReport]:
    """Fill order_vs_previous as log2(e_coarse/e_fine) of the linf errors
    for doubled resolution, where both errors are positive."""
    prev = 0.0
    for rep in reports:
        err = rep.linf
        if prev > 0 and err > 0:
            rep.order_vs_previous = float(np.log2(prev / err))
        prev = err
    return reports


def solve_case(case: BenchmarkCase, config: SchemeConfig,
               n: Optional[int] = None, T: Optional[float] = None):
    """Run one benchmark case end to end; returns (grid, final field)."""
    grid = case.build_grid(n)
    T = case.t_final if T is None else T
    return grid, advance(case.initial_field(grid), T, case.spec, config, grid)


def convergence_study(case: BenchmarkCase, config: SchemeConfig, n_values,
                      T: Optional[float] = None) -> list[ErrorReport]:
    """Errors against the case's exact solution over a resolution sweep."""
    if case.exact is None:
        raise ValueError(f"case {case.name} has no exact solution")
    reports = []
    for n in n_values:
        grid, u = solve_case(case, config, n=n, T=T)
        reports.append(error_norms(u, case.exact, grid))
    return observed_orders(reports)
