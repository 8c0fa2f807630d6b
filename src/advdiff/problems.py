"""Benchmark catalog, exact solutions, first-order reference scheme, errors.

Cases (constructible by name through make_problem):

    linear_advdiff        u_t + c u_x = b u_xx on [-pi, pi], periodic,
                          u0 = sin(x); exact e^{-b t} sin(x - c t).
    pme_barenblatt        porous-medium u_t = (u^m)_xx on [-6, 6] started
                          from the self-similar profile at t = 1.
    pme_two_box           porous medium (m = 6), two boxes of different
                          heights merging.
    buckley_leverett      two-phase flow flux (optional gravity term),
                          degenerate diffusion eps * 4u(1-u).
    strong_degenerate     convection u^2 with diffusion switched off inside
                          |u| <= 0.25 (hyperbolic/parabolic interfaces).
    strong_degenerate_2d  the two-disc 2D variant.
    buckley_leverett_2d   2D Buckley-Leverett with linear diffusion.

Each case carries the domain, default resolution, final time, and
per-order default beta/CFL used by the command-line driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .core import (DEGENERATE_TOL, Boundary, Grid1D, ProblemSpec, ProblemSpec2D,
                   SchemeConfig, SolutionField, build_grid_1d, build_grid_2d,
                   compute_bounds, initial_field_2d, shifted, unique_nodes)
from .operator import flux_split
from .timestep import advance

#: beta_max per order from the stability scans: one-sided (advection),
#: symmetric (diffusion), and the combined convection-diffusion value
BETA_MAX_ADVECTION = {1: 2.0, 2: 1.0, 3: 1.243}
BETA_MAX_DIFFUSION = {1: 2.0, 2: 1.0, 3: 0.8375}
BETA_MAX_MIXED = {1: 1.0, 2: 0.5, 3: 0.4167}


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


def _bl_g(eps):
    # primitive of eps * 4u(1-u) on [0, 1], constant outside
    def g(u):
        uu = np.clip(u, 0.0, 1.0)
        return eps * (2 * uu ** 2 - 4.0 * uu ** 3 / 3.0)

    def gp(u):
        uu = np.asarray(u, dtype=float)
        inside = (uu >= 0.0) & (uu <= 1.0)
        return np.where(inside, eps * 4.0 * uu * (1.0 - uu), 0.0)

    return g, gp


def _sd_g(eps):
    # primitive of eps * indicator(|u| > 1/4)
    def g(u):
        uu = np.asarray(u, dtype=float)
        return eps * (np.maximum(uu - 0.25, 0.0) + np.minimum(uu + 0.25, 0.0))

    def gp(u):
        uu = np.asarray(u, dtype=float)
        return np.where(np.abs(uu) > 0.25, eps, 0.0)

    return g, gp


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
    beta_defaults: dict = dc_field(default_factory=dict)
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
        if self.is_2d:
            return initial_field_2d(self.spec, grid, t0=self.t0)
        return SolutionField(values=np.asarray(self.spec.initial(grid.nodes), dtype=float),
                             time=self.t0)

    def default_beta(self, order: int) -> float:
        if order in self.beta_defaults:
            return self.beta_defaults[order]
        u0 = self.initial_field(self.build_grid(max(self.default_n // 4, 8)))
        bounds = [compute_bounds(spec, u0) for spec in self.spec.axes]
        has_c = max(b.c for b in bounds) > DEGENERATE_TOL
        has_b = max(b.b_diff for b in bounds) > DEGENERATE_TOL
        if has_c and has_b:
            beta = BETA_MAX_MIXED[order]
        elif has_c:
            beta = BETA_MAX_ADVECTION[order]
        else:
            beta = BETA_MAX_DIFFUSION[order]
        # dimension-by-dimension splitting divides the 1D value by the axis count
        return beta / len(bounds)

    def make_config(self, order: int = 3, beta: Optional[float] = None,
                    cfl: Optional[float] = None, **kw) -> SchemeConfig:
        return SchemeConfig(order=order,
                            beta=beta if beta is not None else self.default_beta(order),
                            cfl=cfl if cfl is not None else self.default_cfl,
                            **kw)


def make_problem(name: str, **params) -> BenchmarkCase:
    """Build a catalog case by name; keyword params override case knobs
    (c/b for the linear case, m for the porous-medium cases, gravity/eps for
    Buckley-Leverett, eps for the degenerate cases).  A knob the case does
    not have raises ValueError."""
    case = _build_case(name, params)
    if params:
        raise ValueError(f"case {name!r} does not take parameter(s) {', '.join(sorted(params))}")
    return case


def _build_case(name: str, params: dict) -> BenchmarkCase:
    """The named case; pops the knobs it uses from params."""
    if name == "linear_advdiff":
        c = params.pop("c", 1.0)
        b = params.pop("b", 0.01)
        spec = ProblemSpec(
            flux=lambda u: c * u, flux_deriv=lambda u: c * np.ones_like(np.asarray(u, dtype=float)),
            diffusion=lambda u: b * u, diffusion_deriv=lambda u: b * np.ones_like(np.asarray(u, dtype=float)),
            initial=np.sin, bc=Boundary.PERIODIC)
        return BenchmarkCase(name=name, spec=spec, domain=(-np.pi, np.pi),
                             default_n=160, t0=0.0, t_final=2.0, default_cfl=0.5,
                             beta_defaults={1: 1.0, 2: 0.5, 3: 0.4},
                             exact=lambda x, t: exact_advdiff(x, t, c, b))
    if name == "pme_barenblatt":
        m = params.pop("m", 5)
        g, gp = _pme_g(m)
        spec = ProblemSpec(flux=_zero, flux_deriv=_zero, diffusion=g, diffusion_deriv=gp,
                           initial=lambda x: barenblatt(x, 1.0, m), bc=Boundary.HOMOGENEOUS)
        return BenchmarkCase(name=name, spec=spec, domain=(-6.0, 6.0),
                             default_n=200, t0=1.0, t_final=2.0, default_cfl=1.0,
                             beta_defaults={3: 0.8}, exact=lambda x, t: barenblatt(x, t, m))
    if name == "pme_two_box":
        m = params.pop("m", 6)
        g, gp = _pme_g(m)

        def boxes(x):
            x = np.asarray(x, dtype=float)
            return np.where((x > -4) & (x < -1), 1.0, 0.0) + np.where((x > 0) & (x < 3), 2.0, 0.0)

        spec = ProblemSpec(flux=_zero, flux_deriv=_zero, diffusion=g, diffusion_deriv=gp,
                           initial=boxes, bc=Boundary.HOMOGENEOUS)
        return BenchmarkCase(name=name, spec=spec, domain=(-6.0, 6.0),
                             default_n=400, t0=0.0, t_final=0.12, default_cfl=0.5,
                             beta_defaults={3: 0.8})
    if name == "buckley_leverett":
        gravity = params.pop("gravity", False)
        eps = params.pop("eps", 0.01)
        f, fp = _bl_flux(gravity)
        g, gp = _bl_g(eps)
        x0 = 1.0 - 1.0 / np.sqrt(2.0)
        spec = ProblemSpec(flux=f, flux_deriv=fp, diffusion=g, diffusion_deriv=gp,
                           initial=lambda x: np.where(np.asarray(x) < x0, 0.0, 1.0),
                           bc=Boundary.HOMOGENEOUS)
        return BenchmarkCase(name=name, spec=spec, domain=(0.0, 1.0),
                             default_n=200, t0=0.0, t_final=0.2, default_cfl=0.5,
                             beta_defaults={1: 1.0, 2: 0.5, 3: 0.4})
    if name == "strong_degenerate":
        eps = params.pop("eps", 0.1)
        g, gp = _sd_g(eps)
        c0 = 1.0 / np.sqrt(2.0)

        def u0(x):
            x = np.asarray(x, dtype=float)
            return (np.where(np.abs(x + c0) < 0.4, 1.0, 0.0)
                    - np.where(np.abs(x - c0) < 0.4, 1.0, 0.0))

        spec = ProblemSpec(flux=lambda u: u ** 2, flux_deriv=lambda u: 2.0 * u,
                           diffusion=g, diffusion_deriv=gp, initial=u0,
                           bc=Boundary.HOMOGENEOUS)
        return BenchmarkCase(name=name, spec=spec, domain=(-2.0, 2.0),
                             default_n=200, t0=0.0, t_final=0.7, default_cfl=0.5,
                             beta_defaults={1: 1.0, 2: 0.5, 3: 0.4})
    if name == "strong_degenerate_2d":
        eps = params.pop("eps", 0.1)
        g, gp = _sd_g(eps)
        fsq = lambda u: u ** 2
        fsqp = lambda u: 2.0 * u

        def discs(x, y):
            up = ((x + 0.5) ** 2 + (y + 0.5) ** 2) < 0.16
            dn = ((x - 0.5) ** 2 + (y - 0.5) ** 2) < 0.16
            return np.where(up, 1.0, 0.0) - np.where(dn, 1.0, 0.0)

        spec = ProblemSpec2D(f1=fsq, f1_deriv=fsqp, g1=g, g1_deriv=gp,
                             f2=fsq, f2_deriv=fsqp, g2=g, g2_deriv=gp,
                             initial=discs, bc=Boundary.HOMOGENEOUS)
        return BenchmarkCase(name=name, spec=spec, domain=(-1.5, 1.5, -1.5, 1.5),
                             default_n=200, t0=0.0, t_final=0.5, default_cfl=0.5,
                             beta_defaults={3: 0.2})
    if name == "buckley_leverett_2d":
        eps = params.pop("eps", 0.01)
        f1, f1p = _bl_flux(False)
        f2, f2p = _bl_flux(True)
        glin = lambda u: eps * u
        glinp = lambda u: eps * np.ones_like(np.asarray(u, dtype=float))

        def disc(x, y):
            return np.where(x ** 2 + y ** 2 < 0.5, 1.0, 0.0)

        spec = ProblemSpec2D(f1=f1, f1_deriv=f1p, g1=glin, g1_deriv=glinp,
                             f2=f2, f2_deriv=f2p, g2=glin, g2_deriv=glinp,
                             initial=disc, bc=Boundary.HOMOGENEOUS)
        return BenchmarkCase(name=name, spec=spec, domain=(-1.5, 1.5, -1.5, 1.5),
                             default_n=200, t0=0.0, t_final=0.5, default_cfl=0.5,
                             beta_defaults={3: 0.2})
    raise ValueError(f"unknown benchmark case {name!r}")


CASE_NAMES = ("linear_advdiff", "pme_barenblatt", "pme_two_box", "buckley_leverett",
              "strong_degenerate", "strong_degenerate_2d", "buckley_leverett_2d")


# ---------------------------------------------------------------------------
# first-order reference scheme

def reference_solution(case: BenchmarkCase, T: Optional[float] = None,
                       n_ref: int = 3000) -> tuple[Grid1D, SolutionField]:
    """Explicit first-order scheme (upwind differences of the solver's
    Lax-Friedrichs split + central diffusion) on a fine grid,
    dt = 0.1 dx^2/(c dx + 2b); used to benchmark cases without an exact
    solution."""
    if case.is_2d:
        raise ValueError("reference scheme is one-dimensional")
    T = case.t_final if T is None else T
    grid = case.build_grid(n_ref)
    prob = case.spec
    u, restore = unique_nodes(np.asarray(prob.initial(grid.nodes), dtype=float), prob.bc)
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


def error_norms(u: SolutionField, truth, grid: Grid1D) -> ErrorReport:
    """Node-wise errors against a callable truth(x, t) or a value array."""
    if callable(truth):
        ref = np.asarray(truth(grid.nodes, u.time), dtype=float)
    else:
        ref = np.asarray(truth, dtype=float)
    err = np.abs(u.values - ref)
    return ErrorReport(linf=float(np.max(err)), l1=float(grid.dx * np.sum(err)),
                       n_cells=grid.n_cells)


def observed_orders(reports: list[ErrorReport], norm: str = "linf") -> list[ErrorReport]:
    """Fill order_vs_previous as log2(e_coarse/e_fine) for doubled resolution."""
    prev = None
    for rep in reports:
        err = getattr(rep, norm)
        if prev is not None and err > 0:
            rep.order_vs_previous = float(np.log2(prev / err))
        prev = err
    return reports


def solve_case(case: BenchmarkCase, config: SchemeConfig,
               n: Optional[int] = None, ny: Optional[int] = None,
               T: Optional[float] = None):
    """Run one benchmark case end to end; returns (grid, final field)."""
    grid = case.build_grid(n, ny)
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
