"""The benchmark's workloads: which solves each one runs and how each is checked.

Every solve goes through the public API only (make_problem,
BenchmarkCase.make_config, solve_case, error_norms).  The inputs are fixed;
the seed only shuffles the order in which a pass runs the solves, so the
accuracy checks stay pinned to published numbers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from advdiff import Boundary, error_norms, make_problem, solve_case

# Table 1 of the paper, linear problem with c = 1, b = 1, CFL = 1, T = 2:
# L-infinity error by order k and cell count N.
TABLE1_B1_CFL1 = {
    1: {40: 2.043e-2, 80: 1.047e-2, 160: 5.272e-3, 320: 2.646e-3, 640: 1.326e-3},
    2: {40: 6.088e-3, 80: 1.822e-3, 160: 4.955e-4, 320: 1.293e-4, 640: 3.307e-5},
    3: {40: 1.117e-3, 80: 1.924e-4, 160: 2.788e-5, 320: 3.752e-6, 640: 4.869e-7},
}
TABLE1_REL_TOL = 0.10
TABLE1_BETA = {1: 1.0, 2: 0.5, 3: 0.4}

# Round-off in a mass sum is far below this; drift under it reads as this.
MASS_DRIFT_FLOOR = 1e-12

# The ROADMAP's two-disc run goes to T = 0.5 (111 steps, about 27 s on one
# core).  A quarter of it keeps the 200x200 grid and fits several passes in
# one benchmark run.
TWO_DISC_T = 0.125


@dataclass
class Solve:
    """One operation: a case, a config and the solve_case arguments."""

    label: str
    case: object
    config: object
    n: int
    T: float
    check: Callable   # (solve, grid, u, err) -> reason or None
    ref_err: Optional[float] = None


@dataclass
class Outcome:
    seconds: float
    steps: int
    nodes: int
    values: Optional[np.ndarray]
    failure: Optional[str]
    mass_drift: Optional[float]
    err_linf: Optional[float]


def _check_table1(solve, grid, u, err):
    if abs(err - solve.ref_err) > TABLE1_REL_TOL * solve.ref_err:
        return f"L-inf error {err:.4e} is not within 10% of {solve.ref_err:.4e}"
    return None


def _check_two_disc(solve, grid, u, err):
    top = float(np.max(np.abs(u.values)))
    if top > 1.01:
        return f"max |u| = {top:.4g} exceeds 1.01"
    return None


def table1_sweep():
    case = make_problem("linear_advdiff", c=1.0, b=1.0)
    out = []
    for k, row in TABLE1_B1_CFL1.items():
        config = case.make_config(order=k, beta=TABLE1_BETA[k], cfl=1.0)
        for n, ref in row.items():
            out.append(Solve(f"k{k}_N{n}", case, config, n=n, T=2.0,
                             check=_check_table1, ref_err=ref))
    return out


def two_disc_2d():
    case = make_problem("strong_degenerate_2d")
    config = case.make_config(order=3, beta=0.2, cfl=0.5)
    return [Solve("strong_degenerate_2d", case, config, n=200, T=TWO_DISC_T,
                  check=_check_two_disc)]


WORKLOADS = {
    "table1_sweep": table1_sweep,
    "two_disc_2d": two_disc_2d,
}


def pass_orders(solves, seed):
    """Endless sequence of seed-shuffled orders, one per pass."""
    rng = random.Random(seed)
    while True:
        order = list(solves)
        rng.shuffle(order)
        yield order


def _mass(case, grid, v):
    """dx * sum of u; periodic fields count each of the N unique nodes once."""
    periodic = case.spec.bc is Boundary.PERIODIC
    if case.is_2d:
        w = v[:-1, :-1] if periodic else v
        return grid.gx.dx * grid.gy.dx * float(np.sum(w))
    w = v[:-1] if periodic else v
    return grid.dx * float(np.sum(w))


def _boundary_budget(case, grid, v0, elapsed):
    """Mass that leaves through the ends: the homogeneous regime keeps the end
    values fixed, so the outflow rate is the flux difference of the initial
    end values.  Periodic fields exchange nothing."""
    if case.spec.bc is Boundary.PERIODIC:
        return 0.0
    spec = case.spec
    if case.is_2d:
        out_x = grid.gy.dx * float(np.sum(spec.f1(v0[:, -1]) - spec.f1(v0[:, 0])))
        out_y = grid.gx.dx * float(np.sum(spec.f2(v0[-1, :]) - spec.f2(v0[0, :])))
        return -elapsed * (out_x + out_y)
    return -elapsed * float(spec.flux(v0[-1:])[0] - spec.flux(v0[:1])[0])


def mass_drift(case, grid, u):
    """|M(T) - M(t0) - budget| / max(1, |M(t0)|), floored at MASS_DRIFT_FLOOR."""
    v0 = case.initial_field(grid).values
    m0 = _mass(case, grid, v0)
    budget = _boundary_budget(case, grid, v0, u.time - case.t0)
    drift = abs(_mass(case, grid, u.values) - m0 - budget) / max(1.0, abs(m0))
    return max(drift, MASS_DRIFT_FLOOR)


def run_solve(solve, step_counter):
    """Time one solve and check its output; a solve that raises, returns
    non-finite values or fails its check counts as failed."""
    steps_before = step_counter.count
    start = perf_counter()
    try:
        grid, u = solve_case(solve.case, solve.config, n=solve.n, T=solve.T)
    except Exception as exc:  # any error is a failed operation, not a crash
        return Outcome(perf_counter() - start, 0, 0, None, f"raised {exc!r}", None, None)
    seconds = perf_counter() - start
    steps = step_counter.count - steps_before
    nodes = int(u.values.size)
    if not np.all(np.isfinite(u.values)):
        return Outcome(seconds, steps, nodes, u.values, "non-finite output", None, None)
    err = None
    if solve.case.exact is not None:
        err = error_norms(u, solve.case.exact, grid).linf
    failure = solve.check(solve, grid, u, err)
    return Outcome(seconds, steps, nodes, u.values, failure,
                   mass_drift(solve.case, grid, u), err)


def geometric_mean(values):
    values = [v for v in values if v is not None]
    if not values:
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))
