"""Explicit SSP Runge-Kutta time integration of u_t = H[u], in 1D and 2D.

The kernel parameters inside H depend on the step size, so they are built
once per step (including the truncated final step) and shared by its stages.  Stage combinations are the
classic convex forms:

    k=1:  u + dt H[u]
    k=2:  u1 = u + dt H[u];  u <- u/2 + (u1 + dt H[u1])/2
    k=3:  u1 = u + dt H[u];  u2 = 3u/4 + (u1 + dt H[u1])/4;
          u <- u/3 + 2*(u2 + dt H[u2])/3
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .core import (Boundary, Grid1D, Grid2D, ProblemSpec, ProblemSpec2D, SchemeConfig,
                   SolutionField, compute_bounds, compute_dt, unique_nodes)
from .operator import build_H, kernel_families

#: relative slack when deciding whether the target time is reached
TIME_TOL = 1e-12

#: largest accepted gap max|u[..., N] - u[..., 0]| on a periodic axis of the
#: input, relative to max|u|: node N repeats node 0 (core.unique_nodes)
PERIODIC_TOL = 1e-12


class UnstableSolution(RuntimeError):
    """Raised when a stage produces non-finite values."""


def rk_step(u: SolutionField, dt: float, order: int,
            H: Callable[[np.ndarray], np.ndarray]) -> SolutionField:
    """One SSP-RK step of the given order with operator handle H."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    v = u.values
    if order == 1:
        out = v + dt * H(v)
    elif order == 2:
        v1 = v + dt * H(v)
        out = 0.5 * v + 0.5 * (v1 + dt * H(v1))
    elif order == 3:
        v1 = v + dt * H(v)
        v2 = 0.75 * v + 0.25 * (v1 + dt * H(v1))
        out = v / 3.0 + (2.0 / 3.0) * (v2 + dt * H(v2))
    else:
        raise ValueError(f"order must be 1, 2 or 3, got {order}")
    if not np.all(np.isfinite(out)):
        raise UnstableSolution(
            f"non-finite values after step to t={u.time + dt:g} (dt={dt:g})")
    return SolutionField(values=out, time=u.time + dt)


def advance(u0: SolutionField, T: float, problem: ProblemSpec | ProblemSpec2D,
            config: SchemeConfig, grid: Grid1D | Grid2D,
            snapshot_times: Optional[Sequence[float]] = None):
    """March u0 to time T: each step recomputes the bounds of every axis,
    picks dt, truncates to land exactly on T (and on any requested snapshot
    times).  A 2D field has shape (ny+1, nx+1).

    Returns the final field, or (final, snapshots) when snapshot_times is
    given; snapshots maps each distinct requested time to a SolutionField.
    Snapshot times must lie in (u0.time, T], u0 must be finite, and on a
    periodic axis the last node must repeat the first, as it does exactly in
    every field returned.
    """
    if not np.isfinite(T):
        raise ValueError(f"target time must be finite, got {T}")
    if T < u0.time:
        raise ValueError("target time lies before the field's time")
    marks = sorted(set(snapshot_times or ()))
    outside = [t for t in marks if not u0.time < t <= T]
    if outside:
        raise ValueError(f"snapshot times {outside} lie outside ({u0.time:g}, {T:g}]")
    if not np.all(np.isfinite(u0.values)):
        raise ValueError("initial data u0 holds non-finite values")
    if problem.bc is Boundary.PERIODIC:
        scale = PERIODIC_TOL * np.max(np.abs(u0.values))
        for name, v in zip("xy", (u0.values, u0.values.T)[:u0.values.ndim]):
            gap = np.max(np.abs(v[..., -1] - v[..., 0]))
            if gap > scale:
                raise ValueError(f"periodic data along {name} differs at its two ends "
                                 f"(max gap {gap:.3g}); node N must repeat node 0")
    values, restore = unique_nodes(u0.values, problem.bc)
    u = SolutionField(values=values, time=u0.time)
    snaps = {}
    tol = TIME_TOL * max(1.0, abs(T))
    while u.time < T - tol:
        bounds = tuple(compute_bounds(spec, u) for spec in problem.axes)
        dt = compute_dt(config, bounds, grid)
        limit = marks[0] if marks else T
        dt = min(dt, limit - u.time)
        families = kernel_families(config, bounds, dt, grid)
        u = rk_step(u, dt, config.order,
                    lambda v: build_H(v, problem, config, bounds, dt, grid, families))
        while marks and u.time >= marks[0] - tol:
            snaps[marks.pop(0)] = SolutionField(values=restore(u.values), time=u.time)
    u = SolutionField(values=restore(u.values), time=u.time)
    if snapshot_times is not None:
        return u, snaps
    return u
