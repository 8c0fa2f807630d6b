"""Explicit SSP Runge-Kutta time integration of u_t = H[u], in 1D and 2D.

The kernel parameters inside H depend on the wave-speed bounds and the step
size, so they are built for a step (including the truncated final step),
shared by its stages, and kept by `advance` for the following steps while
(bounds, dt) repeats.  Stage combinations are the classic convex forms:

    k=1:  u + dt H[u]
    k=2:  u1 = u + dt H[u];  u <- u/2 + (u1 + dt H[u1])/2
    k=3:  u1 = u + dt H[u];  u2 = 3u/4 + (u1 + dt H[u1])/4;
          u <- u/3 + 2*(u2 + dt H[u2])/3

Each stage allocates and frees dozens of field-sized arrays.  With glibc's
defaults the freed top of the heap is trimmed after every stage and faulted
back in, zeroed, by the next, so the first `advance` in a process sets a
process-wide allocator policy through `mallopt`: blocks up to 32 MiB come
from the heap, and freed heap is kept mapped up to 1 GiB.  Every `advance`
calls `malloc_trim(0)` as it returns (or raises), so between solves the
process holds no more free heap than with the defaults.  The policy is
glibc's: where the C library lacks `mallopt` or `malloc_trim`, or refuses the
mmap threshold, nothing is set and nothing is trimmed.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Callable

import numpy as np

from .core import (Grid1D, Grid2D, ProblemSpec, ProblemSpec2D, SchemeConfig, SolutionField,
                   compute_bounds, compute_dt, unique_nodes)
from .operator import build_H, kernel_families

#: relative slack when deciding whether the target time is reached
TIME_TOL = 1e-12

# glibc's mallopt parameters (malloc.h) and the values advance sets: setting
# the trim threshold alone would also fix the mmap threshold at its 128 KiB
# default, and every field of more than that would be mmapped and faulted in
# on each allocation, so the mmap threshold is raised first
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 1 << 30


class UnstableSolution(RuntimeError):
    """Raised when a stage produces non-finite values."""


@functools.cache
def _heap_policy():
    """Keep freed heap mapped in this process; return glibc's `malloc_trim`,
    or None where the policy could not be set."""
    try:
        libc = ctypes.CDLL(None)
        mallopt, malloc_trim = libc.mallopt, libc.malloc_trim
    except (OSError, TypeError, AttributeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    malloc_trim.argtypes = (ctypes.c_size_t,)
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) != 1:
        return None
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    return malloc_trim


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
            config: SchemeConfig, grid: Grid1D | Grid2D) -> SolutionField:
    """March u0 to time T and return the field there: each step recomputes
    the bounds of every axis, picks dt, and the last step is truncated to
    land exactly on T.  A 2D field has shape (ny+1, nx+1).

    The kernel families (and the quadrature tables they build on first use)
    are a pure function of (bounds, dt), so a step whose (bounds, dt) equals
    the previous step's reuses them; they live for this call only.  On
    periodic data their chains skip the work on an exactly zero input, such
    as the f- of f = cu, c > 0, which changes no bit (kernelops._liveness).

    u0 must be finite, real (bool, integer or floating input is read as
    float64) and in the grid's layout (`core.unique_nodes`): N+1 nodes per
    axis, node N of a periodic axis repeating node 0, as it does exactly in
    every field returned; so a field at an intermediate time comes from
    calling advance again from a returned one.

    The first call sets the allocator policy of the module docstring, and
    every call trims the heap as it returns.
    """
    if not np.isfinite(T):
        raise ValueError(f"target time must be finite, got {T}")
    if T < u0.time:
        raise ValueError("target time lies before the field's time")
    values = np.asarray(u0.values)
    if values.dtype.kind not in "biuf":
        raise ValueError(f"initial data u0 must be real numbers, got dtype {values.dtype}")
    values = values.astype(np.float64, copy=False)
    if not np.all(np.isfinite(values)):
        raise ValueError("initial data u0 holds non-finite values")
    values, restore = unique_nodes(values, problem.bc, grid)
    malloc_trim = _heap_policy()
    try:
        u = SolutionField(values=values, time=u0.time)
        tol = TIME_TOL * max(1.0, abs(T))
        step_key = families = None
        while u.time < T - tol:
            bounds = tuple(compute_bounds(spec, u.values) for spec in problem.axes)
            dt = min(compute_dt(config, bounds, grid), T - u.time)
            if (bounds, dt) != step_key:
                step_key = (bounds, dt)
                families = kernel_families(config, bounds, dt, grid)
            u = rk_step(u, dt, config.order,
                        lambda v: build_H(v, problem, config, bounds, grid, families))
        return SolutionField(values=restore(u.values), time=u.time)
    finally:
        if malloc_trim is not None:
            malloc_trim(0)
