"""Assembly of the discrete spatial operator H[u] ~ -f(u)_x + g(u)_xx.

With wave-speed bounds c = max|f'| and b = max|g'|, the kernel parameters are

    alpha_L = alpha_R = beta/(c dt),     alpha_0 = sqrt(beta/(b dt)),

and H combines the filtered convection chains with the diffusion chain:

    H = -alpha_L * (D_L[f+] + sum_{p=2..k} sigma_L^{p-1} D_L^p[f+])
        + alpha_R * (D_R[f-] + sum_{p=2..k} sigma_R^{p-1} D_R^p[f-])
        - alpha_0^2 * sum_{p=1..k} D_0^p[g(u)],

f± = (f(u) ± c u)/2 being the Lax-Friedrichs split.  At k = 3 an extra
correction term alpha_L * D_0[D_L^2[f+] - D_R^2[f-]] (same alpha_L family,
second powers taken from the chains above) restores A-stability of the
convection part; its f- half mirrors the f+ half.  `config.quadrature` is
the rule of the convection chains' first power; every D_0 is linear-rule.
Blocks whose wave-speed bound vanishes are skipped, and so is the filter of
a periodic side whose half alone is exactly zero: its sigma is exactly 1.0,
as xi(0, 0) = 1 on the +0.0 indicators it would have.  Both sides are
summed stacked in the chains' sweep frame, and the right sum flipped once.

Everything operates on arrays along the last axis; in 2D the same assembly
runs per axis on batched lines and the results are summed.
"""

from __future__ import annotations

import numpy as np

from .core import (DEGENERATE_TOL, Boundary, Grid1D, Grid2D, ProblemSpec,
                   ProblemSpec2D, SchemeConfig, WaveBounds)
from .filtering import sigma_fields, xi
from .kernelops import KernelParams, _d_zero, d_chain_pair, d_chain_zero


def flux_split(problem: ProblemSpec, u: np.ndarray, bounds: WaveBounds):
    """Lax-Friedrichs split (f+, f-) = ((f(u) + c u)/2, (f(u) - c u)/2), so
    f+ + f- = f(u) with df+/du >= 0 and df-/du <= 0 over the bounded range."""
    f = problem.flux(u)
    fplus = bounds.c * u
    fminus = np.subtract(f, fplus)
    fplus += f
    fplus *= 0.5
    fminus *= 0.5
    return fplus, fminus


def kernel_families(config: SchemeConfig, bounds, dt: float, grid: Grid1D | Grid2D) -> tuple:
    """(convection, diffusion) KernelParams of each grid axis and its WaveBounds
    for one step of size dt > 0, with alpha_L = beta/(c dt) and alpha_0 =
    sqrt(beta/(b dt)); None for a block whose wave-speed bound vanishes."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    families = []
    for b, g in zip(bounds, grid.axes, strict=True):
        conv = (KernelParams.from_alpha(config.beta / (b.c * dt), g)
                if b.c > DEGENERATE_TOL else None)
        diff = (KernelParams.from_alpha(np.sqrt(config.beta / (b.b_diff * dt)), g)
                if b.b_diff > DEGENERATE_TOL else None)
        families.append((conv, diff))
    return tuple(families)


def _convection(u, problem, config, bounds, params):
    k, bc = config.order, problem.bc
    fplus, fminus = flux_split(problem, u, bounds)
    powers, live, si = d_chain_pair(fplus, fminus, params, bc, k, config.quadrature)
    sigma = None
    if config.filter_enabled and k >= 2 and si is not None:
        sigma = sigma_fields(xi(*si), bc)
    cross = None
    if k == 3 and config.cross_term_k3:
        # before the sums below overwrite the second powers
        cross = _d_zero(powers[1][0] - powers[1][1, ..., ::-1], params, bc)
    # one accumulation order per row of the sweep frame, and one reversal,
    # keep mirrored data mirrored bit for bit
    h = powers[0]
    for p, d in enumerate(powers[1:], start=2):
        if sigma is not None:  # sigma^1 is sigma itself; numpy would copy it
            d[live] *= sigma if p == 2 else sigma ** (p - 1)
        h += d
    h = np.subtract(h[1, ..., ::-1], h[0], out=h[0])
    if cross is not None:
        h += cross
    h *= params.alpha
    return h


def _diffusion(u, problem, config, params):
    chain = d_chain_zero(problem.diffusion(u), params, problem.bc, config.order)
    h = chain[0]
    h += 0.0  # sum() starts from 0, and 0 + -0.0 is 0.0
    for power in chain[1:]:
        h += power
    h *= -params.alpha ** 2
    return h


def build_H(u: np.ndarray, problem: ProblemSpec | ProblemSpec2D, config: SchemeConfig,
            bounds, grid: Grid1D | Grid2D, families) -> np.ndarray:
    """Spatial operator for one stage; pure in u.

    bounds holds one WaveBounds per axis of problem and grid, a one-entry
    tuple in 1D, and families is the step's `kernel_families(config, bounds,
    dt, grid)`, which all its stages share (and `advance` keeps while
    (bounds, dt) repeats), so each family builds its tables once.  u holds
    N nodes per periodic axis (core.unique_nodes), N+1 otherwise; the
    x-sweeps treat the rows of a 2D field as a batch and the y-sweeps run on
    the transposed field; both are evaluated from the same input field and
    summed.
    """
    end_node = int(problem.bc is not Boundary.PERIODIC)
    expected = tuple(g.n_cells + end_node for g in reversed(grid.axes))
    if np.shape(u) != expected:
        raise ValueError(f"expected a field of shape {expected} for {problem.bc.value} "
                         f"data on this grid, got shape {np.shape(u)}")
    h = np.zeros_like(u)
    for axis, (spec, b, (conv, diff)) in enumerate(zip(problem.axes, bounds, families)):
        v = np.ascontiguousarray(u.T) if axis else u
        hv = np.zeros_like(v)
        if conv is not None:
            hv += _convection(v, spec, config, b, conv)
        if diff is not None:
            hv += _diffusion(v, spec, config, diff)
        h += hv.T if axis else hv
    return h
