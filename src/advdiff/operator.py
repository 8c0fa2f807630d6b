"""Assembly of the discrete spatial operator H[u] ~ -f(u)_x + g(u)_xx.

With wave-speed bounds c = max|f'| and b = max|g'|, the kernel parameters are

    alpha_L = alpha_R = beta/(c dt),     alpha_0 = sqrt(beta/(b dt)),

and H combines the filtered convection chains with the diffusion chain:

    H = -alpha_L * (D_L[f+] + sum_{p=2..k} sigma_L^{p-1} D_L^p[f+])
        + alpha_R * (D_R[f-] + sum_{p=2..k} sigma_R^{p-1} D_R^p[f-])
        - alpha_0^2 * sum_{p=1..k} D_0^p[g(u)],

f± = (f(u) ± c u)/2 being the Lax-Friedrichs split.  At k = 3 an extra
correction term alpha_L * D_0[D_L^2[f+] - D_R^2[f-]] (same alpha_L family,
linear quadrature, second powers taken from the chains above) restores
A-stability of the convection part; its f- half mirrors the f+ half.  Blocks
whose wave-speed bound vanishes are skipped.

Everything operates on arrays along the last axis; in 2D the same assembly
runs per axis on batched lines and the results are summed.
"""

from __future__ import annotations

import numpy as np

from .core import (DEGENERATE_TOL, Boundary, Grid1D, Grid2D, ProblemSpec,
                   ProblemSpec2D, SchemeConfig, WaveBounds, per_axis)
from .filtering import sigma_fields, xi
from .kernelops import KernelParams, _d_zero, d_chain_pair, d_chain_zero
from .quadrature import LINEAR6


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
    """(convection, diffusion) KernelParams of each axis for one step, with
    alpha_L = beta/(c dt) and alpha_0 = sqrt(beta/(b dt)); None for a block
    whose wave-speed bound vanishes."""
    families = []
    for b, g in zip(per_axis(bounds), grid.axes):
        conv = (KernelParams.from_alpha(config.beta / (b.c * dt), g)
                if b.c > DEGENERATE_TOL else None)
        diff = (KernelParams.from_alpha(np.sqrt(config.beta / (b.b_diff * dt)), g)
                if b.b_diff > DEGENERATE_TOL else None)
        families.append((conv, diff))
    return tuple(families)


def _convection(u, problem, config, bounds, params):
    k, bc = config.order, problem.bc
    fplus, fminus = flux_split(problem, u, bounds)
    chain_l, chain_r, si_l, si_r = d_chain_pair(
        fplus, fminus, params, bc, k, mode_first=config.quadrature)
    sig_l = sig_r = 1.0
    if config.filter_enabled and k >= 2 and si_l is not None:
        sig_l, sig_r = sigma_fields(xi(*si_l), xi(*si_r), bc)
    cross = None
    if k == 3 and config.cross_term_k3:
        # before the sums below overwrite the second powers
        cross = _d_zero(chain_l[1] - chain_r[1], params, bc, LINEAR6)
    # one accumulation order per side keeps mirrored data mirrored bit for bit
    h, hl = chain_r[0], chain_l[0]
    for p in range(2, k + 1):
        # sigma^1 is sigma itself; numpy would copy it
        damp_l, damp_r = (sig_l, sig_r) if p == 2 else (sig_l ** (p - 1), sig_r ** (p - 1))
        hl += np.multiply(damp_l, chain_l[p - 1], out=chain_l[p - 1])
        h += np.multiply(damp_r, chain_r[p - 1], out=chain_r[p - 1])
    h -= hl
    if cross is not None:
        h += cross
    h *= params.alpha
    return h


def _diffusion(u, problem, config, params):
    chain = d_chain_zero(problem.diffusion(u), params, problem.bc, config.order,
                         mode_first=config.quadrature)
    h = chain[0]
    h += 0.0  # sum() starts from 0, and 0 + -0.0 is 0.0
    for power in chain[1:]:
        h += power
    h *= -params.alpha ** 2
    return h


def build_H(u: np.ndarray, problem: ProblemSpec | ProblemSpec2D, config: SchemeConfig,
            bounds, dt: float, grid: Grid1D | Grid2D, families=None) -> np.ndarray:
    """Spatial operator for one stage; pure in u.

    bounds holds one WaveBounds per axis of problem and grid (a bare
    WaveBounds in 1D).  families is `kernel_families(config, bounds, dt,
    grid)`, built here when not given; a caller that evaluates several stages
    of one step passes it, so each family builds its tables once per step.
    u holds N nodes per periodic axis (core.unique_nodes), N+1 otherwise; the
    x-sweeps treat the rows of a 2D field as a batch and the y-sweeps run on
    the transposed field; both are evaluated from the same input field and
    summed.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    end_node = int(problem.bc is not Boundary.PERIODIC)
    expected = tuple(g.n_cells + end_node for g in reversed(grid.axes))
    if np.shape(u) != expected:
        raise ValueError(f"expected a field of shape {expected} for {problem.bc.value} "
                         f"data on this grid, got shape {np.shape(u)}")
    if families is None:
        families = kernel_families(config, bounds, dt, grid)
    h = np.zeros_like(u)
    for axis, (spec, b, (conv, diff)) in enumerate(zip(problem.axes, per_axis(bounds), families)):
        if conv is None and diff is None:
            continue
        v = np.ascontiguousarray(u.T) if axis else u
        hv = np.zeros_like(v)
        if conv is not None:
            hv += _convection(v, spec, config, b, conv)
        if diff is not None:
            hv += _diffusion(v, spec, config, diff)
        h += hv.T if axis else hv
    return h
