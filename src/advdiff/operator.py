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

from .core import (DEGENERATE_TOL, Grid1D, Grid2D, ProblemSpec, ProblemSpec2D,
                   SchemeConfig, WaveBounds, per_axis)
from .filtering import sigma_fields, xi
from .kernelops import KernelParams, _d_zero, d_chain_pair, d_chain_zero
from .quadrature import LINEAR6


def flux_split(problem: ProblemSpec, u: np.ndarray, bounds: WaveBounds):
    """Lax-Friedrichs split (f+, f-) = ((f(u) + c u)/2, (f(u) - c u)/2), so
    f+ + f- = f(u) with df+/du >= 0 and df-/du <= 0 over the bounded range."""
    f = problem.flux(u)
    cu = bounds.c * u
    return 0.5 * (f + cu), 0.5 * (f - cu)


def _convection(u, problem, config, bounds, dt, grid, bc):
    k = config.order
    fplus, fminus = flux_split(problem, u, bounds)
    params = KernelParams.from_alpha(config.beta / (bounds.c * dt), grid)
    chain_l, chain_r, si_l, si_r = d_chain_pair(
        fplus, fminus, params, bc, k, mode_first=config.quadrature)
    sig_l = sig_r = 1.0
    if config.filter_enabled and k >= 2 and si_l is not None:
        sig_l, sig_r = sigma_fields(xi(*si_l), xi(*si_r), bc)
    # one accumulation order per side keeps mirrored data mirrored bit for bit
    hl, hr = chain_l[0], chain_r[0]
    for p in range(2, k + 1):
        hl = hl + sig_l ** (p - 1) * chain_l[p - 1]
        hr = hr + sig_r ** (p - 1) * chain_r[p - 1]
    h = hr - hl
    if k == 3 and config.cross_term_k3:
        h = h + _d_zero(chain_l[1] - chain_r[1], params, bc, LINEAR6)
    return params.alpha * h


def _diffusion(u, problem, config, bounds, dt, grid, bc):
    params = KernelParams.from_alpha(np.sqrt(config.beta / (bounds.b_diff * dt)), grid)
    chain = d_chain_zero(problem.diffusion(u), params, bc, config.order,
                         mode_first=config.quadrature)
    return -params.alpha ** 2 * sum(chain)


def build_H(u: np.ndarray, problem: ProblemSpec | ProblemSpec2D, config: SchemeConfig,
            bounds, dt: float, grid: Grid1D | Grid2D) -> np.ndarray:
    """Spatial operator for one stage; pure in u.

    bounds holds one WaveBounds per axis of problem and grid (a bare
    WaveBounds in 1D).  On a (ny+1, nx+1) field the x-sweeps treat the rows
    as a batch and the y-sweeps run on the transposed field; both are
    evaluated from the same input field and summed.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    h = np.zeros_like(u)
    for axis, (spec, b, g) in enumerate(zip(problem.axes, per_axis(bounds), grid.axes)):
        if b.c <= DEGENERATE_TOL and b.b_diff <= DEGENERATE_TOL:
            continue
        v = np.ascontiguousarray(u.T) if axis else u
        hv = np.zeros_like(v)
        if b.c > DEGENERATE_TOL:
            hv = hv + _convection(v, spec, config, b, dt, g, spec.bc)
        if b.b_diff > DEGENERATE_TOL:
            hv = hv + _diffusion(v, spec, config, b, dt, g, spec.bc)
        h = h + (hv.T if axis else hv)
    return h
