"""Von Neumann analysis: operator symbols, amplification factors, beta scans.

For a Fourier mode e^{i kappa x} the analysis computes D_L's symbol alone,

    semi-discrete:   Dhat_L = i th/(1+i th),  th = kappa/alpha = kappa_dx/nu,
    fully discrete:  Dhat_L = 1 - Jhat(+)/(1 - e^{-nu - i kappa dx}),

with Jhat(±) = sum_r c_r e^{± i r kappa dx} built from the 6-point linear
quadrature coefficients.  The coefficients are real, so D_R's symbol is the
complex conjugate of D_L's and D_0 = (D_L + D_R)/2 has its real part (in the
semi-discrete case th^2/(1+th^2)).  One SSP-RK step of the linear problem
multiplies the mode by lambda = R_k(z) where z = -beta * sum_{p<=k} Dhat^p
(advection uses Dhat_L, diffusion Dhat_0; the k=3 advection correction adds
+beta * Dhat_0 * Dhat_L^2 in the same kernel family).  A left-going wave
(c < 0) meets the mirrored operators, so its multiplier is the complex
conjugate and the same bounds hold for either direction.

`compute_report` is the one scan: |lambda| on the grid of KAPPA_DX in
[0, 2pi] against log-spaced STEP_RATIOS (c dt/dx for advection, b dt/dx^2 for
diffusion).  `scan_beta_max` bisects for the largest beta keeping the
semi-discrete scheme's maximum <= 1 + STABLE_TOL.  `amplification`, which
every scan goes through, rejects a kind that is not an `EquationKind` and a
beta or step ratio that is not positive and finite.
"""

from __future__ import annotations

import enum

import numpy as np

from .quadrature import coef_tables

SEMI_DISCRETE = "semi_discrete"
FULLY_DISCRETE = "fully_discrete_linear6"

#: tolerance accepted as "stable" in scans (roundoff slack above 1)
STABLE_TOL = 1e-10

#: step-ratio scan range (log-uniform), and the scan grid: N_KAPPA kappa_dx
#: points over [0, 2pi] and N_RATIO step ratios over RATIO_RANGE
RATIO_RANGE = (1e-3, 1e3)
N_KAPPA, N_RATIO = 512, 64
KAPPA_DX = np.linspace(0.0, 2 * np.pi, N_KAPPA)
STEP_RATIOS = np.geomspace(*RATIO_RANGE, N_RATIO)

#: bisection bracket for beta_max, and the width it is bisected to
BETA_RANGE = (1e-3, 4.0)
BETA_TOL = 1e-3


class EquationKind(enum.Enum):
    ADVECTION = "advection"
    DIFFUSION = "diffusion"


def rk_multiplier(order: int, z):
    """Per-step multiplier of the SSP-RK scheme on a linear mode, R_k(z)."""
    if order == 1:
        return 1 + z
    if order == 2:
        return 1 + z + z * z / 2
    if order == 3:
        return 1 + z + z * z / 2 + z ** 3 / 6
    raise ValueError(f"order must be 1, 2 or 3, got {order}")


def _dhat(kappa_dx, nu: float, mode: str):
    """D_L's symbol; D_R's is its conjugate and D_0's its real part."""
    kdx = np.asarray(kappa_dx, dtype=float)
    if mode == SEMI_DISCRETE:
        theta = kdx / nu
        return 1j * theta / (1.0 + 1j * theta)
    if mode == FULLY_DISCRETE:
        c = coef_tables(nu).linear
        r = np.arange(-3, 3)
        jp = np.tensordot(np.exp(1j * np.multiply.outer(kdx, r)), c, axes=([-1], [0]))
        return 1.0 - jp / (1.0 - np.exp(-nu - 1j * kdx))
    raise ValueError(f"unknown symbol mode {mode!r}")


def amplification(order: int, kind: EquationKind, beta: float, kappa_dx,
                  step_ratio: float, mode: str = SEMI_DISCRETE,
                  cross_term: bool = True):
    """lambda = R_k(z) for one step ratio; vectorized over kappa_dx.

    step_ratio is c dt/dx for advection, b dt/dx^2 for diffusion; it and beta
    must be positive and finite.  cross_term switches the k=3 advection
    correction.
    """
    if not isinstance(kind, EquationKind):
        raise ValueError(f"kind must be an EquationKind, got {kind!r}")
    for name, value in (("beta", beta), ("step_ratio", step_ratio)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if kind is EquationKind.ADVECTION:
        d = _dhat(kappa_dx, beta / step_ratio, mode)
    else:
        d = _dhat(kappa_dx, np.sqrt(beta / step_ratio), mode).real + 0j
    z = -beta * sum(d ** p for p in range(1, order + 1))
    if order == 3 and kind is EquationKind.ADVECTION and cross_term:
        z = z + beta * (d.real + 0j) * d ** 2
    return rk_multiplier(order, z)


def scan_beta_max(order: int, kind: EquationKind) -> float:
    """Largest beta in BETA_RANGE with the semi-discrete scheme's
    max |lambda| <= 1 + STABLE_TOL."""
    lo, hi = BETA_RANGE
    stable = lambda b: np.max(compute_report(order, kind, b, SEMI_DISCRETE)) <= 1.0 + STABLE_TOL
    if not stable(lo):
        raise RuntimeError("scan bracket broken: smallest beta already unstable")
    while hi - lo > BETA_TOL:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return lo


def compute_report(order: int, kind: EquationKind, beta: float,
                   mode: str = FULLY_DISCRETE) -> np.ndarray:
    """|lambda| on the scan grid, shape (N_RATIO, N_KAPPA): row i holds the
    step ratio STEP_RATIOS[i] over KAPPA_DX."""
    return np.array([np.abs(amplification(order, kind, beta, KAPPA_DX, s, mode))
                     for s in STEP_RATIOS])
