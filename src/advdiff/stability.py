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

`compute_report` is the one scan: |lambda| over kappa_dx in [0, 2pi] against
a log-spaced range of step ratios (c dt/dx for advection, b dt/dx^2 for
diffusion).  `scan_beta_max` bisects for the largest beta keeping its
maximum <= 1 + STABLE_TOL.  `amplification`, which every scan goes through,
rejects a beta or step ratio that is not positive and finite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .quadrature import coef_tables

SEMI_DISCRETE = "semi_discrete"
FULLY_DISCRETE = "fully_discrete_linear6"

#: tolerance accepted as "stable" in scans (roundoff slack above 1)
STABLE_TOL = 1e-10

#: step-ratio scan range (log-uniform)
RATIO_RANGE = (1e-3, 1e3)

#: bisection bracket for beta_max, and the width it is bisected to
BETA_RANGE = (1e-3, 4.0)
BETA_TOL = 1e-3


class EquationKind(enum.Enum):
    ADVECTION = "advection"
    DIFFUSION = "diffusion"


@dataclass
class StabilityReport:
    kind: EquationKind
    order: int
    beta: float
    kappa_dx: np.ndarray
    step_ratio: np.ndarray
    abs_lambda: np.ndarray  # shape (len(step_ratio), len(kappa_dx))
    max_abs_lambda: float = field(init=False)

    def __post_init__(self):
        self.max_abs_lambda = float(np.max(self.abs_lambda))


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
                  cross_term: bool | None = None):
    """lambda = R_k(z) for one step ratio; vectorized over kappa_dx.

    step_ratio is c dt/dx for advection, b dt/dx^2 for diffusion; it and beta
    must be positive and finite.  The k=3 advection correction is on unless
    cross_term says otherwise.
    """
    for name, value in (("beta", beta), ("step_ratio", step_ratio)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if kind is EquationKind.ADVECTION:
        d = _dhat(kappa_dx, beta / step_ratio, mode)
    else:
        d = _dhat(kappa_dx, np.sqrt(beta / step_ratio), mode).real + 0j
    z = -beta * sum(d ** p for p in range(1, order + 1))
    if order == 3 and kind is EquationKind.ADVECTION and cross_term is not False:
        z = z + beta * (d.real + 0j) * d ** 2
    return rk_multiplier(order, z)


def scan_beta_max(order: int, kind: EquationKind, mode: str = SEMI_DISCRETE,
                  cross_term: bool | None = None) -> float:
    """Largest beta in BETA_RANGE with max |lambda| <= 1 + STABLE_TOL."""
    lo, hi = BETA_RANGE
    stable = lambda b: (compute_report(order, kind, b, mode, cross_term=cross_term)
                        .max_abs_lambda <= 1.0 + STABLE_TOL)
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
                   mode: str = FULLY_DISCRETE, n_kappa: int = 512,
                   n_ratio: int = 64, cross_term: bool | None = None) -> StabilityReport:
    """|lambda| over the (kappa_dx, step-ratio) scan grid."""
    if n_kappa < 256:
        raise ValueError("need at least 256 kappa points for a trustworthy scan")
    kdx = np.linspace(0.0, 2 * np.pi, n_kappa)
    ratios = np.geomspace(*RATIO_RANGE, n_ratio)
    grid = np.empty((n_ratio, n_kappa))
    for i, s in enumerate(ratios):
        grid[i] = np.abs(amplification(order, kind, beta, kdx, s, mode, cross_term))
    return StabilityReport(kind=kind, order=order, beta=beta,
                           kappa_dx=kdx, step_ratio=ratios, abs_lambda=grid)


def export_contours(report: StabilityReport, path) -> None:
    """CSV grid of |lambda| suitable for external contour plotting."""
    with open(path, "w") as fh:
        fh.write("step_ratio,kappa_dx,abs_lambda\n")
        for i, s in enumerate(report.step_ratio):
            for j, kd in enumerate(report.kappa_dx):
                fh.write(f"{s:.17g},{kd:.17g},{report.abs_lambda[i, j]:.17g}\n")
