"""Von Neumann analysis: operator symbols, amplification factors, beta scans.

For a Fourier mode e^{i kappa x} the operator families have symbols

    semi-discrete:   Dhat_L = i th/(1+i th),  Dhat_0 = th^2/(1+th^2),
                     th = kappa/alpha = kappa_dx/nu,
    fully discrete:  Dhat_L = 1 - Jhat(+)/(1 - e^{-nu - i kappa dx}),
                     Dhat_0 = 1 - (Jhat(+)/(1-e^{-nu-i k dx})
                                   + Jhat(-)/(1-e^{-nu+i k dx}))/2,

with Jhat(±) = sum_r c_r e^{± i r kappa dx} built from the 6-point linear
quadrature coefficients.  One SSP-RK step of the linear problem multiplies the
mode by lambda = R_k(z) where z = -beta * sum_{p<=k} Dhat^p (advection uses
Dhat_L, diffusion Dhat_0; the k=3 advection correction adds
+beta * Dhat_0 * Dhat_L^2 in the same kernel family).

Scans cover kappa_dx in [0, 2pi] against a log-spaced range of step ratios
(c dt/dx for advection, b dt/dx^2 for diffusion); the largest beta keeping
max |lambda| <= 1 + 1e-10 is located by bisection.
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


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"
    ZERO = "zero"


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


def _dhat(side: Side, kappa_dx, nu: float, mode: str):
    kdx = np.asarray(kappa_dx, dtype=float)
    if mode == SEMI_DISCRETE:
        theta = kdx / nu
        if side is Side.ZERO:
            return theta ** 2 / (1.0 + theta ** 2) + 0j
        d = 1j * theta / (1.0 + 1j * theta)
        return d if side is Side.LEFT else np.conj(d)
    if mode == FULLY_DISCRETE:
        c = coef_tables(nu).linear
        r = np.arange(-3, 3)
        jp = np.tensordot(np.exp(1j * np.multiply.outer(kdx, r)), c, axes=([-1], [0]))
        gp = jp / (1.0 - np.exp(-nu - 1j * kdx))
        if side is Side.LEFT:
            return 1.0 - gp
        jm = np.tensordot(np.exp(-1j * np.multiply.outer(kdx, r)), c, axes=([-1], [0]))
        gm = jm / (1.0 - np.exp(-nu + 1j * kdx))
        if side is Side.RIGHT:
            return 1.0 - gm
        return 1.0 - 0.5 * (gp + gm)
    raise ValueError(f"unknown symbol mode {mode!r}")


def amplification(order: int, kind: EquationKind, beta: float, kappa_dx,
                  step_ratio: float, mode: str = SEMI_DISCRETE,
                  cross_term: bool = False):
    """lambda = R_k(z) for one step ratio; vectorized over kappa_dx.

    step_ratio is c dt/dx for advection, b dt/dx^2 for diffusion.
    """
    if kind is EquationKind.ADVECTION:
        nu = beta / step_ratio
        d = _dhat(Side.LEFT, kappa_dx, nu, mode)
        z = -beta * sum(d ** p for p in range(1, order + 1))
        if cross_term and order == 3:
            z = z + beta * _dhat(Side.ZERO, kappa_dx, nu, mode) * d ** 2
    else:
        nu = np.sqrt(beta / step_ratio)
        d = _dhat(Side.ZERO, kappa_dx, nu, mode)
        z = -beta * sum(d ** p for p in range(1, order + 1))
    return rk_multiplier(order, z)


def max_amplification(order: int, kind: EquationKind, beta: float,
                      mode: str = SEMI_DISCRETE, n_kappa: int = 512,
                      n_ratio: int = 64, cross_term: bool | None = None) -> float:
    """Largest |lambda| over the (kappa_dx, step-ratio) scan grid."""
    if n_kappa < 256:
        raise ValueError("need at least 256 kappa points for a trustworthy scan")
    return compute_report(order, kind, beta, mode, n_kappa, n_ratio,
                          cross_term).max_abs_lambda


def scan_beta_max(order: int, kind: EquationKind, mode: str = SEMI_DISCRETE,
                  tol: float = 1e-3, beta_hi: float = 4.0,
                  cross_term: bool | None = None) -> float:
    """Largest beta with max |lambda| <= 1 + STABLE_TOL, bisected to tol."""
    lo, hi = 1e-3, beta_hi
    stable = lambda b: max_amplification(order, kind, b, mode,
                                         cross_term=cross_term) <= 1.0 + STABLE_TOL
    if not stable(lo):
        raise RuntimeError("scan bracket broken: smallest beta already unstable")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return lo


def compute_report(order: int, kind: EquationKind, beta: float,
                   mode: str = FULLY_DISCRETE, n_kappa: int = 512,
                   n_ratio: int = 64, cross_term: bool | None = None) -> StabilityReport:
    """|lambda| over the (kappa_dx, step-ratio) scan grid; the k=3 advection
    correction is on unless cross_term says otherwise."""
    if cross_term is None:
        cross_term = order == 3 and kind is EquationKind.ADVECTION
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
