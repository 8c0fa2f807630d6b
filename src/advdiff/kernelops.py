"""Exponential-kernel convolutions and the derivative operators built on them.

For a modified-Helmholtz-type operator L (one of the three families below),
the inverse is an exponential convolution plus homogeneous solutions, and

    D = I - L^{-1}

acts like a scaled derivative: truncated sums of powers of D approximate
d/dx (one-sided families) and d^2/dx^2 (symmetric family).

Convolutions are evaluated from per-cell local integrals J by the O(N)
recursion (a linear recurrence filter)

    I^L_i = I^L_{i-1} e^{-nu} + J^L_i,   I^L_{-1} = 0,

from the cell J_0 left of node 0 on: the wrap cell of periodic data, which
holds its N unique nodes, or the ghost cell of other data, counted as 0.  The
right kernel is the left one reflected in space, so I^R and its smoothness
pair are the left path run on the reversed data and reversed back.  The six
quadrature windows are slices of one line padded past the ends by
`core.padded`, the extension rule the filter shares through `core.shifted`.
The one primitive, `_d_pair`, applies D_L and D_R; D_0 = (D_L + D_R)/2 is
half a pair difference, (D_L[v] - D_R[-v])/2, so one closure rule serves all
three families: periodic closures add each sweep's periodic images (a
circulant convolution), and homogeneous ones close the pair jointly so
D_L[v1] - D_R[v2] (for D_0, D_0 itself) vanishes at both ends.  Each stage
writes its sums into arrays it made (the sweeps' outputs and spent
integrals), never into its inputs.

All array operations act along the last axis, so a leading batch dimension
(used for 2D line sweeps) comes for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.signal import lfilter

from .core import Boundary, Grid1D, padded
from . import quadrature
from .quadrature import LINEAR6, WENO5


@dataclass(frozen=True)
class KernelParams:
    """One convolution family on a grid of n_cells cells: alpha, nu = alpha*dx.

    mu = e^{-alpha(b-a)}, the quadrature tables at nu and the edge profiles
    e^{-alpha(x_i-a)}, e^{-alpha(b-x_i)} are built on first use and kept, so
    every chain that shares this object builds them once.
    """

    alpha: float
    nu: float
    n_cells: int

    @cached_property
    def mu(self) -> float:
        return float(np.exp(-self.nu * self.n_cells))

    @cached_property
    def tables(self) -> quadrature.CoefTables:
        return quadrature.coef_tables(self.nu)

    @cached_property
    def e_left(self) -> np.ndarray:
        return np.exp(-self.nu * np.arange(self.n_cells + 1))

    @classmethod
    def from_alpha(cls, alpha: float, grid: Grid1D) -> "KernelParams":
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        return cls(alpha=float(alpha), nu=float(alpha * grid.dx), n_cells=grid.n_cells)


def local_integrals(v: np.ndarray, params: KernelParams, mode: str, bc: Boundary):
    """Per-cell local integrals J_i over [x_{i-1}, x_i] (J_0: the wrap or ghost
    cell), anchored at x_i, from the six windows v_{i-3..i+2} of the padded
    line; returns (J, si0, si2), the smoothness pair None in linear mode."""
    line = padded(v, bc, -3, 2)
    if mode == WENO5:
        return quadrature.weno_integrals(line, params.tables)
    if mode == LINEAR6:
        return quadrature.linear_integrals(line, params.tables), None, None
    raise ValueError(f"unknown quadrature mode {mode!r}")


def sweep_left(J: np.ndarray, params: KernelParams) -> np.ndarray:
    """I_i = I_{i-1} e^{-nu} + J_i from J_0 on.  O(N) via a linear recurrence."""
    return lfilter([1.0], [1.0, -np.exp(-params.nu)], J, axis=-1)


def boundary_coefficients(bc: Boundary, mu: float, e_a, e_b):
    """Coefficients (A, B) of the edge profile e_left and its mirror from the
    end values e_a, e_b that the caller's closure condition supplies.

    Periodic: A = e_b/(1-mu), B = e_a/(1-mu).  Homogeneous: the solution of
    A + mu B = -e_a, mu A + B = -e_b.  Entries may be batch arrays.
    """
    if not 0.0 <= mu < 1.0:
        raise ValueError(f"need 0 <= mu < 1, got {mu}")
    if bc is Boundary.PERIODIC:
        return e_b / (1.0 - mu), e_a / (1.0 - mu)
    one = 1.0 - mu ** 2
    return (mu * e_b - e_a) / one, (mu * e_a - e_b) / one


def _d_pair(vl, vr, params: KernelParams, bc: Boundary, mode: str):
    """One application of D_L to vl and D_R to vr.

    Periodic closures are independent; in the homogeneous regime the pair is
    closed jointly so D_L[vl] - D_R[vr] vanishes at both ends.  Returns
    (D_L[vl], D_R[vr], si_left, si_right), the smoothness pairs None in
    linear mode.
    """
    JL, *si_l = local_integrals(vl, params, mode, bc)
    JR, *si_r = local_integrals(vr[..., ::-1], params, mode, bc)
    periodic = bc is Boundary.PERIODIC
    if not periodic:
        # the ghost cells left of each sweep's start lie outside the domain
        JL[..., 0] = JR[..., 0] = 0.0
    IL = sweep_left(JL, params)
    IR_rev = sweep_left(JR, params)
    IR = IR_rev[..., ::-1]
    if periodic:
        # circulant: each sweep from J_0 covers one period, and the images of
        # the earlier periods add A q^(i+1), A read at the sweep's far end
        a_l, b_r = boundary_coefficients(bc, params.mu, IR[..., 0], IL[..., -1])
        profile = params.e_left[1:]
    else:
        # D_L[vl] - D_R[vr] = 0 at both ends is the homogeneous system in
        # (A_L, -B_R) with these end values
        a_l, b_r = boundary_coefficients(bc, params.mu,
                                         (vr[..., 0] - vl[..., 0]) - IR[..., 0],
                                         (vr[..., -1] - vl[..., -1]) + IL[..., -1])
        b_r = -b_r
        profile = params.e_left
    # D = v - (I + edge term), formed in the sweeps' arrays with the spent
    # J^L holding the edge terms; D_R in the reversed frame of its sweep,
    # where its edge profile is the left one
    edge = np.multiply(np.asarray(a_l)[..., None], profile, out=JL)
    IL += edge
    dl = np.subtract(vl, IL, out=IL)
    np.multiply(np.asarray(b_r)[..., None], profile, out=edge)
    IR_rev += edge
    np.subtract(vr[..., ::-1], IR_rev, out=IR_rev)
    dr = IR
    if si_l[0] is None:
        return dl, dr, None, None
    return dl, dr, tuple(si_l), tuple(s[..., ::-1] for s in si_r)


def _d_zero(v, params: KernelParams, bc: Boundary, mode: str):
    """One application of the symmetric-family D_0 = (D_L + D_R)/2.

    D_R is odd, so D_L[v] - D_R[-v] = 2 D_0[v]; the pair's closures are
    D_0's: the periodic ones average, and the homogeneous joint one makes
    D_0[v] vanish at both ends.
    """
    dl, dr, _, _ = _d_pair(v, -v, params, bc, mode)
    dl -= dr
    dl *= 0.5
    return dl


def d_chain_pair(vl: np.ndarray, vr: np.ndarray, params: KernelParams,
                 bc: Boundary, k: int, mode_first: str = WENO5):
    """Left chain on vl and right chain on vr advanced together through k
    powers (the form the convection operator consumes).

    Returns (powers_left, powers_right, si_left, si_right) with the
    smoothness pairs taken from the first (WENO) pass.
    """
    cl, cr, si_l, si_r = _d_pair(vl, vr, params, bc, mode_first)
    pl, pr = [cl], [cr]
    for _ in range(1, k):
        cl, cr, _, _ = _d_pair(cl, cr, params, bc, LINEAR6)
        pl.append(cl)
        pr.append(cr)
    return pl, pr, si_l, si_r


def d_chain_zero(v: np.ndarray, params: KernelParams, bc: Boundary, k: int,
                 mode_first: str = WENO5):
    """Symmetric-family chain [D_0^1[v], .., D_0^k[v]], re-closing the
    boundary at every power.

    The first application uses `mode_first` (WENO by default); higher powers
    always use the linear rule.
    """
    powers = [_d_zero(v, params, bc, mode_first)]
    for _ in range(1, k):
        powers.append(_d_zero(powers[-1], params, bc, LINEAR6))
    return powers
