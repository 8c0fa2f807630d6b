"""Exponential-kernel convolutions and the derivative operators built on them.

For a modified-Helmholtz-type operator L (one of the three families below),
the inverse is an exponential convolution plus homogeneous solutions, and

    D = I - L^{-1}

acts like a scaled derivative: truncated sums of powers of D approximate
d/dx (one-sided families) and d^2/dx^2 (symmetric family).

Convolutions are evaluated from per-cell local integrals J by the O(N)
recursion (a linear recurrence filter)

    I^L_i = I^L_{i-1} e^{-nu} + J^L_i,   I^L_0 = 0.

The right kernel is the left one reflected in space, so I^R (I^R_N = 0) and
its smoothness pair are the left path run on the reversed data and reversed
back; the symmetric convolution is I^0 = (I^L + I^R)/2.  The six quadrature
windows read past the ends through `core.shifted`, the extension rule the
filter shares.  Boundary closures fix the homogeneous-solution
coefficients: periodic closures enforce end-value matching of D, while the
homogeneous regime enforces D_0 = 0 at both ends and closes the left/right
pair jointly so that the combination D_L[v1] - D_R[v2] vanishes at both ends.

All array operations act along the last axis, so a leading batch dimension
(used for 2D line sweeps) comes for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.signal import lfilter

from .core import Boundary, Grid1D, shifted
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

    @cached_property
    def e_right(self) -> np.ndarray:
        return self.e_left[::-1].copy()

    @classmethod
    def from_alpha(cls, alpha: float, grid: Grid1D) -> "KernelParams":
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        return cls(alpha=float(alpha), nu=float(alpha * grid.dx), n_cells=grid.n_cells)


def local_integrals(v: np.ndarray, params: KernelParams, mode: str, bc: Boundary):
    """Per-cell local integrals J_i over [x_{i-1}, x_i], anchored at x_i (entry
    0 unused), from the six windows v_{i-3..i+2}; returns (J, si0, si2), the
    smoothness pair being None in linear mode."""
    win = shifted(v, bc, -3, 2)
    if mode == WENO5:
        return quadrature.weno_integrals(win, params.tables)
    if mode == LINEAR6:
        return quadrature.linear_integrals(win, params.tables), None, None
    raise ValueError(f"unknown quadrature mode {mode!r}")


def sweep_left(J: np.ndarray, params: KernelParams) -> np.ndarray:
    """I_0 = 0; I_i = I_{i-1} e^{-nu} + J_i.  O(N) via a linear recurrence."""
    q = np.exp(-params.nu)
    I = np.empty_like(J, dtype=float)
    I[..., 0] = 0.0
    I[..., 1:] = lfilter([1.0], [1.0, -q], J[..., 1:], axis=-1)
    return I


def _left(v, params: KernelParams, mode: str, bc: Boundary):
    """Left-oriented convolution I^L of v and its smoothness pair (None in
    linear mode)."""
    J, si0, si2 = local_integrals(v, params, mode, bc)
    return sweep_left(J, params), None if si0 is None else (si0, si2)


def _right(v, params: KernelParams, mode: str, bc: Boundary):
    """Right-oriented convolution I^R of v (I^R_i = I^R_{i+1} e^{-nu} + J^R_i,
    I^R_N = 0) and its smoothness pair: the right kernel is the left one
    reflected in space, so this is the left path on the reversed data,
    reversed back."""
    I, si = _left(v[..., ::-1], params, mode, bc)
    return I[..., ::-1], None if si is None else (si[0][..., ::-1], si[1][..., ::-1])


def boundary_coefficients(bc: Boundary, mu: float, e_a, e_b):
    """Coefficients (A, B) of the edge profiles e_left, e_right from the end
    values e_a, e_b that the caller's closure condition supplies.

    Periodic: A = e_b/(1-mu), B = e_a/(1-mu).  Homogeneous: the solution of
    A + mu B = -e_a, mu A + B = -e_b.  Entries may be batch arrays.
    """
    if not 0.0 <= mu < 1.0:
        raise ValueError(f"need 0 <= mu < 1, got {mu}")
    if bc is Boundary.PERIODIC:
        return e_b / (1.0 - mu), e_a / (1.0 - mu)
    one = 1.0 - mu ** 2
    return (mu * e_b - e_a) / one, (mu * e_a - e_b) / one


def _d_zero(v, params: KernelParams, bc: Boundary, mode: str):
    """One application of the symmetric-family D: D[v] = v - I^0 - A e_left
    - B e_right, closed periodically or so that D[v] vanishes at both ends."""
    I0 = 0.5 * (_left(v, params, mode, bc)[0] + _right(v, params, mode, bc)[0])
    e_a, e_b = I0[..., 0], I0[..., -1]
    if bc is not Boundary.PERIODIC:
        e_a, e_b = e_a - v[..., 0], e_b - v[..., -1]
    a0, b0 = boundary_coefficients(bc, params.mu, e_a, e_b)
    # grouping the edge terms keeps mirrored data mirrored bit for bit
    w = I0 + (np.asarray(a0)[..., None] * params.e_left + np.asarray(b0)[..., None] * params.e_right)
    return v - w


def _d_pair(vl, vr, params: KernelParams, bc: Boundary, mode: str):
    """One application of D_L to vl and D_R to vr.

    Periodic closures are independent; in the homogeneous regime the pair is
    closed jointly so D_L[vl] - D_R[vr] vanishes at both ends.
    Returns (D_L[vl], D_R[vr], si_left, si_right).
    """
    IL, si_l = _left(vl, params, mode, bc)
    IR, si_r = _right(vr, params, mode, bc)
    if bc is Boundary.PERIODIC:
        a_l, _ = boundary_coefficients(bc, params.mu, IL[..., 0], IL[..., -1])
        _, b_r = boundary_coefficients(bc, params.mu, IR[..., 0], IR[..., -1])
    else:
        # D_L[vl] - D_R[vr] = 0 at both ends is the homogeneous system in
        # (A_L, -B_R) with these end values
        a_l, b_r = boundary_coefficients(bc, params.mu,
                                         (vr[..., 0] - vl[..., 0]) - IR[..., 0],
                                         (vr[..., -1] - vl[..., -1]) + IL[..., -1])
        b_r = -b_r
    dl = vl - (IL + np.asarray(a_l)[..., None] * params.e_left)
    dr = vr - (IR + np.asarray(b_r)[..., None] * params.e_right)
    return dl, dr, si_l, si_r


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
