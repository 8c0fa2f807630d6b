"""Exponential-kernel convolutions and the derivative operators built on them.

For a modified-Helmholtz-type operator L (one of the three families below),
the inverse is an exponential convolution plus homogeneous solutions, and

    D = I - L^{-1}

acts like a scaled derivative: truncated sums of powers of D approximate
d/dx (one-sided families) and d^2/dx^2 (symmetric family).

Convolutions are evaluated from per-cell local integrals J by the O(N)
recursion

    I^L_i = I^L_{i-1} e^{-nu} + J^L_i,   I^L_{-1} = 0,

from the cell J_0 left of node 0 on.  `sweep_left` runs it as LAPACK's
banded triangular solve (`dtbtrs`) with the unit bidiagonal band of
`KernelParams.band`, in the transposed upper form, whose steps round as the
recurrence's do; the lines go in as J + 0.0, so a -0.0 at node 0 comes out
as the recurrence's +0.0.  The right kernel is the left one
reflected in space, so I^R and its smoothness pair are the left path run on
the reversed data and reversed back.  The six quadrature windows are slices
of one line padded past the ends by `core.padded`, the extension rule the
filter shares through `core.shifted`.  The one primitive, `_d_pair`,
applies D_L and D_R: quadrature, sweep, closure, D, with both orientations
stacked into one batch for one quadrature and one sweep.  D_0 = (D_L +
D_R)/2 is half a pair difference, (D_L[v] - D_R[-v])/2, so one closure rule
serves all three families; D_0, in the diffusion chain and the k=3 cross
term, always runs on the linear rule.  Each boundary rule has one owner:
`local_integrals` makes J_0 the wrap cell of periodic data or a ghost cell
of other data, 0.0, and `boundary_coefficients` closes the pair by each
sweep's periodic images (a circulant convolution) or jointly, so D_L[v1] -
D_R[v2] (for D_0, D_0 itself) vanishes at both ends of homogeneous data.
A side whose input is exactly zero, as one half of the flux split of a
linear flux is, stays out of the batch: on zero data the quadrature and
sweep return +0.0 exactly, so the shortcut's zeros change no bit, and the
closure still runs as above.
Each stage writes its sums into arrays it made (the sweeps' outputs and
spent integrals), never into its inputs.

All array operations act along the last axis, so a leading batch dimension
(used for 2D line sweeps) comes for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import lapack

from .core import Boundary, Grid1D, padded
from . import quadrature
from .quadrature import LINEAR6, WENO5


@dataclass(frozen=True)
class KernelParams:
    """One convolution family on a grid of n_cells cells: alpha, nu = alpha*dx.

    mu = e^{-alpha(b-a)}, the sweep's pole e^{-nu} and band, the quadrature
    tables at nu and the edge profiles e^{-alpha(x_i-a)}, e^{-alpha(b-x_i)}
    are built on first use and kept, so every chain that shares this object
    builds them once.
    """

    alpha: float
    nu: float
    n_cells: int

    @cached_property
    def mu(self) -> float:
        return float(np.exp(-self.nu * self.n_cells))

    @cached_property
    def pole(self) -> float:
        return float(np.exp(-self.nu))

    @cached_property
    def band(self) -> np.ndarray:
        """The sweep's matrix in LAPACK's upper band storage, in Fortran
        order: row 0 the superdiagonal -pole, row 1 the unit diagonal."""
        band = np.empty((2, self.n_cells + 1), order="F")
        band[0] = -self.pole
        band[1] = 1.0
        return band

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
    """Per-cell local integrals J_i over [x_{i-1}, x_i], anchored at x_i, from
    the six windows v_{i-3..i+2} of the padded line; returns (J, si0, si2),
    the smoothness pair None in linear mode.  J_0, left of node 0, is the
    wrap cell of periodic data and a ghost cell of other data, 0.0."""
    line = padded(v, bc, -3, 2)
    if mode == WENO5:
        J, si0, si2 = quadrature.weno_integrals(line, params.tables)
    elif mode == LINEAR6:
        J, si0, si2 = quadrature.linear_integrals(line, params.tables), None, None
    else:
        raise ValueError(f"unknown quadrature mode {mode!r}")
    if bc is not Boundary.PERIODIC:
        J[..., 0] = 0.0
    return J, si0, si2


def sweep_left(J: np.ndarray, params: KernelParams) -> np.ndarray:
    """I_i = I_{i-1} q + J_i from J_0 on, q = e^{-nu} the cached pole; each
    line of a batch on its own.  O(N): the unit bidiagonal solve A^T I = J
    of LAPACK's `dtbtrs` on `params.band`, one right-hand side per line.

    The transposed upper form takes each step as J_i - dot(-q, I_{i-1}),
    which rounds as J_i + q I_{i-1} does; the lower form would fuse the
    multiply-add and round once.  The sum J + 0.0 copies the lines into the
    array the solve overwrites, and turns a -0.0 into the +0.0 the
    recurrence gives at node 0, where the solve leaves J_0 as it is.  So the
    result is the plain recurrence on J + 0.0, bit for bit.  A line longer
    than the band is an error: the solve would leave its tail unsolved.
    """
    n = J.shape[-1]
    if n > params.n_cells + 1:
        raise ValueError(f"a line of {n} nodes is longer than the band's {params.n_cells + 1}")
    out = np.add(J, 0.0, order="C")
    I, info = lapack.dtbtrs(params.band[:, :n], out.reshape(-1, n).T,
                            uplo="U", trans="T", diag="U", overwrite_b=1)
    if info != 0:
        raise ValueError(f"dtbtrs failed with info = {info}")
    return I.T.reshape(J.shape)


def boundary_coefficients(bc: Boundary, params: KernelParams, vl, vr, IL, IR):
    """The pair's closure: (A_L, B_R, profile) with D_L[vl] = vl - (I^L +
    A_L profile) and D_R[vr] = vr - (I^R + B_R profile reversed), A_L and
    B_R batch arrays over the leading axes (scalars for one line).

    Periodic (circulant): each sweep from J_0 covers one period, and
    A_L = I^L_{N-1}/(1-mu), B_R = I^R_0/(1-mu) on e_left[1:] add the images
    of the earlier periods.  Homogeneous: D_L[vl] - D_R[vr] = 0 at both
    ends, on e_left: A + mu B = -e_a, mu A + B = -e_b in (A, B) = (A_L,
    -B_R), with e_a = (vr_0 - vl_0) - I^R_0 and e_b = (vr_N - vl_N) + I^L_N.
    """
    mu = params.mu
    if not 0.0 <= mu < 1.0:
        raise ValueError(f"need 0 <= mu < 1, got {mu}")
    if bc is Boundary.PERIODIC:
        return IL[..., -1] / (1.0 - mu), IR[..., 0] / (1.0 - mu), params.e_left[1:]
    e_a = (vr[..., 0] - vl[..., 0]) - IR[..., 0]
    e_b = (vr[..., -1] - vl[..., -1]) + IL[..., -1]
    one = 1.0 - mu ** 2
    return (mu * e_b - e_a) / one, -(mu * e_a - e_b) / one, params.e_left


def _zero_integrals(v, mode: str):
    """What `local_integrals` returns on an exactly zero v (entries +-0.0):
    +0.0 throughout, since every weight is finite, every rule sum starts
    from 0.0 and the indicators are sums of squares."""
    zero = np.zeros(v.shape)
    return np.zeros(v.shape), *((zero, zero) if mode == WENO5 else (None, None))


def _d_pair(vl, vr, params: KernelParams, bc: Boundary, mode: str):
    """One application of D_L to vl and D_R to vr: quadrature, sweep,
    closure (`boundary_coefficients`), D.

    Returns (D_L[vl], D_R[vr], si_left, si_right), the smoothness pairs None
    in linear mode.  The live sides, vl and vr reversed, run as one
    (s, ..., n) batch through one quadrature and one sweep, left first; each
    output element gets the arithmetic it gets alone, and the sweep treats
    each line on its own, so no bit depends on the stacking.  A side whose
    input is exactly zero (the f- of f = cu, the f+ of f = -|c|u) is left out
    of the batch: its quadrature and sweep return +0.0 there
    (`_zero_integrals`).  The closure still runs on both ends, so every
    output bit is the one the full path gives.
    """
    zero_l, zero_r = not vl.any(), not vr.any()
    live = [] if zero_l else [vl]
    if not zero_r:
        live.append(vr[..., ::-1])
    if live:
        J, si0, si2 = local_integrals(np.array(live), params, mode, bc)
        I = sweep_left(J, params)
    # the left side is the batch's first row, the reversed right side its
    # last; the sweep of zeros is +0.0 too
    row = lambda k: (I[k], J[k], si0 if si0 is None else si0[k], si2 if si2 is None else si2[k])
    IL, JL, *si_l = (np.zeros(vl.shape), *_zero_integrals(vl, mode)) if zero_l else row(0)
    IR_rev, _, *si_r = (np.zeros(vr.shape), *_zero_integrals(vr, mode)) if zero_r else row(-1)
    IR = IR_rev[..., ::-1]
    a_l, b_r, profile = boundary_coefficients(bc, params, vl, vr, IL, IR)
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


def _d_zero(v, params: KernelParams, bc: Boundary):
    """One application of the symmetric-family D_0 = (D_L + D_R)/2.

    D_R is odd, so D_L[v] - D_R[-v] = 2 D_0[v], on the linear rule; the
    pair's closures are D_0's: the periodic ones average, and the homogeneous
    joint one makes D_0[v] vanish at both ends.  The result owns its memory,
    so the pair's stacked sweep output is freed on return.
    """
    dl, dr, _, _ = _d_pair(v, -v, params, bc, LINEAR6)
    d0 = np.subtract(dl, dr)
    d0 *= 0.5
    return d0


def d_chain_pair(vl: np.ndarray, vr: np.ndarray, params: KernelParams,
                 bc: Boundary, k: int, mode: str):
    """Left chain on vl and right chain on vr advanced together through k
    powers (the form the convection operator consumes).

    The first pass uses `mode`, higher powers the linear rule.  Returns
    (powers_left, powers_right, si_left, si_right), si the first pass's
    smoothness pairs (None in linear mode).
    """
    cl, cr, si_l, si_r = _d_pair(vl, vr, params, bc, mode)
    pl, pr = [cl], [cr]
    for _ in range(1, k):
        cl, cr, _, _ = _d_pair(cl, cr, params, bc, LINEAR6)
        pl.append(cl)
        pr.append(cr)
    return pl, pr, si_l, si_r


def d_chain_zero(v: np.ndarray, params: KernelParams, bc: Boundary, k: int):
    """Symmetric-family chain [D_0^1[v], .., D_0^k[v]] on the linear rule,
    re-closing the boundary at every power."""
    powers = [_d_zero(v, params, bc)]
    for _ in range(1, k):
        powers.append(_d_zero(powers[-1], params, bc))
    return powers
