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
as the recurrence's +0.0.  The right kernel is the left one reflected in
space, so I^R and its smoothness pair are the left path run on the reversed
data, and they stay reversed.  The six quadrature windows are slices of one
line padded past the ends by `core.padded`, the extension rule the filter
shares through `core.shifted`.

The one primitive, `_d_pair`, applies D_L and D_R to both rows of the pair
stacked in the sweep frame, w = [vl, vr reversed]; each chain keeps w
stacked through its k powers, and `d_chain_pair` hands its powers and
smoothness pair out in that frame.  D_0 = (D_L + D_R)/2 is half a pair
difference, (D_L[v] - D_R[-v])/2, on the linear rule, so one closure rule
serves all three families.  Each boundary rule has one owner:
`local_integrals` makes J_0 the wrap cell of periodic data or a ghost cell
of other data, 0.0, and `boundary_coefficients` closes each row by its
sweep's periodic images (a circulant convolution) or the pair jointly, so
D_L[v1] - D_R[v2] vanishes at both ends of homogeneous data.  On periodic
data a row whose input alone is exactly zero, as one half of a linear
flux's split is, costs nothing: its quadrature, sweep and closure would
give +0.0, so its D is its input, bit for bit, at every power.  Each stage
writes its sums into arrays it made, never into its inputs.

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
    if out.size == 0:  # dtbtrs writes past a zero-column right-hand side
        return out
    I, info = lapack.dtbtrs(params.band[:, :n], out.reshape(-1, n).T,
                            uplo="U", trans="T", diag="U", overwrite_b=1)
    if info != 0:
        raise ValueError(f"dtbtrs failed with info = {info}")
    return I.T.reshape(J.shape)


def boundary_coefficients(bc: Boundary, params: KernelParams, w, I):
    """The closure of the stacked pair w = [vl, vr reversed] with sweeps I:
    (coef, profile) with D = w - (I + coef profile) in the sweep frame.

    Periodic (circulant): each sweep from J_0 covers one period, and coef =
    I_{N-1}/(1-mu) on e_left[1:] adds the images of the earlier periods, row
    by row, so I may hold either row.  Homogeneous: D_L[vl] - D_R[vr] = 0 at
    both ends, on e_left: A + mu B = -e_a, mu A + B = -e_b in (A, B) = (A_L,
    -B_R), e_a = (vr_0 - vl_0) - I^R_0 and e_b = (vr_N - vl_N) + I^L_N.
    """
    mu = params.mu
    if not 0.0 <= mu < 1.0:
        raise ValueError(f"need 0 <= mu < 1, got {mu}")
    if bc is Boundary.PERIODIC:
        return I[..., -1] / (1.0 - mu), params.e_left[1:]
    e_a = (w[1, ..., -1] - w[0, ..., 0]) - I[1, ..., -1]
    e_b = (w[1, ..., 0] - w[0, ..., -1]) + I[0, ..., -1]
    one = 1.0 - mu ** 2
    return np.stack(((mu * e_b - e_a) / one, -(mu * e_a - e_b) / one)), params.e_left


_BOTH = slice(0, 2)


def _liveness(vl, vr, bc: Boundary) -> slice:
    """The rows of the stacked pair [vl, vr reversed] that run quadrature and
    sweep at every power of a chain, one slice, never empty: on periodic
    data where exactly one input is exactly zero (entries +-0.0), the other
    row; otherwise both."""
    left, right = vl.any(), vr.any()
    if bc is Boundary.PERIODIC and left != right:
        return slice(0, 1) if left else slice(1, 2)
    return _BOTH


def _d_pair(w, live: slice, params: KernelParams, bc: Boundary, mode: str):
    """One power of the kernel pair on w = [vl, vr reversed], stacked in the
    sweep frame: quadrature, sweep, closure (`boundary_coefficients`), D.

    Returns (d, si): d = [D_L[vl], D_R[vr] reversed], a fresh array, and si
    the smoothness pair (SI0, SI2) of the `live` rows in the sweep frame,
    None in linear mode.  The live rows run as one batch through one
    quadrature and one sweep, which treat each line on its own; a dead row
    (periodic only) is passed through as its D.
    """
    J, si0, si2 = local_integrals(w[live], params, mode, bc)
    I = sweep_left(J, params)
    coef, profile = boundary_coefficients(bc, params, w, I)
    # D = w - (I + edge) in the sweep's array; the spent J holds the edge
    I += np.multiply(coef[..., None], profile, out=J)
    d = I if live == _BOTH else w.copy()
    np.subtract(w[live], I, out=d[live])
    return d, None if si0 is None else (si0, si2)


def d_chain_pair(vl: np.ndarray, vr: np.ndarray, params: KernelParams,
                 bc: Boundary, k: int, mode: str):
    """Left chain on vl and right chain on vr, stacked as [vl, vr reversed]
    through k powers, the first on `mode` and the rest on the linear rule.

    Returns (powers, live, si), all in the sweep frame: powers the k stacked
    [D_L^p[vl], D_R^p[vr] reversed], live the slice of rows that ran every
    power (`_liveness`), and si the first power's smoothness pair over those
    rows, None in linear mode.
    """
    live = _liveness(vl, vr, bc)
    w, si = _d_pair(np.stack((vl, vr[..., ::-1])), live, params, bc, mode)
    powers = [w]
    for _ in range(1, k):
        powers.append(_d_pair(powers[-1], live, params, bc, LINEAR6)[0])
    return powers, live, si


def d_chain_zero(v: np.ndarray, params: KernelParams, bc: Boundary, k: int):
    """Symmetric-family chain [D_0^1[v], .., D_0^k[v]] on the linear rule:
    the pair runs on w = [v, (-v) reversed], both rows live or both zero,
    and each power's D makes the next w = (d - d reversed in both axes)/2,
    whose row 0, copied so as not to hold the mirrored row alive, is the
    power.  The closures are D_0's: the periodic ones average, the
    homogeneous joint one makes D_0[u] vanish at both ends."""
    powers, w = [], np.stack((v, -v[..., ::-1]))
    for _ in range(k):
        d = _d_pair(w, _BOTH, params, bc, LINEAR6)[0]
        w = np.subtract(d, d[::-1, ..., ::-1])
        w *= 0.5
        powers.append(w[0].copy())
    return powers


def _d_zero(v, params: KernelParams, bc: Boundary):
    """One application of the symmetric-family D_0 = (D_L + D_R)/2, the first
    power of `d_chain_zero`."""
    return d_chain_zero(v, params, bc, 1)[0]
