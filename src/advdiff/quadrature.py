"""Exponentially weighted cell quadrature: WENO-5 and the 6-point linear rule.

A left-oriented local integral over one cell,

    J_i = alpha * int_{x_{i-1}}^{x_i} e^{-alpha (x_i - y)} v(y) dy,

is approximated from the six nodes x_{i-3} .. x_{i+2}.  Three cubic
interpolants on the substencils {x_{i-3+r}, ..., x_{i+r}} (r = 0, 1, 2) give
candidate values J_{i,r} = sum_j c^{(r)}_j v_j; the quintic interpolant on the
whole window is recovered by linear weights d_r, and the WENO variant replaces
d_r with smoothness-adapted nonlinear weights.  All coefficients depend only
on nu = alpha*dx; `coef_tables` builds them once per nu and the integral
rules take that table.

The rules read the padded line of `core.padded` (offsets -3..2 past each end):
the window w_m of node i is its slice starting at i + m.  Every stencil sum
(a candidate, the linear rule, each smoothness-indicator term) is one
`np.correlate` of the line with that stencil's coefficient row, which sums
left to right from 0.0 as the textbook `sum()` does, so the result is the
same to the last bit; the WENO weights are then formed in place in the
output rows.

Every coefficient is a combination of the exponential moments

    M_j(nu) = nu * int_0^1 e^{-nu s} s^j ds = j! P(j+1, nu) / nu^j,

P being the regularized lower incomplete gamma function
(`scipy.special.gammainc`), with weights that are the monomial coefficients
of the stencils' Lagrange bases.  Those are computed exactly from the stencil
offsets and rounded once at import.  The one formula serves every nu from
1e-50 up, with no cancellation as nu -> 0 and no switch between forms.

Right-oriented integrals (weight e^{-alpha (y - x_i)} over [x_i, x_{i+1}])
are evaluated by applying the left rule to the reversed window.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.special import factorial, gammainc

#: regularization in the nonlinear weights and the filter ratio
WENO_EPSILON = 1e-6

#: outputs per block of the WENO-5 rule: each of its work arrays is then
#: 128 KiB, so a block's working set stays in a core's L2 cache however
#: large the batch (a whole (2, 201, 201) batch at once spilled it)
WENO_BLOCK = 16384

#: quadrature mode names
WENO5 = "weno5"
LINEAR6 = "linear6"


def _lagrange_monomials(offsets):
    """Row per offset n (node at s = -n): the s^0 .. s^(len-1) coefficients of
    its Lagrange basis on `offsets`, exact, then rounded once."""
    rows = []
    for m in offsets:
        a = [Fraction(1)]
        for n in offsets:
            if n != m:  # multiply by (s + n)/(n - m)
                a = [(lo * n + hi) / (n - m) for lo, hi in zip(a + [0], [0] + a)]
        rows.append(a)
    return np.array(rows, dtype=float)


# substencil r covers offsets -3+r .. r; d0 and d2 need the six-point rule's
# end offsets -3 and 2, which only substencils 0 and 2 reach
_SMALL_MONOMIALS = np.array([_lagrange_monomials(range(r - 3, r + 1)) for r in range(3)])
_END_MONOMIALS = _lagrange_monomials(range(-3, 3))[[0, -1]]
_POWERS = np.arange(6)
_FACTORIALS = factorial(_POWERS)
_NU_MIN = 1e-50  # below it P(6, nu) ~ nu^6/6! is subnormal


def _moments(nu: float) -> np.ndarray:
    """The moments M_0 .. M_5 at nu."""
    if not nu >= _NU_MIN:
        raise ValueError(f"nu must be at least {_NU_MIN:g}, got {nu}")
    return _FACTORIALS * gammainc(_POWERS + 1, nu) / float(nu) ** _POWERS


def small_stencil_coefficients(nu: float) -> np.ndarray:
    """3x4 table of substencil coefficients; row r covers offsets -3+r .. r."""
    return _SMALL_MONOMIALS @ _moments(nu)[:4]


def linear_weights(nu: float, small: np.ndarray) -> tuple[float, float, float]:
    """Weights (d0, d1, d2) combining the substencil rules of `small`, the
    table of `small_stencil_coefficients(nu)`, into the quintic-exact 6-point
    rule; d1 = 1 - d0 - d2."""
    ends = _END_MONOMIALS @ _moments(nu)
    d0, d2 = float(ends[0] / small[0, 0]), float(ends[1] / small[2, 3])
    return d0, 1.0 - d0 - d2, d2


class CoefTables(NamedTuple):
    """Every coefficient the cell rules need at one nu."""

    small: np.ndarray                    # 3x4 substencil table
    weights: tuple[float, float, float]  # linear weights d0, d1, d2
    linear: np.ndarray                   # the six linear-rule coefficients


def coef_tables(nu: float) -> CoefTables:
    """Build the substencil table and the linear weights, and the 6-point
    linear coefficients from those."""
    cs = small_stencil_coefficients(nu)
    d = linear_weights(nu, cs)
    out = np.zeros(6)
    for r in range(3):
        out[r:r + 4] += d[r] * cs[r]
    return CoefTables(cs, d, out)


# the smoothness indicators' stencils: the third difference, the second-
# difference combination of each substencil and the cell jump w2 - w3
_THIRD = np.array([-1.0, 3.0, -3.0, 1.0])
_SECOND = np.array([[1.0, -5.0, 7.0, -3.0], [1.0, -1.0, -1.0, 1.0], [-3.0, 7.0, -5.0, 1.0]])
_JUMP = np.array([1.0, -1.0])


def _stencil(flat, coefs, first: int, m: int):
    """sum(c_j * flat[first + j:] for c_j in coefs), cut to m entries.  A
    correlation this short sums left to right from 0.0 as sum() does, so a
    leading -0.0 product becomes 0.0."""
    return np.correlate(flat[first:first + m + len(coefs) - 1], coefs, "valid")


def weno_integrals(line, tables: CoefTables):
    """WENO-5 local integrals from the padded line and the tables of
    `coef_tables`.

    line[..., i + m] holds v_{i-3+m} (m = 0..5) for the n nodes i, so it has
    n + 5 entries along its last axis; the window w_m of node i is
    line[..., m:m + n].  Returns (J, SI0, SI2); SI0/SI2 feed the oscillation
    filter.  Each smoothness indicator combines the squared third difference,
    a squared second-difference combination and the squared cell jump, and
    vanishes exactly on linear data:

        SI0 = 781/720 (-w0 + 3w1 - 3w2 + w3)^2 + 13/48 (w0 - 5w1 + 7w2 - 3w3)^2 + J2
        SI1 = 781/720 (-w1 + 3w2 - 3w3 + w4)^2 + 13/48 (w1 - w2 - w3 + w4)^2 + J2
        SI2 = 781/720 (-w2 + 3w3 - 3w4 + w5)^2 + 13/48 (-3w2 + 7w3 - 5w4 + w5)^2 + J2

    with J2 = (w2 - w3)^2; the nonlinear weights are omega_r = d_r/(eps +
    SI_r)^2 normalized to sum 1, and J = sum_r omega_r sum_j c^(r)_j w_{r+j}.
    Each stencil sum is one correlation (`_stencil`), rounded as the textbook
    form rounds it; SI1's and SI2's cubic terms are SI0's one and two nodes
    on, so the third difference is taken once.  The weights are then formed
    in place, in the output rows and the indicators' work arrays.

    The rule runs along the flattened batch, where contiguous slices are
    fastest: the last five nodes of each line then read into the next line,
    and the returned arrays are views that leave them out.  It walks that
    batch in blocks of `WENO_BLOCK` outputs, whose work arrays stay in cache;
    each output gets the same arithmetic in any block, so the blocking
    changes no bit.
    """
    flat = line.reshape(-1)
    m = flat.size - 5
    rows = [np.empty(line.shape) for _ in range(3)]
    J, si0, si2 = (r.reshape(-1) for r in rows)
    for start in range(0, m, WENO_BLOCK):
        stop = min(start + WENO_BLOCK, m)
        _weno_block(flat[start:stop + 5], tables, J[start:stop], si0[start:stop], si2[start:stop])
    n = line.shape[-1] - 5
    return rows[0][..., :n], rows[1][..., :n], rows[2][..., :n]


def _weno_block(flat, tables: CoefTables, J, si0, si2):
    """The rule of `weno_integrals` on one block: the m = flat.size - 5
    outputs J, SI0, SI2 from flat."""
    cs, d = tables.small, tables.weights
    m = J.size
    cubic = np.square(_stencil(flat, _THIRD, 0, m + 2))
    cubic *= 781.0 / 720.0
    jump = np.square(_stencil(flat, _JUMP, 2, m))
    si1 = np.empty(m)
    for r, si in enumerate((si0, si1, si2)):
        np.square(_stencil(flat, _SECOND[r], r, m), out=si)
        si *= 13.0 / 48.0
        si += cubic[r:r + m]
        si += jump
    # omega_0 goes into J, omega_1 over SI1 (not returned), omega_2 into cubic
    si1 += WENO_EPSILON
    om = (np.add(si0, WENO_EPSILON, out=J), si1, np.add(si2, WENO_EPSILON, out=cubic[:m]))
    for w_r, d_r in zip(om, d):
        np.square(w_r, out=w_r)
        np.divide(d_r, w_r, out=w_r)
    total = np.add(om[0], om[1], out=jump)
    total += om[2]
    for r, w_r in enumerate(om):
        w_r /= total
        w_r *= _stencil(flat, cs[r], r, m)
    J += om[1]
    J += om[2]


def linear_integrals(line, tables: CoefTables):
    """6-point linear local integrals sum_j c_j w_j from the padded line of
    `weno_integrals`, along the flattened batch as there."""
    flat = line.reshape(-1)
    m = flat.size - 5
    out = np.empty(line.shape)
    out.reshape(-1)[:m] = _stencil(flat, tables.linear, 0, m)
    return out[..., :line.shape[-1] - 5]
