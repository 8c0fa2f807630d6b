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


def linear_weights(nu: float) -> tuple[float, float, float]:
    """Weights (d0, d1, d2) combining the substencil rules into the quintic-exact
    6-point rule; d1 = 1 - d0 - d2."""
    m = _moments(nu)
    small = _SMALL_MONOMIALS @ m[:4]
    ends = _END_MONOMIALS @ m
    d0, d2 = float(ends[0] / small[0, 0]), float(ends[1] / small[2, 3])
    return d0, 1.0 - d0 - d2, d2


class CoefTables(NamedTuple):
    """Every coefficient the cell rules need at one nu."""

    small: np.ndarray                    # 3x4 substencil table
    weights: tuple[float, float, float]  # linear weights d0, d1, d2
    linear: np.ndarray                   # the six linear-rule coefficients


def coef_tables(nu: float) -> CoefTables:
    """Build the substencil table and the linear weights once, and the 6-point
    linear coefficients from them."""
    cs = small_stencil_coefficients(nu)
    d = linear_weights(nu)
    out = np.zeros(6)
    for r in range(3):
        out[r:r + 4] += d[r] * cs[r]
    return CoefTables(cs, d, out)


def smoothness_indicators(window):
    """Smoothness indicators (SI0, SI1, SI2) of one six-value window.

    `window` is a sequence of six arrays (or scalars) w0..w5 holding
    v_{i-3} .. v_{i+2}; broadcasting applies across grid/batch dimensions.
    Each indicator combines the squared third difference, a squared
    second-difference combination, and the squared cell jump, and vanishes
    exactly on linear data.
    """
    w0, w1, w2, w3, w4, w5 = window
    jump = (w2 - w3) ** 2
    si0 = (781.0 / 720.0) * (-w0 + 3 * w1 - 3 * w2 + w3) ** 2 \
        + (13.0 / 48.0) * (w0 - 5 * w1 + 7 * w2 - 3 * w3) ** 2 + jump
    si1 = (781.0 / 720.0) * (-w1 + 3 * w2 - 3 * w3 + w4) ** 2 \
        + (13.0 / 48.0) * (w1 - w2 - w3 + w4) ** 2 + jump
    si2 = (781.0 / 720.0) * (-w2 + 3 * w3 - 3 * w4 + w5) ** 2 \
        + (13.0 / 48.0) * (-3 * w2 + 7 * w3 - 5 * w4 + w5) ** 2 + jump
    return si0, si1, si2


def nonlinear_weights(si, d, epsilon: float = WENO_EPSILON):
    """Normalized nonlinear weights omega_r = (d_r/(eps+SI_r)^2) / sum."""
    raw = [d[r] / (epsilon + si[r]) ** 2 for r in range(3)]
    total = raw[0] + raw[1] + raw[2]
    return raw[0] / total, raw[1] / total, raw[2] / total


def weno_integrals(window, tables: CoefTables):
    """Vectorized WENO-5 local integrals from pre-gathered windows and the
    tables of `coef_tables`.

    Returns (J, SI0, SI2); SI0/SI2 feed the oscillation filter.
    """
    cs, d = tables.small, tables.weights
    cand = [sum(cs[r][j] * window[r + j] for j in range(4)) for r in range(3)]
    si = smoothness_indicators(window)
    om = nonlinear_weights(si, d)
    J = om[0] * cand[0] + om[1] * cand[1] + om[2] * cand[2]
    return J, si[0], si[2]


def linear_integrals(window, tables: CoefTables):
    """Vectorized 6-point linear local integrals from pre-gathered windows and
    the tables of `coef_tables`."""
    c = tables.linear
    return sum(c[j] * window[j] for j in range(6))

