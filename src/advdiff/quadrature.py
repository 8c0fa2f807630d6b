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

The closed forms below have nu^3 (substencils) up to nu^6 (linear weights)
cancellation as nu -> 0, so each quantity switches to a Taylor branch for
small nu; branch points are chosen so both sides agree to ~1e-13 (absolute).
The Taylor coefficients are derived at import, in exact rational arithmetic,
from the stencil offsets alone: each coefficient function is an exponential
moment of a Lagrange basis, and d0 is the quotient of two such series.  Each
value is rounded once to float.

Right-oriented integrals (weight e^{-alpha (y - x_i)} over [x_i, x_{i+1}])
are evaluated by applying the left rule to the reversed window.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

import numpy as np

#: regularization in the nonlinear weights and the filter ratio
WENO_EPSILON = 1e-6

#: quadrature mode names
WENO5 = "weno5"
LINEAR6 = "linear6"

# switch points between closed-form and series evaluation
_C_SWITCH = 0.2
_D_SWITCH = 0.5


def _moment_series(offsets, m, terms):
    """Exact Taylor coefficients, from nu^1 up, of nu*int_0^1 e^{-nu s} l(s) ds
    for the Lagrange basis l of node offset m on `offsets` (offset n at s = -n):
    the nu^(k+1) coefficient is (-1)^k/k! * sum_j a_j/(j+k+1), a_j being the
    monomial coefficients of l."""
    a = [Fraction(1)]
    for n in offsets:
        if n != m:  # multiply by (s + n)/(n - m)
            a = [(lo * n + hi) / (n - m) for lo, hi in zip(a + [0], [0] + a)]
    return [Fraction((-1) ** k, factorial(k)) * sum(aj / (j + k + 1) for j, aj in enumerate(a))
            for k in range(terms)]


# Taylor coefficients (in nu, led by nu^0) of the substencil coefficient
# functions, the moment series of each substencil's Lagrange bases: rows per
# substencil r = 0, 1, 2, one tuple per stencil offset -3+r .. r.
_C_SERIES = tuple(tuple((0.0,) + tuple(map(float, _moment_series(range(r - 3, r + 1), m, 9)))
                        for m in range(r - 3, r + 1)) for r in range(3))


def _d0_series():
    # d0 is the 6-point rule's offset -3 coefficient over substencil 0's, the
    # only substencil reaching offset -3; both series start at nu^1
    num = _moment_series(range(-3, 3), -3, 15)
    den = _moment_series(range(-3, 1), -3, 15)
    q = []
    for n in range(15):
        q.append((num[n] - sum(den[j] * q[n - j] for j in range(1, n + 1))) / den[0])
    return tuple(map(float, q))


_D0_SERIES = _d0_series()


def _horner(coefs, x):
    acc = 0.0
    for c in reversed(coefs):
        acc = acc * x + c
    return acc


def small_stencil_coefficients(nu: float) -> np.ndarray:
    """3x4 table of substencil coefficients; row r covers offsets -3+r .. r."""
    nu = float(nu)
    if nu <= 0:
        raise ValueError("nu must be positive")
    if nu < _C_SWITCH:
        return np.array([[_horner(_C_SERIES[r][j], nu) for j in range(4)]
                         for r in range(3)])
    e = np.exp(-nu)
    n2, n3 = nu * nu, nu ** 3
    return np.array([
        [(6 - 6 * nu + 2 * n2 - (6 - n2) * e) / (6 * n3),
         -(6 - 8 * nu + 3 * n2 - (6 - 2 * nu - 2 * n2) * e) / (2 * n3),
         (6 - 10 * nu + 6 * n2 - (6 - 4 * nu - n2 + 2 * n3) * e) / (2 * n3),
         -(6 - 12 * nu + 11 * n2 - 6 * n3 - (6 - 6 * nu + 2 * n2) * e) / (6 * n3)],
        [(6 - n2 - (6 + 6 * nu + 2 * n2) * e) / (6 * n3),
         -(6 - 2 * nu - 2 * n2 - (6 + 4 * nu - n2 - 2 * n3) * e) / (2 * n3),
         (6 - 4 * nu - n2 + 2 * n3 - (6 + 2 * nu - 2 * n2) * e) / (2 * n3),
         -(6 - 6 * nu + 2 * n2 - (6 - n2) * e) / (6 * n3)],
        [(6 + 6 * nu + 2 * n2 - (6 + 12 * nu + 11 * n2 + 6 * n3) * e) / (6 * n3),
         -(6 + 4 * nu - n2 - 2 * n3 - (6 + 10 * nu + 6 * n2) * e) / (2 * n3),
         (6 + 2 * nu - 2 * n2 - (6 + 8 * nu + 3 * n2) * e) / (2 * n3),
         -(6 - n2 - (6 + 6 * nu + 2 * n2) * e) / (6 * n3)],
    ])


def linear_weights(nu: float) -> tuple[float, float, float]:
    """Weights (d0, d1, d2) combining the substencil rules into the quintic-exact
    6-point rule; d1 = 1 - d0 - d2."""
    nu = float(nu)
    if nu <= 0:
        raise ValueError("nu must be positive")
    if nu < _D_SWITCH:
        # d2(nu) = d0(-nu): the series of d2 is that of d0 with the odd
        # coefficients negated, which Horner at -nu reproduces bit for bit
        d0 = _horner(_D0_SERIES, nu)
        d2 = _horner(_D0_SERIES, -nu)
    else:
        e = np.exp(-nu)
        n2, n3, n4 = nu * nu, nu ** 3, nu ** 4
        d0 = ((2 * n4 - 15 * n2 + 60) - (60 + 60 * nu + 15 * n2 - 5 * n3 - 3 * n4) * e) / \
             (10 * n2 * (2 * n2 - 6 * nu + 6 + (n2 - 6) * e))
        d2 = (60 - 60 * nu + 15 * n2 + 5 * n3 - 3 * n4 - (60 - 15 * n2 + 2 * n4) * e) / \
             (10 * n2 * (6 - n2 - (6 + 6 * nu + 2 * n2) * e))
    return float(d0), float(1.0 - d0 - d2), float(d2)


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

