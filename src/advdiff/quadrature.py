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
small nu; branch points are chosen so both sides agree to ~1e-13.

Right-oriented integrals (weight e^{-alpha (y - x_i)} over [x_i, x_{i+1}])
are evaluated by applying the left rule to the reversed window.
"""

from __future__ import annotations

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

# Taylor coefficients (in nu) of the substencil coefficient functions,
# rows per substencil r = 0, 1, 2, one tuple per stencil offset.
_C_SERIES = (
    (  # substencil 0: offsets -3, -2, -1, 0
        (0.0, 0.041666666666666664, -0.019444444444444445, 0.005555555555555556,
         -0.0011904761904761906, 0.00020667989417989417, -3.031305114638448e-05,
         3.858024691358025e-06, -4.342365453476565e-07, 4.384118967452301e-08),
        (0.0, -0.20833333333333334, 0.1, -0.029166666666666667,
         0.006349206349206349, -0.0011160714285714285, 0.00016534391534391533,
         -2.1219135802469135e-05, 2.405002405002405e-06, -2.442580567580568e-07),
        (0.0, 0.7916666666666666, -0.475, 0.16666666666666666,
         -0.04246031746031746, 0.00855654761904762, -0.0014302248677248678,
         0.0002044753086419753, -2.5553150553150554e-05, 2.8371512746512745e-06),
        (0.0, 0.375, -0.10555555555555556, 0.02361111111111111,
         -0.004365079365079365, 0.0006861772486772487, -9.369488536155203e-05,
         1.1298500881834214e-05, -1.219202608091497e-06, 1.1899751483084816e-07),
    ),
    (  # substencil 1: offsets -2, -1, 0, 1
        (0.0, -0.041666666666666664, 0.022222222222222223, -0.006944444444444444,
         0.0015873015873015873, -0.00028935185185185184, 4.409171075837743e-05,
         -5.787037037037037e-06, 6.680562236117792e-07, -6.889329805996472e-08),
        (0.0, 0.5416666666666666, -0.35833333333333334, 0.13333333333333333,
         -0.03531746031746032, 0.007316468253968254, -0.0012483465608465608,
         0.00018132716049382717, -2.2947731281064616e-05, 2.5741041366041367e-06),
        (0.0, 0.5416666666666666, -0.18333333333333332, 0.04583333333333333,
         -0.009126984126984128, 0.0015128968253968254, -0.00021494708994708995,
         2.6730599647266314e-05, -2.956148789482123e-06, 2.943622735289402e-07),
        (0.0, -0.041666666666666664, 0.019444444444444445, -0.005555555555555556,
         0.0011904761904761906, -0.00020667989417989417, 3.031305114638448e-05,
         -3.858024691358025e-06, 4.342365453476565e-07, -4.384118967452301e-08),
    ),
    (  # substencil 2: offsets -1, 0, 1, 2
        (0.0, 0.375, -0.26944444444444443, 0.10555555555555556,
         -0.02896825396825397, 0.006159060846560847, -0.0010719797178130512,
         0.00015817901234567902, -2.0275506386617498e-05, 2.2985309443642776e-06),
        (0.0, 0.7916666666666666, -0.31666666666666665, 0.0875,
         -0.01865079365079365, 0.0032490079365079367, -0.0004794973544973545,
         6.145282186948854e-05, -6.964486131152798e-06, 7.077220618887286e-07),
        (0.0, -0.20833333333333334, 0.10833333333333334, -0.03333333333333333,
         0.00753968253968254, -0.0013640873015873015, 0.00020667989417989417,
         -2.7006172839506174e-05, 3.106461439794773e-06, -3.194143819143819e-07),
        (0.0, 0.041666666666666664, -0.022222222222222223, 0.006944444444444444,
         -0.0015873015873015873, 0.00028935185185185184, -4.409171075837743e-05,
         5.787037037037037e-06, -6.680562236117792e-07, 6.889329805996472e-08),
    ),
)

_D0_SERIES = (
    0.18333333333333332, -0.009682539682539683, 0.0002037037037037037,
    6.331569664902998e-05, -3.093138489963887e-06, -6.297339736493175e-07,
    4.5791288207513955e-08, 6.5925288407861686e-09, -6.499934324183366e-10,
    -6.803572320961718e-11, 8.884116547311423e-12, 6.731832782774334e-13,
    -1.1760574017924747e-13, -6.20500780840164e-15, 1.5147288108349163e-15,
)


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

