"""Shared oracles for the test suite.

These deliberately avoid the library's own code paths: direct O(N^2)
summation for the sweeps, adaptive quadrature for the local integrals, and
high-precision evaluation (mpmath) for the coefficient formulas.
"""

import mpmath as mp
import numpy as np
import pytest

from advdiff.quadrature import WENO_EPSILON


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def direct_sweep_left(J, q):
    """O(N^2) oracle for the left recursion: I_i = sum_{j<=i} q^{i-j} J_j."""
    I = np.zeros_like(J)
    for i in range(len(J)):
        acc = 0.0
        for j in range(i + 1):
            acc += q ** (i - j) * J[j]
        I[i] = acc
    return I


def direct_sweep_right(J, q):
    """O(N^2) oracle for the right recursion: I_i = sum_{j>=i} q^{j-i} J_j."""
    I = np.zeros_like(J)
    for i in range(len(J)):
        acc = 0.0
        for j in range(i, len(J)):
            acc += q ** (j - i) * J[j]
        I[i] = acc
    return I


def node_sides(si, live):
    """A smoothness pair stacked in the sweep frame over the rows of the
    slice `live` (`kernelops._d_pair`) as (si_left, si_right) in the node
    frame: the right one reversed, None for a side with no pair."""
    if si is None:
        return None, None
    left = tuple(s[0] for s in si) if live.start == 0 else None
    right = tuple(s[-1, ..., ::-1] for s in si) if live.stop == 2 else None
    return left, right


def node_frame(chain):
    """`kernelops.d_chain_pair`'s stacked sweep-frame result (powers, live,
    si) read back per side in the node frame: (powers_left, powers_right,
    si_left, si_right), the right powers reversed views."""
    powers, live, si = chain
    return [d[0] for d in powers], [d[1, ..., ::-1] for d in powers], *node_sides(si, live)


def exp_cell_integral(func, nu, dps=40):
    """alpha * int over one cell of e^{-alpha(x_i - y)} f(y) dy in normalized
    coordinates: nu * int_0^1 e^{-nu s} f(s) ds, to dps digits."""
    with mp.workdps(dps):
        val = mp.quad(lambda s: nu * mp.e ** (-nu * s) * func(s), [0, 1])
        return float(val)


def window_values(func, orientation="left"):
    """Six window values for the normalized cell: node offset m sits at
    s = -m for the left orientation."""
    if orientation == "left":
        return [func(-m) for m in range(-3, 3)]
    return [func(m) for m in range(-3, 3)]


# Textbook forms of the cell rules and the filter ratio, one expression per
# formula over six window arrays w0..w5 (v_{i-3} .. v_{i+2}).  The library
# takes each stencil sum as one correlation of the padded line, which sums
# left to right from 0.0 as sum() does, and runs the weight tail in place in
# its output rows; the tests require byte-identical results.

def smoothness_indicators(window):
    """(SI0, SI1, SI2): squared third difference, squared second-difference
    combination and squared cell jump; zero on linear data."""
    w0, w1, w2, w3, w4, w5 = window
    jump = (w2 - w3) ** 2
    si0 = (781.0 / 720.0) * (-w0 + 3 * w1 - 3 * w2 + w3) ** 2 \
        + (13.0 / 48.0) * (w0 - 5 * w1 + 7 * w2 - 3 * w3) ** 2 + jump
    si1 = (781.0 / 720.0) * (-w1 + 3 * w2 - 3 * w3 + w4) ** 2 \
        + (13.0 / 48.0) * (w1 - w2 - w3 + w4) ** 2 + jump
    si2 = (781.0 / 720.0) * (-w2 + 3 * w3 - 3 * w4 + w5) ** 2 \
        + (13.0 / 48.0) * (-3 * w2 + 7 * w3 - 5 * w4 + w5) ** 2 + jump
    return si0, si1, si2


def nonlinear_weights(si, d, epsilon=WENO_EPSILON):
    """Normalized nonlinear weights omega_r = (d_r/(eps+SI_r)^2) / sum."""
    raw = [d[r] / (epsilon + si[r]) ** 2 for r in range(3)]
    total = raw[0] + raw[1] + raw[2]
    return raw[0] / total, raw[1] / total, raw[2] / total


def textbook_weno(window, tables):
    """(J, SI0, SI2) of the WENO-5 rule."""
    cs, d = tables.small, tables.weights
    cand = [sum(cs[r][j] * window[r + j] for j in range(4)) for r in range(3)]
    si = smoothness_indicators(window)
    om = nonlinear_weights(si, d)
    return om[0] * cand[0] + om[1] * cand[1] + om[2] * cand[2], si[0], si[2]


def textbook_linear(window, tables):
    c = tables.linear
    return sum(c[j] * window[j] for j in range(6))


def textbook_xi(si0, si2, epsilon=WENO_EPSILON):
    tau = np.abs(si0 - si2)
    si_max = np.maximum(si0, si2)
    si_min = np.minimum(si0, si2)
    return (1.0 + (tau / (si_max + epsilon)) ** 2) / (1.0 + (tau / (si_min + epsilon)) ** 2)
