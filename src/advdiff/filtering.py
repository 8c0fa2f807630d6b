"""Oscillation filter for the high-order convection terms.

From the smoothness pair (SI0, SI2) of a WENO pass, tau = |SI0 - SI2| is a
seventh-order quantity on smooth data but O(SI) at a jump, so

    xi = (1 + tau^2/(SImax + eps)^2) / (1 + tau^2/(SImin + eps)^2)

is 1 + O(dx^6) in smooth regions and small near discontinuities.  Per-node
damping factors sigma are pairwise minima of neighboring xi; the convection
partial sums scale their p-th term by sigma^(p-1) (diffusion terms are left
alone).
"""

from __future__ import annotations

import numpy as np

from .core import Boundary, shifted
from .quadrature import WENO_EPSILON


def xi(si0, si2, epsilon: float = WENO_EPSILON):
    """Smoothness ratio in (0, 1]; equals 1 when SI0 == SI2.

    Evaluated in three work arrays, rounding each term as
    (1 + (tau/(SImax + eps))^2) / (1 + (tau/(SImin + eps))^2) does.
    """
    shape = np.broadcast_shapes(np.shape(si0), np.shape(si2))
    tau, hi, lo = np.empty(shape), np.empty(shape), np.empty(shape)
    np.abs(np.subtract(si0, si2, out=tau), out=tau)
    for out, pick in ((hi, np.maximum), (lo, np.minimum)):
        pick(si0, si2, out=out)
        out += epsilon
        np.divide(tau, out, out=out)
        np.square(out, out=out)
        out += 1.0
    return np.divide(hi, lo, out=hi)


def sigma_fields(xi_left: np.ndarray, xi_right: np.ndarray, bc: Boundary):
    """Damping factors: sigma_L,i = min(xi_i, xi_{i+1}) from the left-pass xi,
    sigma_R,i = min(xi_{i-1}, xi_i) from the right-pass xi, with neighbours
    past the ends read as the quadrature windows read them (core.shifted):
    wrapped around periodic data, the end values of other data."""
    return np.minimum(*shifted(xi_left, bc, 0, 1)), np.minimum(*shifted(xi_right, bc, -1, 0))
