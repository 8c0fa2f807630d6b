"""Property tests of the kernel layer.

Mirroring the data swaps the one-sided families and maps the symmetric chain
onto its mirror, negating the data negates both chains, and the periodic D_0
is the mean of the linear-rule D_L and D_R, all bit for bit; rolling
periodic data, held on its N unique nodes, commutes with both chains.  They
guard the boundary closures and the derivation of D_0 from the pair: a
closure whose end values are swapped, or whose coupled coefficient has the
wrong sign, breaks the mirror symmetry or the homogeneous end condition.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from advdiff import Boundary
from advdiff.kernelops import KernelParams, d_chain_pair, d_chain_zero
from advdiff.quadrature import LINEAR6, WENO5
from conftest import node_frame

PER = Boundary.PERIODIC
HOM = Boundary.HOMOGENEOUS

# few examples, drawn the same way on every run
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@st.composite
def kernel_cases(draw, bcs=(PER, HOM)):
    """A kernel family on [0, 1], a boundary type, the pair chain's
    first-pass rule, an order k and two data arrays, possibly batched: N
    nodes of periodic data, N+1 of other data."""
    n = draw(st.integers(6, 48))
    nu = draw(st.floats(0.05, 5.0))
    bc = draw(st.sampled_from(bcs))
    mode = draw(st.sampled_from([WENO5, LINEAR6]))
    k = draw(st.integers(1, 3))
    batch = draw(st.sampled_from([(), (1,), (3,)]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    v, w = scale * rng.standard_normal((2, *batch, n + (bc is HOM)))
    return KernelParams(alpha=nu * n, nu=nu, n_cells=n), bc, mode, k, v, w


def bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def bound(*data):
    return 1e-13 * max(1.0, *(float(np.max(np.abs(d))) for d in data))


@PROPERTY
@given(kernel_cases())
def test_pair_chain_mirrors_bitwise(case):
    p, bc, mode, k, v, w = case
    pl, pr, si_l, si_r = node_frame(d_chain_pair(v, w, p, bc, k, mode))
    ml, mr, msi_l, msi_r = node_frame(d_chain_pair(w[..., ::-1], v[..., ::-1], p, bc, k, mode))
    for got, ref in zip(ml, pr):
        assert bitwise_equal(got, ref[..., ::-1])
    for got, ref in zip(mr, pl):
        assert bitwise_equal(got, ref[..., ::-1])
    if mode == WENO5:
        for got, ref in zip(msi_l + msi_r, si_r + si_l):
            assert bitwise_equal(got, ref[..., ::-1])
    if bc is HOM:
        # the coupled closure: D_L[v] - D_R[w] vanishes at both ends
        tol = bound(v, w)
        for dl, dr in zip(pl, pr):
            assert np.max(np.abs(dl[..., 0] - dr[..., 0])) <= tol
            assert np.max(np.abs(dl[..., -1] - dr[..., -1])) <= tol


@PROPERTY
@given(kernel_cases())
def test_zero_chain_mirrors(case):
    p, bc, _, k, v, _ = case
    got = d_chain_zero(v[..., ::-1], p, bc, k)
    ref = d_chain_zero(v, p, bc, k)
    for a, b in zip(got, ref):
        assert bitwise_equal(a, b[..., ::-1])


@PROPERTY
@given(kernel_cases())
def test_chains_are_odd_bitwise(case):
    p, bc, mode, k, v, w = case
    pl, pr, si_l, si_r = node_frame(d_chain_pair(v, w, p, bc, k, mode))
    nl, nr, nsi_l, nsi_r = node_frame(d_chain_pair(-v, -w, p, bc, k, mode))
    zero, nzero = d_chain_zero(v, p, bc, k), d_chain_zero(-v, p, bc, k)
    # equal values; a closure's exact zero may come out as either signed zero
    for got, ref in zip(nl + nr + nzero, pl + pr + zero):
        assert np.array_equal(got, -ref)
    if mode == WENO5:
        # the smoothness indicators are even in the data
        for got, ref in zip(nsi_l + nsi_r, si_l + si_r):
            assert bitwise_equal(got, ref)


@PROPERTY
@given(kernel_cases(bcs=(PER,)))
def test_periodic_zero_is_the_pair_mean_bitwise(case):
    # D_0 runs on the linear rule, so it is the mean of the linear pair
    p, bc, _, _, v, _ = case
    (dl,), (dr,), _, _ = node_frame(d_chain_pair(v, v, p, bc, 1, LINEAR6))
    (d0,) = d_chain_zero(v, p, bc, 1)
    assert bitwise_equal(d0, 0.5 * (dl + dr))


@PROPERTY
@given(kernel_cases(bcs=(PER,)), st.integers(1, 47))
def test_periodic_roll_commutes_with_chains(case, shift):
    p, bc, mode, k, v, w = case
    roll = lambda a: np.roll(a, shift, axis=-1)
    pl, pr, _, _ = node_frame(d_chain_pair(v, w, p, bc, k, mode))
    rl, rr, _, _ = node_frame(d_chain_pair(roll(v), roll(w), p, bc, k, mode))
    zero = d_chain_zero(v, p, bc, k)
    rzero = d_chain_zero(roll(v), p, bc, k)
    for ref, got in zip(pl + pr + zero, rl + rr + rzero):
        assert np.max(np.abs(roll(ref) - got)) <= bound(v, w)
