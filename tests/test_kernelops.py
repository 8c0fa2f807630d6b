import numpy as np
import pytest

from advdiff import (Boundary, KernelParams, build_grid_1d, kernelops,
                     local_integrals, sweep_left)
from advdiff.core import padded, shifted
from advdiff.kernelops import (_d_pair, _d_zero, boundary_coefficients,
                               d_chain_pair, d_chain_zero)
from advdiff.quadrature import LINEAR6, WENO5
from conftest import direct_sweep_left, direct_sweep_right, exp_cell_integral

PER = Boundary.PERIODIC
HOM = Boundary.HOMOGENEOUS


def params_for(alpha, grid):
    return KernelParams.from_alpha(alpha, grid)


def n_nodes(n_cells, bc):
    """Nodes of a field on n_cells cells: the N unique ones of periodic data,
    N+1 otherwise."""
    return n_cells + (bc is HOM)


def convolve(v, p, bc):
    """Unclosed convolutions (I^L, I^R) from the linear-rule sweeps, the right
    one being the left sweep of the reversed data, reversed back; the ghost
    cell of homogeneous data counts as 0."""
    JL, _, _ = local_integrals(v, p, LINEAR6, bc)
    JR, _, _ = local_integrals(v[::-1], p, LINEAR6, bc)
    if bc is HOM:
        JL[0] = JR[0] = 0.0
    return sweep_left(JL, p), sweep_left(JR, p)[::-1]


def apply_D(side, v, p, bc, mode, partner=None):
    """One application of D_side, side "zero", "left" or "right": the first
    power of the family's chain.  A one-sided family runs its opposite chain
    on partner (zero by default)."""
    if side == "zero":
        return d_chain_zero(v, p, bc, 1, mode)[0]
    partner = np.zeros_like(v) if partner is None else partner
    if side == "left":
        return d_chain_pair(v, partner, p, bc, 1, mode)[0][0]
    return d_chain_pair(partner, v, p, bc, 1, mode)[1][0]


def apply_L_inverse(side, v, p, bc, mode, partner=None):
    """L^{-1}[v] = v - D[v]."""
    return v - apply_D(side, v, p, bc, mode, partner)


def test_kernel_params_caches_family_data():
    grid = build_grid_1d(0.0, 2.0, 16)
    p = params_for(3.0, grid)
    assert p.mu == np.exp(-p.nu * 16)
    assert np.allclose(p.e_left, np.exp(-3.0 * grid.nodes), rtol=1e-14)
    assert p.e_left is p.e_left and p.tables is p.tables


def test_sweep_left_small_example():
    # decay factor 0.5 corresponds to nu = ln 2
    p = KernelParams(alpha=np.log(2.0), nu=np.log(2.0), n_cells=3)  # mu = 0.125
    J = np.array([np.nan, 0.5, 0.5, 0.5])
    J[0] = 0.0
    I = sweep_left(J, p)
    assert np.allclose(I, [0.0, 0.5, 0.75, 0.875], rtol=1e-14)


def test_sweep_geometric_series_matches_analytic():
    grid = build_grid_1d(0.0, 2.0, 64)
    p = params_for(3.0, grid)
    J = np.full(65, -np.expm1(-p.nu))  # local integrals of v = 1
    J[0] = 0.0
    I = sweep_left(J, p)
    i = np.arange(65)
    assert np.allclose(I, 1 - np.exp(-i * p.nu), atol=1e-14)
    # the right sweep is the left one mirrored
    Jr = np.full(65, -np.expm1(-p.nu))
    Jr[-1] = 0.0
    Ir = sweep_left(Jr[::-1], p)[::-1]
    assert np.allclose(Ir, 1 - np.exp(-(64 - i) * p.nu), atol=1e-14)


def test_sweep_zero_input():
    grid = build_grid_1d(0, 1, 16)
    p = params_for(1.0, grid)
    assert np.all(sweep_left(np.zeros(17), p) == 0)
    assert np.all(sweep_left(np.zeros(17)[::-1], p)[::-1] == 0)


@pytest.mark.parametrize("nu", [1e-3, 0.05, 0.7, 4.0, 50.0])
def test_sweeps_match_direct_summation(nu, rng):
    n = 257
    grid = build_grid_1d(0.0, 1.0, n)
    p = KernelParams(alpha=nu / grid.dx, nu=nu, n_cells=n)
    J = rng.standard_normal(n + 1)
    q = np.exp(-nu)
    assert np.max(np.abs(sweep_left(J, p) - direct_sweep_left(J, q))) <= 1e-12 * n
    IR = sweep_left(J[::-1], p)[::-1]
    assert np.max(np.abs(IR - direct_sweep_right(J, q))) <= 1e-12 * n


def test_local_integrals_constant():
    grid = build_grid_1d(-1.0, 1.0, 32)
    p = params_for(2.5, grid)
    v = np.ones(32)
    for mode in (WENO5, LINEAR6):
        # every cell of periodic data, the wrap cell J_0 included
        J, _, _ = local_integrals(v, p, mode, PER)
        assert np.allclose(J, -np.expm1(-p.nu), rtol=1e-13)
        # right-oriented: the left rule on the reversed data, reversed back
        Jr = local_integrals(v[::-1], p, mode, PER)[0][::-1]
        assert np.allclose(Jr, -np.expm1(-p.nu), rtol=1e-13)


def test_local_integrals_linear_data_vs_quadrature_oracle():
    grid = build_grid_1d(0.0, 1.0, 50)
    p = params_for(12.0, grid)
    v = 2.0 * grid.nodes - 0.3
    # interior nodes only: near the ends the replicate extension kinks the data
    J, _, _ = local_integrals(v, p, LINEAR6, HOM)
    for i in (5, 20, 47):
        # normalized cell coordinates: value at s is v(x_i - s dx)
        xi = grid.nodes[i]
        exact = exp_cell_integral(lambda s: 2.0 * (xi - float(s) * grid.dx) - 0.3, p.nu)
        assert J[i] == pytest.approx(exact, rel=1e-12)
    Jr = local_integrals(v[::-1], p, LINEAR6, HOM)[0][::-1]
    for i in (5, 20, 30):
        xi = grid.nodes[i]
        exact = exp_cell_integral(lambda s: 2.0 * (xi + float(s) * grid.dx) - 0.3, p.nu)
        assert Jr[i] == pytest.approx(exact, rel=1e-12)


def test_local_integrals_zero():
    grid = build_grid_1d(0, 1, 16)
    p = params_for(1.0, grid)
    J, _, _ = local_integrals(np.zeros(17), p, WENO5, PER)
    assert np.all(J == 0)


def test_constant_convolution_closed_form():
    # each sweep covers the cells from its start on: periodic ones start
    # with the wrap cell, homogeneous ones skip the ghost cell
    grid = build_grid_1d(-2.0, 2.0, 64)
    p = params_for(1.7, grid)
    for bc, start in ((PER, 1), (HOM, 0)):
        IL, IR = convolve(np.ones(n_nodes(64, bc)), p, bc)
        i = np.arange(n_nodes(64, bc))
        assert np.allclose(IL, 1 - np.exp(-(i + start) * p.nu), atol=1e-13)
        assert np.allclose(IR, 1 - np.exp(-(64 - i) * p.nu), atol=1e-13)


def test_boundary_coefficients_periodic_constant():
    # a periodic sweep covers one period, 1 - mu of the constant's
    # convolution; its images add the rest
    grid = build_grid_1d(0.0, 1.0, 40)
    p = params_for(2.0, grid)
    IL, IR = convolve(np.ones(40), p, PER)
    a0, b0 = boundary_coefficients(PER, p.mu, IR[0], IL[-1])
    assert a0 == pytest.approx(1.0, rel=1e-12)
    assert b0 == pytest.approx(1.0, rel=1e-12)


def test_boundary_coefficients_homogeneous_constant():
    grid = build_grid_1d(0.0, 1.0, 40)
    p = params_for(2.0, grid)
    I0 = 0.5 * sum(convolve(np.ones(41), p, HOM))
    a0, b0 = boundary_coefficients(HOM, p.mu, I0[0] - 1.0, I0[-1] - 1.0)
    assert a0 == pytest.approx(0.5, rel=1e-12)
    assert b0 == pytest.approx(0.5, rel=1e-12)


def test_boundary_coefficients_zero_data():
    vals = boundary_coefficients(PER, 0.3, 0.0, 0.0)
    assert vals == (0.0, 0.0)
    with pytest.raises(ValueError):
        boundary_coefficients(PER, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("side", ["zero", "left", "right"])
@pytest.mark.parametrize("bc", [PER, HOM])
def test_L_inverse_fixes_constants(side, bc):
    ones = np.ones(n_nodes(48, bc))
    partner = ones if side != "zero" and bc is HOM else None
    grid = build_grid_1d(-1.0, 3.0, 48)
    p = params_for(2.2, grid)
    w = apply_L_inverse(side, ones, p, bc, LINEAR6, partner=partner)
    assert np.allclose(w, 1.0, atol=1e-12)
    assert np.allclose(apply_L_inverse(side, 0 * ones, p, bc, LINEAR6), 0.0)


@pytest.mark.parametrize("side", ["zero", "left", "right"])
def test_D_annihilates_constants_periodic(side):
    grid = build_grid_1d(0.0, 1.0, 40)
    p = params_for(3.0, grid)
    d = apply_D(side, np.full(40, 2.5), p, PER, WENO5)
    assert np.max(np.abs(d)) < 1e-12


def test_D_zero_fourier_mode():
    # D0 acting on sin(x) with alpha = 2 scales it by (1/4)/(1+1/4) = 0.2
    grid = build_grid_1d(-np.pi, np.pi, 256)
    p = params_for(2.0, grid)
    v = np.sin(grid.nodes[:-1])
    d = apply_D("zero", v, p, PER, LINEAR6)
    assert np.max(np.abs(d - 0.2 * v)) < 1e-8


def test_D_zero_homogeneous_constant():
    grid = build_grid_1d(0.0, 1.0, 40)
    p = params_for(3.0, grid)
    d = apply_D("zero", np.ones(41), p, HOM, WENO5)
    assert np.max(np.abs(d)) < 1e-12


def test_power_chain_constants_and_k1():
    grid = build_grid_1d(0.0, 2.0, 32)
    p = params_for(1.5, grid)
    powers = d_chain_zero(np.full(32, 4.0), p, PER, 3, WENO5)
    for d in powers:
        assert np.max(np.abs(d)) < 1e-11
    v = np.sin(np.pi * grid.nodes[:-1])
    zero = np.zeros_like(v)
    one, _, _, _ = d_chain_pair(v, zero, p, PER, 1, LINEAR6)
    direct, _, _, _ = _d_pair(v, zero, p, PER, LINEAR6)
    assert np.array_equal(one[0], direct)


def test_power_chain_fourier_symbol_powers():
    grid = build_grid_1d(-np.pi, np.pi, 512)
    p = params_for(2.0, grid)
    v = np.sin(grid.nodes[:-1])
    powers = d_chain_zero(v, p, PER, 3, LINEAR6)
    for k, d in enumerate(powers, start=1):
        assert np.max(np.abs(d - 0.2 ** k * v)) < 1e-8


def test_integration_by_parts_identity():
    # for smooth periodic v: D0[v] + (1/alpha^2) L0^{-1}[v_xx] = 0
    grid = build_grid_1d(-np.pi, np.pi, 512)
    x = grid.nodes[:-1]
    v = np.sin(x) + 0.3 * np.cos(2 * x)
    vxx = -np.sin(x) - 1.2 * np.cos(2 * x)
    for alpha in (1.0, 5.0, 20.0):
        p = params_for(alpha, grid)
        d = apply_D("zero", v, p, PER, LINEAR6)
        w = apply_L_inverse("zero", vxx, p, PER, LINEAR6)
        assert np.max(np.abs(d + w / alpha ** 2)) < 1e-9


def test_periodicity_preserved_at_ends(rng):
    # the ends of a periodic line are interior nodes of the line rolled by
    # half a period, and D must not tell them apart
    n = 128
    grid = build_grid_1d(-np.pi, np.pi, n)
    modes = rng.standard_normal(5)
    v = sum(a * np.sin((j + 1) * grid.nodes[:-1]) for j, a in enumerate(modes))
    p = params_for(4.0, grid)
    for side in ("zero", "left", "right"):
        d = apply_D(side, v, p, PER, WENO5)
        interior = np.roll(apply_D(side, np.roll(v, n // 2), p, PER, WENO5), -(n // 2))
        assert d[[0, -1]] == pytest.approx(interior[[0, -1]], abs=1e-12)


def test_homogeneous_closures_vanish_at_ends(rng):
    n = 200
    grid = build_grid_1d(-2.0, 2.0, n)
    v = np.exp(-4 * grid.nodes ** 2)
    w = np.where(np.abs(grid.nodes) < 1, (1 - grid.nodes ** 2) ** 2, 0.0)
    p = params_for(7.0, grid)
    powers = d_chain_zero(v, p, HOM, 3, WENO5)
    for d in powers:
        assert abs(d[0]) < 1e-12 and abs(d[-1]) < 1e-12
    pl, pr, _, _ = d_chain_pair(v, w, p, HOM, 3, WENO5)
    for dl, dr in zip(pl, pr):
        assert abs(dl[0] - dr[0]) < 1e-12
        assert abs(dl[-1] - dr[-1]) < 1e-12


def test_truncation_scaling_first_order():
    # residual of the k=1 partial sum decays like alpha^-2 (symmetric family)
    # and alpha^-1 (one-sided); higher orders are covered by the acceptance suite
    grid = build_grid_1d(-np.pi, np.pi, 1024)
    x = grid.nodes[:-1]
    v = np.sin(x)
    errs0, errsL = [], []
    alphas = (20.0, 40.0, 80.0)
    for alpha in alphas:
        p = params_for(alpha, grid)
        d0 = apply_D("zero", v, p, PER, LINEAR6)
        errs0.append(np.max(np.abs(-v + alpha ** 2 * d0)))
        dl = apply_D("left", v, p, PER, LINEAR6)
        errsL.append(np.max(np.abs(np.cos(x) - alpha * dl)))
    s0 = np.polyfit(np.log(alphas), np.log(errs0), 1)[0]
    sL = np.polyfit(np.log(alphas), np.log(errsL), 1)[0]
    assert s0 == pytest.approx(-2.0, abs=0.1)
    assert sL == pytest.approx(-1.0, abs=0.1)


def test_batched_inputs_match_rowwise(rng):
    grid = build_grid_1d(0.0, 1.0, 48)
    p = params_for(5.0, grid)
    batch = rng.standard_normal((4, 48))
    stacked = apply_D("zero", batch, p, PER, WENO5)
    for row in range(4):
        single = apply_D("zero", batch[row], p, PER, WENO5)
        assert np.array_equal(stacked[row], single)


@pytest.mark.parametrize("bc", [PER, HOM])
def test_L_inverse_property_zero_family(bc, rng):
    # w = L0^{-1}[v] must satisfy w - w''/alpha^2 = v at interior nodes for
    # any closure (the closure terms solve the homogeneous equation exactly);
    # w'' from 4th-order centered differences
    n = 512
    grid = build_grid_1d(-np.pi, np.pi, n)
    alpha = 4.0
    p = params_for(alpha, grid)
    x = grid.nodes[:n_nodes(n, bc)]
    v = np.exp(-2 * x ** 2) * (1 + 0.3 * np.sin(3 * x))
    w = apply_L_inverse("zero", v, p, bc, LINEAR6)
    dx = grid.dx
    wxx = (-w[:-4] + 16 * w[1:-3] - 30 * w[2:-2] + 16 * w[3:-1] - w[4:]) / (12 * dx ** 2)
    residual = w[2:-2] - wxx / alpha ** 2 - v[2:-2]
    assert np.max(np.abs(residual)) < 1e-6


@pytest.mark.parametrize("side", ["left", "right"])
def test_L_inverse_property_one_sided(side, rng):
    # L_L w = w + w'/alpha = v (and the mirrored relation for the right family)
    n = 512
    grid = build_grid_1d(-np.pi, np.pi, n)
    alpha = 4.0
    p = params_for(alpha, grid)
    x = grid.nodes[:-1]
    v = np.sin(x) + 0.4 * np.cos(2 * x)
    w = apply_L_inverse(side, v, p, PER, LINEAR6)
    dx = grid.dx
    wx = (w[:-4] - 8 * w[1:-3] + 8 * w[3:-1] - w[4:]) / (12 * dx)
    sign = 1.0 if side == "left" else -1.0
    residual = w[2:-2] + sign * wx / alpha - v[2:-2]
    assert np.max(np.abs(residual)) < 1e-6


def _wrap(bc, n):
    """Index rule past the ends of n nodes: wrapped by np.mod (period n) or
    clamped by np.clip."""
    return (lambda idx: np.mod(idx, n)) if bc is PER else (lambda idx: np.clip(idx, 0, n - 1))


def fancy_index_padded(v, bc, lo, hi):
    """Reference gather of the padded line: v[..., idx], idx = lo..n-1+hi."""
    n = v.shape[-1]
    return v[..., _wrap(bc, n)(np.arange(lo, n + hi))]


def fancy_index_shifts(v, bc, lo, hi):
    """Reference gather: w_m = v[..., idx + m], m = lo..hi."""
    n = v.shape[-1]
    base = np.arange(n)
    return [v[..., _wrap(bc, n)(base + m)] for m in range(lo, hi + 1)]


@pytest.mark.parametrize("shape", [(7,), (42,), (7, 34)])
@pytest.mark.parametrize("bc", [PER, HOM])
@pytest.mark.parametrize("mode", [WENO5, LINEAR6])
@pytest.mark.parametrize("swap", [False, True], ids=["v_w", "w_v"])
def test_padded_windows_match_fancy_index_gather(swap, mode, bc, shape, rng, monkeypatch):
    v, w = rng.standard_normal((2, *shape))
    # the quadrature windows, then the filter's neighbours of sigma_L and sigma_R
    for lo, hi in ((-3, 2), (0, 1), (-1, 0)):
        assert padded(v, bc, lo, hi).tobytes() == fancy_index_padded(v, bc, lo, hi).tobytes()
        got, ref = shifted(v, bc, lo, hi), fancy_index_shifts(v, bc, lo, hi)
        assert len(got) == len(ref) == hi - lo + 1
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref))
    # both orientations of the primitive and both smoothness pairs, through
    # both gathers; swapping the data gives each array to each orientation
    p = params_for(3.0, build_grid_1d(0.0, 1.0, shape[-1] - (bc is HOM)))
    data = (w, v) if swap else (v, w)
    got = _d_pair(*data, p, bc, mode)
    monkeypatch.setattr(kernelops, "padded", fancy_index_padded)
    ref = _d_pair(*data, p, bc, mode)
    assert (got[2] is None) == (ref[2] is None) == (mode == LINEAR6)
    flat = lambda out: [out[0], out[1], *(out[2] or ()), *(out[3] or ())]
    assert len(flat(got)) == len(flat(ref))
    for a, b in zip(flat(got), flat(ref)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mode", [WENO5, LINEAR6])
def test_periodic_left_output_is_independent_of_the_right_input(mode, rng):
    # periodic closures are independent: D_L[vl] and its smoothness pair do
    # not read vr
    grid = build_grid_1d(0.0, 1.0, 40)
    p = params_for(4.0, grid)
    vl, vr, other = rng.standard_normal((3, 3, 40))
    dl, _, si_l, _ = _d_pair(vl, vr, p, PER, mode)
    ol, _, osi_l, _ = _d_pair(vl, other, p, PER, mode)
    assert dl.tobytes() == ol.tobytes()
    if mode == WENO5:
        assert all(a.tobytes() == b.tobytes() for a, b in zip(si_l, osi_l))
    else:
        assert si_l is None and osi_l is None


@pytest.mark.parametrize("shape", [(41,), (5, 41)])
@pytest.mark.parametrize("bc", [PER, HOM])
@pytest.mark.parametrize("mode", [WENO5, LINEAR6])
def test_primitives_leave_their_inputs_unchanged(mode, bc, shape, rng):
    # the kernels work in place in arrays they made, never in their inputs
    p = params_for(3.0, build_grid_1d(0.0, 1.0, shape[-1] - (bc is HOM)))
    vl, vr = rng.standard_normal((2, *shape))
    keep = vl.tobytes(), vr.tobytes()
    unchanged = lambda: (vl.tobytes(), vr.tobytes()) == keep
    _d_pair(vl, vr, p, bc, mode)
    assert unchanged()
    _d_pair(vl, vl, p, bc, mode)
    assert unchanged()
    _d_zero(vr, p, bc, mode)
    assert unchanged()
    local_integrals(vl, p, mode, bc)
    local_integrals(vr[..., ::-1], p, mode, bc)
    assert unchanged()
