import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from advdiff import Boundary, build_grid_1d, kernelops
from advdiff.core import padded, shifted
from advdiff.filtering import xi
from advdiff.kernelops import (KernelParams, _d_pair, _d_zero, boundary_coefficients,
                               d_chain_pair, d_chain_zero, local_integrals, sweep_left)
from advdiff.quadrature import LINEAR6, WENO5
from conftest import (direct_sweep_left, direct_sweep_right, exp_cell_integral, node_frame,
                      node_sides)

PER = Boundary.PERIODIC
HOM = Boundary.HOMOGENEOUS
BOTH = slice(0, 2)


def pair(vl, vr, p, bc, mode, live=BOTH):
    """The stacked primitive on [vl, vr reversed], both rows live unless
    told otherwise, read back in natural order: (D_L[vl], D_R[vr], si_left,
    si_right)."""
    d, si = _d_pair(np.stack((vl, vr[..., ::-1])), live, p, bc, mode)
    return d[0], d[1, ..., ::-1], *node_sides(si, live)


def params_for(alpha, grid):
    return KernelParams.from_alpha(alpha, grid)


def n_nodes(n_cells, bc):
    """Nodes of a field on n_cells cells: the N unique ones of periodic data,
    N+1 otherwise."""
    return n_cells + (bc is HOM)


def convolve(v, p, bc):
    """Unclosed convolutions (I^L, I^R) from the linear-rule sweeps, the right
    one being the left sweep of the reversed data, reversed back."""
    JL, _, _ = local_integrals(v, p, LINEAR6, bc)
    JR, _, _ = local_integrals(v[::-1], p, LINEAR6, bc)
    return sweep_left(JL, p), sweep_left(JR, p)[::-1]


def apply_D(side, v, p, bc, mode, partner=None):
    """One application of D_side, side "zero", "left" or "right": the first
    power of the family's chain.  A one-sided family runs its opposite chain
    on partner (zero by default) with first-pass rule mode; D_0 has the
    linear rule only."""
    if side == "zero":
        return d_chain_zero(v, p, bc, 1)[0]
    partner = np.zeros_like(v) if partner is None else partner
    if side == "left":
        return node_frame(d_chain_pair(v, partner, p, bc, 1, mode))[0][0]
    return node_frame(d_chain_pair(partner, v, p, bc, 1, mode))[1][0]


def apply_L_inverse(side, v, p, bc, mode, partner=None):
    """L^{-1}[v] = v - D[v]."""
    return v - apply_D(side, v, p, bc, mode, partner)


def test_kernel_params_caches_family_data():
    grid = build_grid_1d(0.0, 2.0, 16)
    p = params_for(3.0, grid)
    assert p.mu == np.exp(-p.nu * 16)
    assert p.pole == np.exp(-p.nu) and type(p.pole) is float
    assert np.allclose(p.e_left, np.exp(-3.0 * grid.nodes), rtol=1e-14)
    assert p.e_left is p.e_left and p.tables is p.tables and p.pole is p.pole
    # the sweep's band: -pole over a unit diagonal, in LAPACK's Fortran layout
    assert p.band is p.band and p.band.flags.f_contiguous and p.band.shape == (2, 17)
    assert np.all(p.band[0] == -p.pole) and np.all(p.band[1] == 1.0)


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


def plain_recurrence(J, q):
    """I_i = q I_{i-1} + J_i from I_{-1} = 0.0, one float64 operation at a
    time along the last axis."""
    I = np.empty(J.shape)
    for idx in np.ndindex(J.shape[:-1]):
        acc = np.float64(0.0)
        for i, j in enumerate(J[idx]):
            acc = q * acc + j
            I[idx + (i,)] = acc
    return I


@pytest.mark.blas_kernel
@pytest.mark.parametrize("nu", [1e-3, 0.7, 50.0])
def test_sweep_left_is_the_plain_recurrence_bitwise(nu, rng):
    # the stacked pair runs both orientations through one sweep, which is
    # bit for bit the recurrence on each line alone
    p = KernelParams(alpha=nu, nu=nu, n_cells=64)
    q = np.exp(-nu)
    J = rng.standard_normal((3, 65))
    J[:, ::7] = -0.0
    J[1, :30] = 0.0
    line = sweep_left(J[0], p)
    assert line.tobytes() == plain_recurrence(J[0], q).tobytes()
    batch = sweep_left(J, p)
    assert batch.tobytes() == plain_recurrence(J, q).tobytes()
    for row in range(3):
        assert batch[row].tobytes() == sweep_left(J[row], p).tobytes()
    # a reversed view, as the right side enters the batch
    assert sweep_left(J[:, ::-1], p).tobytes() == plain_recurrence(J[:, ::-1], q).tobytes()


@pytest.mark.blas_kernel
def test_sweep_left_is_the_plain_recurrence_bitwise_through_underflow(rng):
    # where q I_{i-1} underflows to a signed zero, the solve's J_i - dot(-q,
    # I_{i-1}) still equals J_i + q I_{i-1} on J + 0.0, as the docstring says
    p = KernelParams(alpha=300.0, nu=300.0, n_cells=400)
    J = rng.standard_normal((2, 401)) * 1e-300
    J[:, ::7] = -0.0
    assert sweep_left(J, p).tobytes() == plain_recurrence(J + 0.0, p.pole).tobytes()


def test_sweep_left_rejects_a_line_longer_than_the_band():
    # the band has n_cells + 1 columns; the solve would leave a longer line's
    # tail as it was (1.0 here, against 2.41..2.49 from the recurrence)
    p = KernelParams(alpha=0.3, nu=0.3, n_cells=4)
    assert sweep_left(np.ones(5), p)[-1] == plain_recurrence(np.ones(5), p.pole)[-1]
    assert sweep_left(np.ones((3, 4)), p).shape == (3, 4)  # periodic lines are shorter
    with pytest.raises(ValueError, match="longer"):
        sweep_left(np.ones(8), p)
    with pytest.raises(ValueError, match="longer"):
        sweep_left(np.ones((2, 6)), p)


def test_sweep_left_raises_when_the_solve_fails(monkeypatch):
    p = KernelParams(alpha=0.3, nu=0.3, n_cells=4)
    monkeypatch.setattr(kernelops.lapack, "dtbtrs", lambda ab, b, **kw: (b, -2))
    with pytest.raises(ValueError, match="info = -2"):
        sweep_left(np.ones(5), p)


_EMPTY_BATCHES = textwrap.dedent("""
    import gc
    import numpy as np
    from advdiff.kernelops import KernelParams, sweep_left
    p = KernelParams(alpha=0.3, nu=0.3, n_cells=40)
    for shape in ((0, 41), (2, 0, 41), (3, 0)):
        for _ in range(200):
            assert sweep_left(np.ones(shape), p).shape == shape
    gc.collect()
    print("ok")
""")


@pytest.mark.blas_kernel
def test_sweep_left_on_an_empty_batch_leaves_the_heap_intact():
    # LAPACK's dtbtrs writes past a right-hand side of zero columns, and a
    # few hundred such calls end the interpreter; an empty batch returns an
    # empty array of its shape without calling it
    src = str(Path(kernelops.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _EMPTY_BATCHES],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stdout.split()) == (0, ["ok"]), out.stderr[-2000:]


_IMPORTS = textwrap.dedent("""
    import sys
    from advdiff import make_problem, solve_case
    for name, n in (("linear_advdiff", 40), ("strong_degenerate_2d", 16)):
        case = make_problem(name)
        solve_case(case, case.make_config(order=3), n=n, T=0.01)
    print(" ".join(m for m in ("scipy.signal", "scipy.stats") if m in sys.modules))
""")


def test_a_solve_does_not_import_scipy_signal_or_stats():
    # importing scipy.signal (which pulls in scipy.stats) would cost more than
    # the rest of `import advdiff`; checked after a 1D and a 2D solve, so an
    # import deferred to the first solve shows too
    src = str(Path(kernelops.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _IMPORTS], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == []


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
        # homogeneous data: J_0 is a ghost cell outside the domain
        J, _, _ = local_integrals(np.ones(33), p, mode, HOM)
        assert J[0] == 0.0 and np.allclose(J[1:], -np.expm1(-p.nu), rtol=1e-13)


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
    # convolution; its images add the rest, each row from its own far end
    grid = build_grid_1d(0.0, 1.0, 40)
    p = params_for(2.0, grid)
    ones = np.ones(40)
    IL, IR = convolve(ones, p, PER)
    coef, profile = boundary_coefficients(PER, p, np.stack((ones, ones)),
                                          np.stack((IL, IR[::-1])))
    assert coef.shape == (2,)
    assert coef[0] == pytest.approx(1.0, rel=1e-12)
    assert coef[1] == pytest.approx(1.0, rel=1e-12)
    assert np.array_equal(profile, p.e_left[1:])
    # either row closes on its own
    alone, _ = boundary_coefficients(PER, p, ones[None], IR[None, ::-1])
    assert alone.tobytes() == coef[1:].tobytes()


def test_boundary_coefficients_homogeneous_constant():
    # D_0 = (D_L[v] - D_R[-v])/2 closes L_0^{-1}[1] with 0.5 at each end,
    # so the pair (1, -1) takes A_L = 1 and B_R = -1
    grid = build_grid_1d(0.0, 1.0, 40)
    p = params_for(2.0, grid)
    ones = np.ones(41)
    IL, IR = convolve(ones, p, HOM)
    coef, profile = boundary_coefficients(HOM, p, np.stack((ones, -ones)),
                                          np.stack((IL, -IR[::-1])))
    assert coef.shape == (2,)
    assert coef[0] == pytest.approx(1.0, rel=1e-12)
    assert coef[1] == pytest.approx(-1.0, rel=1e-12)
    assert np.array_equal(profile, p.e_left)


def test_boundary_coefficients_zero_data():
    p = KernelParams(alpha=1.0, nu=-np.log(0.3) / 40, n_cells=40)  # mu = 0.3
    flat = KernelParams(alpha=1.0, nu=0.0, n_cells=40)  # mu = 1
    for bc in (PER, HOM):
        zero = np.zeros((2, n_nodes(40, bc)))
        assert boundary_coefficients(bc, p, zero, zero)[0].tolist() == [0.0, 0.0]
        with pytest.raises(ValueError, match="0 <= mu < 1"):
            boundary_coefficients(bc, flat, zero, zero)


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


@pytest.mark.parametrize("side", ["left", "right"])
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


def test_power_chain_constants_and_k1():
    grid = build_grid_1d(0.0, 2.0, 32)
    p = params_for(1.5, grid)
    powers = d_chain_zero(np.full(32, 4.0), p, PER, 3)
    for d in powers:
        assert np.max(np.abs(d)) < 1e-11
    v = np.sin(np.pi * grid.nodes[:-1])
    zero = np.zeros_like(v)
    one, _, _, _ = node_frame(d_chain_pair(v, zero, p, PER, 1, LINEAR6))
    direct, _, _, _ = pair(v, zero, p, PER, LINEAR6)
    assert np.array_equal(one[0], direct)


def test_power_chain_fourier_symbol_powers():
    grid = build_grid_1d(-np.pi, np.pi, 512)
    p = params_for(2.0, grid)
    v = np.sin(grid.nodes[:-1])
    powers = d_chain_zero(v, p, PER, 3)
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
    powers = d_chain_zero(v, p, HOM, 3)
    for d in powers:
        assert abs(d[0]) < 1e-12 and abs(d[-1]) < 1e-12
    pl, pr, _, _ = node_frame(d_chain_pair(v, w, p, HOM, 3, WENO5))
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


@pytest.mark.blas_kernel
@pytest.mark.parametrize("bc", [PER, HOM])
@pytest.mark.parametrize("mode", [WENO5, LINEAR6])
def test_batched_inputs_match_rowwise(mode, bc, rng):
    # a batch row keeps the bytes of the same line alone, -0.0 included
    p = params_for(5.0, build_grid_1d(0.0, 1.0, 48))
    batch, other = rng.standard_normal((2, 4, n_nodes(48, bc)))
    batch[1, ::5] = -0.0
    stacked = apply_D("zero", batch, p, bc, mode)
    both = pair(batch, other, p, bc, mode)
    for row in range(4):
        single = apply_D("zero", batch[row], p, bc, mode)
        assert stacked[row].tobytes() == single.tobytes()
        alone = pair(batch[row], other[row], p, bc, mode)
        assert both[0][row].tobytes() == alone[0].tobytes()
        assert both[1][row].tobytes() == alone[1].tobytes()
        for got, want in zip(both[2:], alone[2:]):
            if mode == LINEAR6:
                assert got is None and want is None
            else:
                assert [s[row].tobytes() for s in got] == [s.tobytes() for s in want]


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


@pytest.mark.blas_kernel
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
    got = pair(*data, p, bc, mode)
    monkeypatch.setattr(kernelops, "padded", fancy_index_padded)
    ref = pair(*data, p, bc, mode)
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
    dl, _, si_l, _ = pair(vl, vr, p, PER, mode)
    ol, _, osi_l, _ = pair(vl, other, p, PER, mode)
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
    w = np.stack((vl, np.zeros(shape)))
    keep = vl.tobytes(), vr.tobytes(), w.tobytes()
    unchanged = lambda: (vl.tobytes(), vr.tobytes(), w.tobytes()) == keep
    # a one-row slice is a dead periodic row's; homogeneous pairs run both
    for live in (BOTH, slice(0, 1)) if bc is PER else (BOTH,):
        _d_pair(w, live, p, bc, mode)
        assert unchanged()
    d_chain_pair(vl, vr, p, bc, 3, mode)
    assert unchanged()
    d_chain_pair(vl, vl, p, bc, 3, mode)
    assert unchanged()
    d_chain_zero(vr, p, bc, 3)
    _d_zero(vr, p, bc)
    assert unchanged()
    local_integrals(vl, p, mode, bc)
    local_integrals(vr[..., ::-1], p, mode, bc)
    assert unchanged()


@pytest.mark.parametrize("shape", [(41,), (5, 41)])
@pytest.mark.parametrize("bc", [PER, HOM])
def test_zero_chain_powers_own_their_memory(bc, shape, rng):
    # a kept power is not a view of the pair's stacked (2, ..., n) sweep
    # output, which would hold the mirrored half alive with it
    p = params_for(3.0, build_grid_1d(0.0, 1.0, shape[-1] - (bc is HOM)))
    v = rng.standard_normal(shape)
    for d in d_chain_zero(v, p, bc, 3) + [_d_zero(v, p, bc)]:
        assert d.shape == shape
        assert d.base is None or d.base.nbytes == d.nbytes


def reference_pair(vl, vr, p, bc, mode):
    """One power of the pair with no zero-side shortcut and no stacking: each
    side runs through its own quadrature and sweep, then the closure, written
    out here and rounding each sum as `_d_pair` does; in natural order."""
    JL, *si_l = local_integrals(vl, p, mode, bc)
    JR, *si_r = local_integrals(vr[..., ::-1], p, mode, bc)
    IL = sweep_left(JL, p)
    IR = sweep_left(JR, p)[..., ::-1]
    if bc is PER:
        # circulant: the images of the earlier periods
        a_l, b_r = IL[..., -1] / (1.0 - p.mu), IR[..., 0] / (1.0 - p.mu)
        profile = p.e_left[1:]
    else:
        # D_L[vl] - D_R[vr] = 0 at both ends, solved for (A_L, -B_R)
        e_a = (vr[..., 0] - vl[..., 0]) - IR[..., 0]
        e_b = (vr[..., -1] - vl[..., -1]) + IL[..., -1]
        one = 1.0 - p.mu ** 2
        a_l, b_r = (p.mu * e_b - e_a) / one, -((p.mu * e_a - e_b) / one)
        profile = p.e_left
    dl = vl - (IL + np.asarray(a_l)[..., None] * profile)
    dr = vr - (IR + np.asarray(b_r)[..., None] * profile[::-1])
    if si_l[0] is None:
        return dl, dr, None, None
    return dl, dr, tuple(si_l), tuple(s[..., ::-1] for s in si_r)


@pytest.mark.parametrize("bc, left, right, rows", [
    (PER, True, True, BOTH), (PER, True, False, slice(0, 1)),
    (PER, False, True, slice(1, 2)), (PER, False, False, BOTH),
    (HOM, True, True, BOTH), (HOM, True, False, BOTH),
    (HOM, False, True, BOTH), (HOM, False, False, BOTH)])
def test_liveness_skips_a_row_only_where_one_periodic_side_is_zero(bc, left, right, rows, rng):
    # one slice for every power, never empty: a row is dead only on periodic
    # data where its side alone is exactly zero, -0.0 entries included
    zero = np.zeros((3, 41))
    zero[:, ::2] = -0.0
    vl = rng.standard_normal((3, 41)) if left else zero
    vr = rng.standard_normal((3, 41)) if right else zero
    live = kernelops._liveness(vl, vr, bc)
    assert live == rows and live.start < live.stop


@pytest.mark.blas_kernel
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("shape", [(41,), (3, 41), (201, 201)])
@pytest.mark.parametrize("bc", [PER, HOM])
@pytest.mark.parametrize("mode", [WENO5, LINEAR6])
@pytest.mark.parametrize("zero_side", ["none", "left", "right", "both"])
def test_zero_side_shortcut_changes_no_bit(zero_side, mode, bc, shape, k, rng, monkeypatch):
    # the live rows run as one stacked batch at every power; on periodic data
    # an exactly zero side, -0.0 entries included, skips its quadrature and
    # sweep when the other side is not zero, and every other pair runs both
    # rows; every power of both chains and the smoothness pairs keep the
    # bytes of reference_pair iterated, each side run alone
    p = params_for(5.0, build_grid_1d(0.0, 1.0, shape[-1] - (bc is HOM)))
    zero = np.zeros(shape)
    zero[..., ::3] = -0.0
    dead = (zero_side in ("left", "both"), zero_side in ("right", "both"))
    skip = bc is PER and dead[0] != dead[1]
    vl = zero if dead[0] else rng.standard_normal(shape)
    vr = zero.copy() if dead[1] else rng.standard_normal(shape)
    quadratures, sweeps = [], []
    monkeypatch.setattr(kernelops, "local_integrals",
                        lambda *a: quadratures.append(a[0].shape) or local_integrals(*a))
    monkeypatch.setattr(kernelops, "sweep_left",
                        lambda *a: sweeps.append(a[0].shape) or sweep_left(*a))

    got_l, got_r, *got_si = node_frame(d_chain_pair(vl, vr, p, bc, k, mode))
    assert quadratures == sweeps == [(1 if skip else 2, *shape)] * k
    dl, dr, *want_si = reference_pair(vl, vr, p, bc, mode)
    for power in range(k):
        if power:
            dl, dr, _, _ = reference_pair(dl, dr, p, bc, LINEAR6)
        assert got_l[power].tobytes() == dl.tobytes()
        assert got_r[power].tobytes() == dr.tobytes()
    for got, want, side_dead in zip(got_si, want_si, dead):
        if mode == LINEAR6:
            assert got is None and want is None
            continue
        if side_dead:
            # the pair it has or would have is +0.0, where xi is exactly 1
            assert all(np.all(s == 0.0) for s in want)
            assert np.all(xi(*want) == 1.0)
        if side_dead and skip:
            assert got is None
        else:
            assert [s.tobytes() for s in got] == [s.tobytes() for s in want]
    # the zero chain on vl: each power halves the pair's difference on (u, -u)
    quadratures.clear()
    sweeps.clear()
    zero_chain = d_chain_zero(vl, p, bc, k)
    assert quadratures == sweeps == [(2, *shape)] * k
    u = vl
    for d in zero_chain:
        dl, dr, _, _ = reference_pair(u, -u, p, bc, LINEAR6)
        u = np.subtract(dl, dr)
        u *= 0.5
        assert d.tobytes() == u.tobytes()
