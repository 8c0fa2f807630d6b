import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from advdiff import Boundary
from advdiff import quadrature as qd
from advdiff.core import padded, shifted
from advdiff.filtering import xi
from conftest import (exp_cell_integral, nonlinear_weights, smoothness_indicators,
                      textbook_linear, textbook_weno, textbook_xi, window_values)

NU_SET = (0.01, 0.1, 1.0, 10.0)


def test_rows_exact_on_constants():
    # each substencil row integrates v = 1 to 1 - e^{-nu}
    for nu in (0.003, 0.05, 0.2, 0.7, 3.0, 25.0):
        cs = qd.small_stencil_coefficients(nu)
        target = -np.expm1(-nu)
        for r in range(3):
            assert abs(cs[r].sum() - target) < 1e-13 * max(1.0, target)


@pytest.mark.parametrize("nu", NU_SET)
def test_substencils_exact_on_cubics(nu, rng):
    cs = qd.small_stencil_coefficients(nu)
    for _ in range(5):
        coefs = rng.uniform(-2, 2, size=4)
        poly = np.polynomial.Polynomial(coefs)
        exact = exp_cell_integral(lambda s: poly(float(s)), nu)
        for r in range(3):
            # substencil r sees nodes at offsets -3+r .. r
            vals = [poly(-(m)) for m in range(-3 + r, r + 1)]
            approx = float(np.dot(cs[r], vals))
            assert abs(approx - exact) <= 1e-10 * max(abs(exact), 1e-3)


@pytest.mark.parametrize("nu", NU_SET)
def test_linear_rule_exact_on_quintics(nu, rng):
    c = qd.coef_tables(nu).linear
    for _ in range(5):
        coefs = rng.uniform(-2, 2, size=6)
        poly = np.polynomial.Polynomial(coefs)
        exact = exp_cell_integral(lambda s: poly(float(s)), nu)
        vals = window_values(lambda s: poly(float(s)))
        approx = float(np.dot(c, vals))
        assert abs(approx - exact) <= 1e-10 * max(abs(exact), 1e-3)


def test_linear_weights_sum_and_sign():
    for nu in np.geomspace(1e-3, 50, 40):
        d = qd.coef_tables(nu).weights
        assert abs(sum(d) - 1.0) < 1e-14
        assert all(w > 0 for w in d)


def _mp_rule(offsets, nu):
    """Weights c_n with sum_n c_n p(-n) = nu int_0^1 e^{-nu s} p(s) ds for every
    monomial p of degree < len(offsets), from incomplete-gamma moments; node
    offset n sits at s = -n."""
    vander = mp.matrix([[mp.mpf(-n) ** j for n in offsets] for j in range(len(offsets))])
    moments = mp.matrix([mp.gammainc(j + 1, 0, nu) / nu ** j for j in range(len(offsets))])
    return list(mp.lu_solve(vander, moments))


# the sweep, plus nu where closed forms and series used to meet, and two
# points past them where the closed forms cancelled to 1.1e-12
_NU_SWEEP = [pytest.param(float(nu), id=f"{nu:.3g}") for nu in np.geomspace(1e-6, 1e3, 25)] + [
    pytest.param(float(np.nextafter(0.2, 0)), id="below_0.2"),
    pytest.param(0.2, id="0.2"),
    pytest.param(float(np.nextafter(0.5, 0)), id="below_0.5"),
    pytest.param(0.5, id="0.5"),
    pytest.param(0.22, id="0.22"),
    pytest.param(0.55, id="0.55"),
]


@pytest.mark.parametrize("nu", _NU_SWEEP)
def test_tables_match_multiprecision_across_nu(nu):
    # every entry of coef_tables against a 40-digit oracle built without the
    # library; d0 and d2 are the only weights reaching offsets -3 and 2
    tables = qd.coef_tables(nu)
    with mp.workdps(40):
        small = [_mp_rule(range(r - 3, r + 1), mp.mpf(nu)) for r in range(3)]
        linear = _mp_rule(range(-3, 3), mp.mpf(nu))
        d0, d2 = linear[0] / small[0][0], linear[5] / small[2][3]
        pairs = [(tables.small[r][j], small[r][j]) for r in range(3) for j in range(4)]
        pairs += list(zip(tables.weights, (d0, 1 - d0 - d2, d2)))
        pairs += list(zip(tables.linear, linear))
        worst = max(float(abs((mp.mpf(float(got)) - ref) / ref)) for got, ref in pairs)
    assert worst <= 1e-12


def test_weights_at_nu_one_vs_multiprecision():
    # closed forms evaluated at 50 digits
    with mp.workdps(50):
        nu = mp.mpf(1)
        e = mp.e ** (-nu)
        d0 = ((2 * nu**4 - 15 * nu**2 + 60) - (60 + 60 * nu + 15 * nu**2 - 5 * nu**3 - 3 * nu**4) * e) / \
             (10 * nu**2 * (2 * nu**2 - 6 * nu + 6 + (nu**2 - 6) * e))
        d2 = (60 - 60 * nu + 15 * nu**2 + 5 * nu**3 - 3 * nu**4 - (60 - 15 * nu**2 + 2 * nu**4) * e) / \
             (10 * nu**2 * (6 - nu**2 - (6 + 6 * nu + 2 * nu**2) * e))
        d0, d2 = float(d0), float(d2)
    got = qd.coef_tables(1.0).weights
    assert got[0] == pytest.approx(d0, rel=1e-13)
    assert got[2] == pytest.approx(d2, rel=1e-13)


def test_coefficients_at_nu_one_vs_multiprecision():
    with mp.workdps(50):
        nu = mp.mpf(1)
        e = mp.e ** (-nu)
        ref = float((6 - 6 * nu + 2 * nu**2 - (6 - nu**2) * e) / (6 * nu**3))
    got = qd.small_stencil_coefficients(1.0)[0][0]
    assert got == pytest.approx(ref, rel=1e-13)


def test_coefficients_vanish_linearly_as_nu_to_zero():
    for nu in (1e-3, 1e-4, 1e-5):
        cs = qd.small_stencil_coefficients(nu)
        assert np.max(np.abs(cs)) < 1.0 * nu
        assert np.max(np.abs(cs)) > 0.0


def test_small_stencil_rejects_bad_nu():
    with pytest.raises(ValueError):
        qd.small_stencil_coefficients(0.0)
    with pytest.raises(ValueError):
        qd.linear_weights(-1.0, qd.small_stencil_coefficients(1.0))
    with pytest.raises(ValueError):  # the fifth moment would be subnormal
        qd.small_stencil_coefficients(1e-60)


def test_smoothness_indicators_constant_window():
    si = smoothness_indicators([np.float64(3.5)] * 6)
    assert si == (0.0, 0.0, 0.0)
    _, si0, si2 = qd.weno_integrals(np.full(6, 3.5), qd.coef_tables(1.0))
    assert si0 == 0.0 and si2 == 0.0


def test_smoothness_indicators_linear_window():
    # unit slope: only the cell-jump term survives
    si = smoothness_indicators([np.float64(j) for j in range(6)])
    assert si == pytest.approx((1.0, 1.0, 1.0), abs=1e-14)


def test_smoothness_indicators_step_window():
    w = [np.float64(v) for v in (0, 0, 0, 1, 1, 1)]
    si0, si1, si2 = smoothness_indicators(w)
    # direct evaluation of the three closed forms
    assert si0 == pytest.approx(781 / 720 + 13 * 9 / 48 + 1)
    assert si1 == pytest.approx(781 / 720 * 4 + 1)
    assert si2 == pytest.approx(781 / 720 + 13 * 9 / 48 + 1)
    # substencils holding the jump are flagged much rougher than a shifted
    # window whose substencil 2 is entirely on the flat part
    w_shift = [np.float64(v) for v in (0, 0, 1, 1, 1, 1)]
    s0, _, s2 = smoothness_indicators(w_shift)
    assert s2 == 0.0 and s0 > 1.0


def test_nonlinear_weights_equal_si_gives_linear():
    d = qd.coef_tables(0.8).weights
    om = nonlinear_weights((0.3, 0.3, 0.3), d)
    assert om == pytest.approx(d, rel=1e-14)


def test_nonlinear_weights_example():
    om = nonlinear_weights((0.0, 0.0, 1e3), (0.3, 0.5, 0.2), epsilon=1e-6)
    assert om[0] == pytest.approx(0.375, rel=1e-9)
    assert om[1] == pytest.approx(0.625, rel=1e-9)
    assert om[2] == pytest.approx(2.5e-19, rel=1e-6)


def test_nonlinear_weights_degenerate_d():
    om = nonlinear_weights((5.0, 0.1, 7.0), (1.0, 0.0, 0.0))
    assert om == (1.0, 0.0, 0.0)


def test_nonlinear_weights_convexity(rng):
    for _ in range(50):
        si = rng.uniform(0, 10, size=3)
        d = qd.coef_tables(float(rng.uniform(0.01, 20))).weights
        om = nonlinear_weights(tuple(si), d)
        assert abs(sum(om) - 1) < 1e-13
        assert all(0 <= w <= 1 for w in om)


def test_weno_constant_window_exact():
    for nu in NU_SET:
        J, si0, si2 = qd.weno_integrals(np.ones(6), qd.coef_tables(nu))
        assert J.shape == (1,)
        assert J[0] == pytest.approx(-np.expm1(-nu), rel=1e-13)
        assert si0[0] == 0.0 and si2[0] == 0.0


def test_weno_matches_linear_on_smooth_quintic(rng):
    nu = 0.9
    coefs = rng.uniform(-1, 1, size=6)
    # smooth, slowly varying data: quintic sampled at dx-scaled offsets
    dx = 0.02
    poly = np.polynomial.Polynomial(coefs)
    line = np.array(window_values(lambda s: poly(float(s) * dx)))
    tables = qd.coef_tables(nu)
    J_w, _, _ = qd.weno_integrals(line, tables)
    J_l = qd.linear_integrals(line, tables)
    assert J_w[0] == pytest.approx(J_l[0], rel=1e-8, abs=1e-12)


def test_right_orientation_mirrors_left(rng):
    # the right-side integral at node i, the left rule on the reversed data
    # reversed back, is the left rule fed with the window reflected about
    # x_i: offsets (+3..-2) instead of (-3..+2)
    from advdiff import Boundary, build_grid_1d
    from advdiff.kernelops import KernelParams, local_integrals
    nu = 1.3
    grid = build_grid_1d(0.0, 1.0, 24)
    p = KernelParams.from_alpha(nu / grid.dx, grid)
    v = rng.uniform(-1, 1, size=24)
    JR = local_integrals(v[::-1], p, qd.WENO5, Boundary.PERIODIC)[0][::-1]
    for i in (5, 12, 20):
        mirrored = v[i - 2:i + 4][::-1]
        J_mirror, _, _ = qd.weno_integrals(mirrored, qd.coef_tables(nu))
        assert JR[i] == pytest.approx(J_mirror[0], rel=1e-13)


def _oracle_data(kind, shape, rng):
    if kind == "random":
        return rng.standard_normal(shape)
    # levels repeating every 16 nodes, each line but the first starting at a
    # random node; the first six are zeros signed opposite to the rules'
    # coefficients (+ - + + - +), so every product is -0.0
    pattern = np.array([-0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 1.0, 1.0,
                        0.0, 0.0, -0.0, -0.0, -2.5, -2.5, 3.0, 3.0])
    starts = rng.integers(0, 16, size=shape[:-1] + (1,))
    starts.flat[0] = 0
    return pattern[(starts + np.arange(shape[-1])) % 16]


@pytest.mark.blas_kernel
@pytest.mark.parametrize("shape", [(7,), (42,), (7, 34), (201, 201), (2, 201, 201)])
@pytest.mark.parametrize("bc", [Boundary.PERIODIC, Boundary.HOMOGENEOUS])
@pytest.mark.parametrize("kind", ["random", "piecewise_constant"])
def test_rules_equal_textbook_forms_bytewise(kind, bc, shape, rng):
    # the rules on the padded line, one correlation per stencil sum, against
    # one expression per formula on the six windows (sum() starting from 0
    # included, which turns a leading -0.0 product into 0.0; a short
    # correlation does the same); the (2, 201, 201) batch, a stacked pair,
    # spans several WENO blocks and ends partway through one
    v = _oracle_data(kind, shape, rng)
    if kind != "random":
        assert np.all(np.any(np.signbit(v) & (v == 0.0), axis=-1))
    line, window = padded(v, bc, -3, 2), shifted(v, bc, -3, 2)
    if len(shape) == 3:
        blocks, rest = divmod(line.size - 5, qd.WENO_BLOCK)
        assert blocks >= 2 and rest > 0
    same = lambda a, b: a.shape == b.shape and a.tobytes() == b.tobytes()
    for nu in NU_SET:
        tables = qd.coef_tables(nu)
        got, ref = qd.weno_integrals(line, tables), textbook_weno(window, tables)
        assert all(same(a, b) for a, b in zip(got, ref))
        assert same(qd.linear_integrals(line, tables), textbook_linear(window, tables))
        assert same(xi(got[1], got[2]), textbook_xi(ref[1], ref[2]))
    assert same(xi(got[1][..., ::-1], got[2]), textbook_xi(ref[1][..., ::-1], ref[2]))


@pytest.mark.blas_kernel
def test_weno_peak_allocation_is_pinned(rng):
    # one 2D-sized WENO call on a (201, 207) padded batch: the outputs J, SI0
    # and SI2 (rows as wide as the padded line) plus four block-sized work
    # arrays, 4.70 field-sizes when pinned (7.18 when the work arrays spanned
    # the whole batch, 13.0 when every term made its own temporaries)
    line = rng.standard_normal((201, 207))
    tables = qd.coef_tables(0.7)
    field = 201 * 202 * 8
    tracemalloc.start()
    try:
        out = qd.weno_integrals(line, tables)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [a.shape for a in out] == [(201, 202)] * 3
    assert retained / field == pytest.approx(3 * 207 / 202, abs=0.01)
    assert peak / field <= 4.84


@pytest.mark.blas_kernel
def test_linear_peak_allocation_is_pinned(rng):
    # one linear-rule call on the same batch: the output row plus the one
    # correlation it is copied from, 2.05 field-sizes when pinned
    line = rng.standard_normal((201, 207))
    tables = qd.coef_tables(0.7)
    field = 201 * 202 * 8
    tracemalloc.start()
    try:
        out = qd.linear_integrals(line, tables)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (201, 202)
    assert retained / field == pytest.approx(207 / 202, abs=0.01)
    assert peak / field <= 2.1
