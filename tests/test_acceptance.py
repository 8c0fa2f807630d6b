"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` (a few minutes; the
convergence-table criterion dominates).
"""

import time

import numpy as np
import pytest

import advdiff
from advdiff import (Boundary, EquationKind, KernelParams, SchemeConfig,
                     SolutionField, amplification, build_grid_1d,
                     build_grid_2d, compute_report, local_integrals,
                     make_problem, rk_step, scan_beta_max, solve_case,
                     sweep_left)
from advdiff.filtering import sigma_fields, xi
from advdiff.kernelops import d_chain_pair, d_chain_zero
from advdiff.operator import build_H
from advdiff.quadrature import (LINEAR6, WENO5, coef_tables,
                                small_stencil_coefficients)
from advdiff.stability import FULLY_DISCRETE, SEMI_DISCRETE
from conftest import exp_cell_integral, window_values

ADV = EquationKind.ADVECTION
DIF = EquationKind.DIFFUSION


def _report(num, label):
    print(f"\nACCEPTANCE {num} ({label}): PASS")


# --------------------------------------------------------------------------
# criterion 1: convergence tables for the linear problem

# (cfl, order) -> list of (N, linf_error, order_or_None); beta = 1/0.5/0.4
TABLE_B001 = {
    (0.5, 1): [(40, 7.260e-2, None), (80, 3.715e-2, 0.967), (160, 1.885e-2, 0.979),
               (320, 9.473e-3, 0.992), (640, 4.750e-3, 0.996)],
    (0.5, 2): [(40, 4.729e-2, None), (80, 1.218e-2, 1.957), (160, 3.077e-3, 1.985),
               (320, 7.703e-4, 1.998), (640, 1.928e-4, 1.999)],
    (0.5, 3): [(40, 2.559e-3, None), (80, 1.712e-4, 3.902), (160, 1.091e-5, 3.972),
               (320, 6.865e-7, 3.990), (640, 4.357e-8, 3.978)],
    (1.0, 1): [(40, 1.388e-1, None), (80, 7.260e-2, 0.935), (160, 3.717e-2, 0.966),
               (320, 1.885e-2, 0.980), (640, 9.473e-3, 0.992)],
    (1.0, 2): [(40, 1.697e-1, None), (80, 4.729e-2, 1.843), (160, 1.218e-2, 1.956),
               (320, 3.077e-3, 1.986), (640, 7.703e-4, 1.998)],
    (1.0, 3): [(40, 3.263e-2, None), (80, 2.559e-3, 3.672), (160, 1.712e-4, 3.902),
               (320, 1.091e-5, 3.973), (640, 6.864e-7, 3.990)],
    (2.0, 1): [(40, 2.474e-1, None), (80, 1.388e-1, 0.834), (160, 7.260e-2, 0.935),
               (320, 3.717e-2, 0.966), (640, 1.885e-2, 0.980)],
    (2.0, 2): [(40, 4.375e-1, None), (80, 1.697e-1, 1.366), (160, 4.733e-2, 1.842),
               (320, 1.218e-2, 1.958), (640, 3.077e-3, 1.986)],
    (2.0, 3): [(40, 2.313e-1, None), (80, 3.271e-2, 2.822), (160, 2.561e-3, 3.675),
               (320, 1.713e-4, 3.902), (640, 1.091e-5, 3.973)],
}
TABLE_B1 = {
    (0.5, 1): [(40, 1.047e-2, None), (80, 5.272e-3, 0.990), (160, 2.646e-3, 0.995),
               (320, 1.326e-3, 0.997), (640, 6.637e-4, 0.998)],
    (0.5, 2): [(40, 1.821e-3, None), (80, 4.953e-4, 1.879), (160, 1.293e-4, 1.937),
               (320, 3.307e-5, 1.968), (640, 8.361e-6, 1.984)],
    (0.5, 3): [(40, 1.912e-4, None), (80, 2.787e-5, 2.779), (160, 3.751e-6, 2.893),
               (320, 4.870e-7, 2.946), (640, 6.206e-8, 2.972)],
    (1.0, 1): [(40, 2.043e-2, None), (80, 1.047e-2, 0.964), (160, 5.272e-3, 0.990),
               (320, 2.646e-3, 0.995), (640, 1.326e-3, 0.997)],
    (1.0, 2): [(40, 6.088e-3, None), (80, 1.822e-3, 1.741), (160, 4.955e-4, 1.878),
               (320, 1.293e-4, 1.938), (640, 3.307e-5, 1.968)],
    (1.0, 3): [(40, 1.117e-3, None), (80, 1.924e-4, 2.537), (160, 2.788e-5, 2.787),
               (320, 3.752e-6, 2.893), (640, 4.869e-7, 2.946)],
    (2.0, 1): [(40, 3.941e-2, None), (80, 2.045e-2, 0.946), (160, 1.047e-2, 0.966),
               (320, 5.273e-3, 0.990), (640, 2.646e-3, 0.995)],
    (2.0, 2): [(40, 1.747e-2, None), (80, 6.098e-3, 1.518), (160, 1.822e-3, 1.743),
               (320, 4.955e-4, 1.878), (640, 1.293e-4, 1.938)],
    (2.0, 3): [(40, 4.522e-3, None), (80, 1.118e-3, 2.016), (160, 1.924e-4, 2.539),
               (320, 2.788e-5, 2.787), (640, 3.752e-6, 2.894)],
}
BETA_BY_ORDER = {1: 1.0, 2: 0.5, 3: 0.4}


@pytest.mark.parametrize("b,table", [(0.01, TABLE_B001), (1.0, TABLE_B1)],
                         ids=["b=0.01", "b=1"])
def test_criterion_1_convergence_tables(b, table):
    t0 = time.time()
    case = make_problem("linear_advdiff", c=1.0, b=b)
    for (cfl, order), rows in table.items():
        prev_err = None
        for n, ref_err, ref_order in rows:
            config = case.make_config(order=order, beta=BETA_BY_ORDER[order], cfl=cfl)
            grid, u = solve_case(case, config, n=n, T=2.0)
            err = float(np.max(np.abs(u.values - case.exact(grid.nodes, 2.0))))
            assert err == pytest.approx(ref_err, rel=0.10), \
                f"b={b} cfl={cfl} k={order} N={n}: {err:.4e} vs {ref_err:.4e}"
            if ref_order is not None:
                got = np.log2(prev_err / err)
                assert got == pytest.approx(ref_order, abs=0.15), \
                    f"b={b} cfl={cfl} k={order} N={n}: order {got:.3f} vs {ref_order}"
            prev_err = err
    _report(1, f"convergence tables b={b}, 45 entries, {time.time()-t0:.0f}s")


# --------------------------------------------------------------------------
# criterion 2: beta_max table and stable scans at the tabulated values

BETA_TABLE = [(1, ADV, 2.0), (2, ADV, 1.0), (3, ADV, 1.243),
              (1, DIF, 2.0), (2, DIF, 1.0), (3, DIF, 0.8375)]


def test_criterion_2_beta_max_recovery():
    t0 = time.time()
    for order, kind, expected in BETA_TABLE:
        got = scan_beta_max(order, kind, mode=SEMI_DISCRETE)
        assert got == pytest.approx(expected, abs=0.01), (order, kind, got)
    for order, kind, beta in BETA_TABLE:
        worst = compute_report(order, kind, beta, mode=FULLY_DISCRETE).max_abs_lambda
        assert worst <= 1.0 + 1e-10, (order, kind, worst)
    _report(2, f"beta_max table and |lambda|<=1 scans, {time.time()-t0:.0f}s")


# --------------------------------------------------------------------------
# criterion 3: fast summation equals direct summation; O(N) wall time

def _convolve_left(v, nu):
    grid = build_grid_1d(0.0, 1.0, v.shape[-1])
    p = KernelParams.from_alpha(nu / grid.dx, grid)
    J, _, _ = local_integrals(v, p, LINEAR6, Boundary.PERIODIC)
    return sweep_left(J, p), J, p


def test_criterion_3_fast_summation():
    rng = np.random.default_rng(7)
    for _ in range(8):
        n = int(rng.integers(64, 4097))
        nu = float(np.exp(rng.uniform(np.log(1e-3), np.log(50.0))))
        v = rng.standard_normal(n)
        I, J, p = _convolve_left(v, nu)
        q = np.exp(-p.nu)
        # direct O(N^2) summation: I_i = sum_j q^{i-j} J_j over cells j <= i
        powers = q ** np.maximum(np.subtract.outer(np.arange(n), np.arange(n)), 0)
        direct = np.tril(powers) @ J
        assert np.max(np.abs(I - direct)) <= 1e-12 * n

    def best_time(n, reps):
        v = np.random.default_rng(1).standard_normal(n)
        best = np.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            _convolve_left(v, 1.0)
            best = min(best, time.perf_counter() - t0)
        return best

    t_small = best_time(2 ** 10, 100)
    t_large = best_time(2 ** 20, 5)
    ratio = t_large / t_small
    assert ratio <= 1.3 * (2 ** 20 / 2 ** 10), f"scaling ratio {ratio:.0f}"
    _report(3, f"sweep == direct summation; time ratio {ratio:.0f} vs linear {2**10}")


# --------------------------------------------------------------------------
# criterion 4: truncation-order law for the partial sums

def _taper_sine(x):
    # sin(x) flattened by (1 - (x/pi)^2)^12: all boundary derivatives of
    # order <= 11 vanish, so the homogeneous-regime hypotheses hold exactly
    xi_ = x / np.pi
    t = (1 - xi_ ** 2) ** 12
    tp = 12 * (1 - xi_ ** 2) ** 11 * (-2 * xi_) / np.pi
    tpp = (1 - xi_ ** 2) ** 10 * (528 * xi_ ** 2 - 24 * (1 - xi_ ** 2)) / np.pi ** 2
    w = np.sin(x) * t
    wx = np.cos(x) * t + np.sin(x) * tp
    wxx = -np.sin(x) * t + 2 * np.cos(x) * tp + np.sin(x) * tpp
    return w, wx, wxx

ALPHA_WINDOWS_ZERO = {Boundary.PERIODIC: {1: (10, 1000), 2: (8, 120), 3: (8, 48)},
                      Boundary.HOMOGENEOUS: {1: (10, 1000), 2: (10, 160), 3: (20, 100)}}
ALPHA_WINDOWS_SIDED = {1: (10, 1000), 2: (10, 300), 3: (10, 300)}


def _slope(alphas, errs):
    return float(np.polyfit(np.log(alphas), np.log(errs), 1)[0])


@pytest.mark.parametrize("bc", [Boundary.PERIODIC, Boundary.HOMOGENEOUS],
                         ids=["periodic", "homogeneous"])
def test_criterion_4_truncation_order(bc):
    t0 = time.time()
    grid = build_grid_1d(-np.pi, np.pi, 4096)
    if bc is Boundary.PERIODIC:
        x = grid.nodes[:-1]
        v, vx, vxx = np.sin(x), np.cos(x), -np.sin(x)
    else:
        v, vx, vxx = _taper_sine(grid.nodes)
    for order in (1, 2, 3):
        alphas = np.geomspace(*ALPHA_WINDOWS_ZERO[bc][order], 8)
        errs = []
        for alpha in alphas:
            p = KernelParams.from_alpha(float(alpha), grid)
            powers = d_chain_zero(v, p, bc, order, LINEAR6)
            errs.append(np.max(np.abs(vxx + alpha ** 2 * sum(powers))))
        s = _slope(alphas, errs)
        assert s == pytest.approx(-2 * order, abs=0.2), f"D0 {bc} k={order}: {s:.3f}"

        alphas = np.geomspace(*ALPHA_WINDOWS_SIDED[order], 8)
        errs_l, errs_r = [], []
        for alpha in alphas:
            p = KernelParams.from_alpha(float(alpha), grid)
            pl, pr, _, _ = d_chain_pair(v, np.zeros_like(v), p, bc, order, LINEAR6)
            approx = alpha * (sum(pl) - sum(pr))
            errs_l.append(np.max(np.abs(vx - approx)))
            # mirrored: right chain carries the data
            pl2, pr2, _, _ = d_chain_pair(np.zeros_like(v), v, p, bc, order, LINEAR6)
            approx_r = alpha * (sum(pl2) - sum(pr2))
            errs_r.append(np.max(np.abs(vx - approx_r)))
        s_l, s_r = _slope(alphas, errs_l), _slope(alphas, errs_r)
        assert s_l == pytest.approx(-order, abs=0.2), f"DL {bc} k={order}: {s_l:.3f}"
        assert s_r == pytest.approx(-order, abs=0.2), f"DR {bc} k={order}: {s_r:.3f}"
    _report(4, f"truncation slopes {bc.value}, {time.time()-t0:.0f}s")


# --------------------------------------------------------------------------
# criterion 5: quadrature exactness against the adaptive oracle

def test_criterion_5_quadrature_exactness():
    rng = np.random.default_rng(11)
    for nu in (0.01, 0.1, 1.0, 10.0):
        cs = small_stencil_coefficients(nu)
        c6 = coef_tables(nu).linear
        for _ in range(4):
            cubic = np.polynomial.Polynomial(rng.uniform(-2, 2, size=4))
            exact = exp_cell_integral(lambda s: cubic(float(s)), nu)
            for r in range(3):
                vals = [cubic(-m) for m in range(-3 + r, r + 1)]
                assert abs(float(np.dot(cs[r], vals)) - exact) <= 1e-10 * max(abs(exact), 1e-3)
            quintic = np.polynomial.Polynomial(rng.uniform(-2, 2, size=6))
            exact6 = exp_cell_integral(lambda s: quintic(float(s)), nu)
            vals6 = window_values(lambda s: quintic(float(s)))
            assert abs(float(np.dot(c6, vals6)) - exact6) <= 1e-10 * max(abs(exact6), 1e-3)
    _report(5, "cubic/quintic exactness")


# --------------------------------------------------------------------------
# criterion 6: end-to-end Fourier multiplier equals the analyzed amplification

def _solver_multiplier(kind, order, beta, cfl, m, case_c=1.0, n=64):
    if kind is ADV:
        prob = advdiff.ProblemSpec(
            flux=lambda u: case_c * u,
            flux_deriv=lambda u: case_c * np.ones_like(np.asarray(u, dtype=float)),
            diffusion=lambda u: 0.0 * u, diffusion_deriv=lambda u: 0.0 * u,
            initial=np.sin, bc=Boundary.PERIODIC)
        bounds = advdiff.WaveBounds(c=abs(case_c), b_diff=0.0)
    else:
        prob = advdiff.ProblemSpec(
            flux=lambda u: 0.0 * u, flux_deriv=lambda u: 0.0 * u,
            diffusion=lambda u: u,
            diffusion_deriv=lambda u: np.ones_like(np.asarray(u, dtype=float)),
            initial=np.sin, bc=Boundary.PERIODIC)
        bounds = advdiff.WaveBounds(c=0.0, b_diff=1.0)
    grid = build_grid_1d(-np.pi, np.pi, n)
    config = SchemeConfig(order=order, beta=beta, cfl=cfl,
                          quadrature="linear6", filter_enabled=False)
    dt = advdiff.compute_dt(config, bounds, grid)
    x = grid.nodes[:n]
    u0 = SolutionField(values=np.cos(m * x), time=0.0)
    out = rk_step(u0, dt, order,
                  lambda v: build_H(v, prob, config, bounds, dt, grid))
    w = out.values
    re = 2.0 / n * np.sum(w * np.cos(m * x))
    im = -2.0 / n * np.sum(w * np.sin(m * x))
    if kind is ADV:
        ratio = abs(case_c) * dt / grid.dx
    else:
        ratio = dt / grid.dx ** 2
    return complex(re, im), ratio, m * grid.dx


def test_criterion_6_linear_mode_cross_validation():
    rng = np.random.default_rng(23)
    checked = 0
    for order in (1, 2, 3):
        for kind in (ADV, DIF):
            for _ in range(4):
                beta = float(rng.uniform(0.1, 1.5))
                cfl = float(rng.uniform(0.3, 3.0))
                m = int(rng.integers(1, 30))
                # a left-going wave (c = -1) meets the mirrored operator, so
                # its multiplier is the conjugate of the analysed one
                for c in ((1.0, -1.0) if kind is ADV else (1.0,)):
                    lam_solver, ratio, kdx = _solver_multiplier(kind, order, beta, cfl, m, c)
                    lam_symbol = complex(amplification(order, kind, beta, kdx, ratio,
                                                       mode=FULLY_DISCRETE))
                    if c < 0:
                        lam_symbol = lam_symbol.conjugate()
                    assert abs(lam_solver - lam_symbol) <= 1e-10, \
                        (order, kind, c, beta, cfl, m, lam_solver, lam_symbol)
                    checked += 1
    assert checked == 36
    _report(6, f"{checked} solver-vs-symbol Fourier multipliers agree to 1e-10")


# --------------------------------------------------------------------------
# criterion 7: porous-medium benchmark against the self-similar profile

def test_criterion_7_barenblatt_benchmark():
    t0 = time.time()
    for m in (2, 3, 5, 8):
        case = make_problem("pme_barenblatt", m=m)
        l1 = []
        for n in (200, 400, 800):
            config = case.make_config(order=3, beta=0.8)
            grid, u = solve_case(case, config, n=n)
            exact = case.exact(grid.nodes, 2.0)
            l1.append(float(grid.dx * np.sum(np.abs(u.values - exact))))
            if n == 200:
                assert np.min(u.values) >= -1e-2, (m, np.min(u.values))
                assert np.max(u.values) <= 1.0 + 1e-2, (m, np.max(u.values))
        assert l1[0] > l1[1] > l1[2], (m, l1)
    _report(7, f"porous-medium L1 refinement and bounds, {time.time()-t0:.0f}s")


# --------------------------------------------------------------------------
# criterion 8: 2D reduction and the two-disc benchmark

def test_criterion_8_two_dimensional():
    t0 = time.time()
    # y-independent run equals the 1D run row-wise
    one = lambda u: np.ones_like(np.asarray(u, dtype=float))
    prob2 = advdiff.ProblemSpec2D(
        f1=lambda u: u, f1_deriv=one,
        g1=lambda u: 0.1 * u, g1_deriv=lambda u: 0.1 * one(u),
        f2=lambda u: 0.0 * u, f2_deriv=lambda u: 0.0 * u,
        g2=lambda u: 0.0 * u, g2_deriv=lambda u: 0.0 * u,
        initial=lambda x, y: np.sin(x) + 0.0 * y, bc=Boundary.PERIODIC)
    grid2 = build_grid_2d(-np.pi, np.pi, 64, -np.pi, np.pi, 16)
    config = SchemeConfig(order=3, beta=0.2, cfl=0.5)
    u2 = advdiff.advance(advdiff.initial_field_2d(prob2, grid2), 0.5, prob2,
                         config, grid2)
    case1 = make_problem("linear_advdiff", c=1.0, b=0.1)
    grid1 = case1.build_grid(64)
    u1 = advdiff.advance(case1.initial_field(grid1), 0.5, case1.spec, config, grid1)
    assert np.max(np.abs(u2.values - u1.values[None, :])) <= 1e-12

    # two-disc degenerate benchmark at the published settings
    case = make_problem("strong_degenerate_2d")
    config = case.make_config(order=3, beta=0.2, cfl=0.5)
    grid, u = solve_case(case, config, n=200, T=0.5)
    assert np.max(np.abs(u.values)) <= 1.0 + 1e-2
    _report(8, f"2D reduction and two-disc run, {time.time()-t0:.0f}s")


# --------------------------------------------------------------------------
# criterion 9: filter asymptotics

def test_criterion_9_filter_orders():
    # smooth data: max(1 - sigma) shrinks at order >= 5
    worst = []
    for n in (32, 64, 128):
        grid = build_grid_1d(-np.pi, np.pi, n)
        p = KernelParams.from_alpha(2.0 / grid.dx, grid)
        _, si0, si2 = local_integrals(np.sin(grid.nodes[:-1]), p, WENO5,
                                      Boundary.PERIODIC)
        worst.append(float(np.max(1.0 - xi(si0, si2))))
    orders = np.log2(np.array(worst[:-1]) / np.array(worst[1:]))
    assert np.all(orders >= 5.0), worst

    # a jump on a smooth profile: sigma near the jump decays at order >= 3
    mins = []
    for n in (64, 128, 256):
        grid = build_grid_1d(-1.0, 1.0, n)
        x = grid.nodes[:-1]
        v = np.where(x < 0, 0.0, 1.0) + 0.3 * np.sin(np.pi * x)
        p = KernelParams.from_alpha(2.0 / grid.dx, grid)
        _, si0, si2 = local_integrals(v, p, WENO5, Boundary.PERIODIC)
        xif = xi(si0, si2)
        sl, _ = sigma_fields(xif, xif, Boundary.PERIODIC)
        mins.append(float(np.min(sl[n // 2 - 2:n // 2 + 3])))
    ratios = np.array(mins[:-1]) / np.array(mins[1:])
    assert np.all(ratios >= 2.0 ** 3), mins
    _report(9, "filter orders: smooth >= 5, jump damping >= 3")
