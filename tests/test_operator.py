import re

import numpy as np
import pytest

import advdiff.filtering
from advdiff import quadrature as qd
from advdiff import (Boundary, ProblemSpec, ProblemSpec2D, SchemeConfig,
                     WaveBounds, build_grid_1d, build_grid_2d, build_H,
                     compute_bounds, flux_split, initial_field_2d)
from advdiff.core import unique_nodes
from advdiff.operator import kernel_families

PER = Boundary.PERIODIC
HOM = Boundary.HOMOGENEOUS


def linear_problem(c=1.0, b=1.0, bc=PER):
    return ProblemSpec(
        flux=lambda u: c * u, flux_deriv=lambda u: c * np.ones_like(np.asarray(u, dtype=float)),
        diffusion=lambda u: b * u, diffusion_deriv=lambda u: b * np.ones_like(np.asarray(u, dtype=float)),
        initial=np.sin, bc=bc)


def burgers_like(bc=PER):
    return ProblemSpec(flux=lambda u: u ** 2, flux_deriv=lambda u: 2 * u,
                       diffusion=lambda u: 0.1 * u,
                       diffusion_deriv=lambda u: 0.1 * np.ones_like(np.asarray(u, dtype=float)),
                       initial=np.sin, bc=bc)


def test_flux_split_consistency():
    prob = burgers_like()
    u = np.array([0.5])
    fplus, fminus = flux_split(prob, u, WaveBounds(c=2.0, b_diff=0.1))
    assert fplus[0] == pytest.approx(0.625)
    assert fminus[0] == pytest.approx(-0.375)
    assert fplus[0] + fminus[0] == pytest.approx(0.25)


def test_flux_split_zero():
    prob = burgers_like()
    fplus, fminus = flux_split(prob, np.zeros(5), WaveBounds(c=2.0, b_diff=0.1))
    assert np.all(fplus == 0) and np.all(fminus == 0)


def test_flux_split_monotone_parts():
    prob = burgers_like()
    u = np.linspace(-1, 1, 400)
    fplus, fminus = flux_split(prob, u, WaveBounds(c=2.0, b_diff=0.1))
    assert np.all(np.diff(fplus) >= -1e-14)
    assert np.all(np.diff(fminus) <= 1e-14)


@pytest.mark.parametrize("bc", [PER, HOM])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_H_annihilates_constants(bc, order):
    grid = build_grid_1d(-1.0, 1.0, 64)
    prob = burgers_like(bc)
    config = SchemeConfig(order=order, beta=0.4, cfl=0.5)
    u = np.full(64 + (bc is HOM), 0.7)
    bounds = compute_bounds(prob, u)
    h = build_H(u, prob, config, bounds, dt=0.01, grid=grid)
    assert np.max(np.abs(h)) < 1e-11


def test_H_rejects_bad_dt():
    grid = build_grid_1d(-1.0, 1.0, 64)
    prob = burgers_like()
    config = SchemeConfig(order=1, beta=1.0)
    with pytest.raises(ValueError):
        build_H(np.ones(64), prob, config, WaveBounds(2.0, 0.1), dt=0.0, grid=grid)


def layout_error(expected, got):
    return re.escape(f"shape {expected}") + ".*" + re.escape(f"shape {got}")


def test_H_rejects_a_field_in_the_wrong_layout():
    # periodic data on N unique nodes, other data on N+1; the grid's N+1
    # periodic nodes are advance's layout, not the operator's
    grid = build_grid_1d(-1.0, 1.0, 64)
    config = SchemeConfig(order=1, beta=1.0)
    bounds = WaveBounds(2.0, 0.1)
    for bc, nodes, want in ((PER, 65, 64), (HOM, 64, 65)):
        with pytest.raises(ValueError, match=layout_error((want,), (nodes,))):
            build_H(np.ones(nodes), burgers_like(bc), config, bounds, dt=0.01, grid=grid)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_H_consistency_order_in_dt(order):
    # fixed fine grid, dt sweep: H -> -c u_x + b u_xx at rate dt^order
    c, b = 1.0, 0.5
    grid = build_grid_1d(-np.pi, np.pi, 1024)
    prob = linear_problem(c, b)
    x = grid.nodes[:-1]
    u = np.sin(x)
    target = -c * np.cos(x) - b * np.sin(x)
    bounds = WaveBounds(c=c, b_diff=b)
    config = SchemeConfig(order=order, beta={1: 1.0, 2: 0.5, 3: 0.4}[order],
                          quadrature="linear6", cross_term_k3=False)
    dts = np.array([0.2, 0.1, 0.05])
    errs = []
    for dt in dts:
        h = build_H(u, prob, config, bounds, dt=float(dt), grid=grid)
        errs.append(np.max(np.abs(h - target)))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope == pytest.approx(order, abs=0.35)


def test_H_pure_diffusion_single_mode():
    # k=1, g(u) = u: H = -(beta/dt) D0[u]; on sin(x) the symbol gives
    # -(beta/dt) * (1/alpha0^2)/(1 + 1/alpha0^2) with alpha0 = sqrt(beta/dt)
    grid = build_grid_1d(-np.pi, np.pi, 1024)
    prob = ProblemSpec(flux=lambda u: 0.0 * u, flux_deriv=lambda u: 0.0 * u,
                       diffusion=lambda u: u,
                       diffusion_deriv=lambda u: np.ones_like(np.asarray(u, dtype=float)),
                       initial=np.sin, bc=PER)
    beta, dt = 1.0, 0.05
    config = SchemeConfig(order=1, beta=beta, quadrature="linear6")
    u = np.sin(grid.nodes[:-1])
    h = build_H(u, prob, config, WaveBounds(c=0.0, b_diff=1.0), dt=dt, grid=grid)
    alpha0_sq = beta / dt
    factor = -(beta / dt) * (1.0 / alpha0_sq) / (1.0 + 1.0 / alpha0_sq)
    assert np.max(np.abs(h - factor * u)) < 1e-7


def test_filter_neutrality_bitwise(monkeypatch):
    grid = build_grid_1d(-np.pi, np.pi, 128)
    prob = burgers_like()
    x = grid.nodes[:-1]
    u = np.sin(x) + 0.2 * np.sin(3 * x)
    bounds = compute_bounds(prob, u)
    config_off = SchemeConfig(order=3, beta=0.4, filter_enabled=False)
    h_off = build_H(u, prob, config_off, bounds, dt=0.02, grid=grid)
    # force sigma == 1: the filtered assembly must agree bit for bit
    monkeypatch.setattr(advdiff.operator, "sigma_fields",
                        lambda xl, xr, bc: (np.ones_like(xl), np.ones_like(xr)))
    config_on = SchemeConfig(order=3, beta=0.4, filter_enabled=True)
    h_on = build_H(u, prob, config_on, bounds, dt=0.02, grid=grid)
    assert np.array_equal(h_on, h_off)


def test_k1_filter_flag_is_noop():
    grid = build_grid_1d(-np.pi, np.pi, 64)
    prob = burgers_like()
    u = np.sin(grid.nodes[:-1])
    bounds = compute_bounds(prob, u)
    a = build_H(u, prob, SchemeConfig(order=1, beta=1.0, filter_enabled=True),
                bounds, dt=0.02, grid=grid)
    b = build_H(u, prob, SchemeConfig(order=1, beta=1.0, filter_enabled=False),
                bounds, dt=0.02, grid=grid)
    assert np.array_equal(a, b)


def test_k2_cross_term_flag_is_noop():
    # below k = 3 the correction is off whatever the flag says
    grid = build_grid_1d(-np.pi, np.pi, 64)
    prob = burgers_like()
    u = np.sin(grid.nodes[:-1])
    bounds = compute_bounds(prob, u)
    a = build_H(u, prob, SchemeConfig(order=2, beta=1.0, cross_term_k3=True),
                bounds, dt=0.02, grid=grid)
    b = build_H(u, prob, SchemeConfig(order=2, beta=1.0, cross_term_k3=False),
                bounds, dt=0.02, grid=grid)
    assert np.array_equal(a, b)


def two_d_problem(bc=PER):
    one = lambda u: np.ones_like(np.asarray(u, dtype=float))
    return ProblemSpec2D(
        f1=lambda u: u, f1_deriv=one, g1=lambda u: 0.5 * u, g1_deriv=lambda u: 0.5 * one(u),
        f2=lambda u: 0.0 * u, f2_deriv=lambda u: 0.0 * u,
        g2=lambda u: 0.0 * u, g2_deriv=lambda u: 0.0 * u,
        initial=lambda x, y: np.sin(x) + 0.0 * y, bc=bc)


def test_H_2d_rejects_a_field_in_the_wrong_layout():
    # a (ny+1, nx+1) grid field is advance's layout; periodic data enters the
    # operator on (ny, nx) nodes
    grid2 = build_grid_2d(-np.pi, np.pi, 24, -np.pi, np.pi, 16)
    prob2 = two_d_problem()
    u2 = initial_field_2d(prob2, grid2).values
    config = SchemeConfig(order=1, beta=1.0)
    bounds = (WaveBounds(1.0, 0.5), WaveBounds(0.0, 0.0))
    for field in (u2, u2[:-1], u2[:, :-1]):
        with pytest.raises(ValueError, match=layout_error((16, 24), field.shape)):
            build_H(field, prob2, config, bounds, dt=0.01, grid=grid2)
    with pytest.raises(ValueError, match=layout_error((17, 25), (16, 24))):
        build_H(u2[:-1, :-1], two_d_problem(HOM), config, bounds, dt=0.01, grid=grid2)


def test_H_2d_reduces_to_1d_on_y_independent_data():
    grid2 = build_grid_2d(-np.pi, np.pi, 64, -np.pi, np.pi, 32)
    prob2 = two_d_problem()
    u2 = initial_field_2d(prob2, grid2).values[:-1, :-1]
    config = SchemeConfig(order=3, beta=0.2)
    bx = WaveBounds(c=1.0, b_diff=0.5)
    by = WaveBounds(c=0.0, b_diff=0.0)
    h2 = build_H(u2, prob2, config, (bx, by), dt=0.01, grid=grid2)
    prob1 = linear_problem(1.0, 0.5)
    h1 = build_H(u2[0], prob1, config, bx, dt=0.01, grid=grid2.gx)
    for j in range(u2.shape[0]):
        assert np.max(np.abs(h2[j] - h1)) < 1e-12


def test_H_2d_constant_field():
    grid2 = build_grid_2d(-1, 1, 32, -1, 1, 32)
    one = lambda u: np.ones_like(np.asarray(u, dtype=float))
    prob2 = ProblemSpec2D(f1=lambda u: u ** 2, f1_deriv=lambda u: 2 * u,
                          g1=lambda u: u, g1_deriv=one,
                          f2=lambda u: u ** 2, f2_deriv=lambda u: 2 * u,
                          g2=lambda u: u, g2_deriv=one,
                          initial=lambda x, y: np.full_like(x, 0.3), bc=HOM)
    u2 = initial_field_2d(prob2, grid2).values
    config = SchemeConfig(order=3, beta=0.2)
    b = WaveBounds(c=0.6, b_diff=1.0)
    h2 = build_H(u2, prob2, config, (b, b), dt=0.01, grid=grid2)
    assert np.max(np.abs(h2)) < 1e-11


def test_H_2d_separable_linear_mode():
    # u = sin(x) sin(y), fluxes c u per axis, diffusion b u per axis:
    # H -> -c(ux + uy) + b(uxx + uyy) as dt -> 0
    c, b = 1.0, 0.3
    one = lambda u: np.ones_like(np.asarray(u, dtype=float))
    prob2 = ProblemSpec2D(f1=lambda u: c * u, f1_deriv=lambda u: c * one(u),
                          g1=lambda u: b * u, g1_deriv=lambda u: b * one(u),
                          f2=lambda u: c * u, f2_deriv=lambda u: c * one(u),
                          g2=lambda u: b * u, g2_deriv=lambda u: b * one(u),
                          initial=lambda x, y: np.sin(x) * np.sin(y), bc=PER)
    grid2 = build_grid_2d(-np.pi, np.pi, 256, -np.pi, np.pi, 256)
    u2 = initial_field_2d(prob2, grid2).values[:-1, :-1]
    X, Y = np.meshgrid(grid2.gx.nodes[:-1], grid2.gy.nodes[:-1])
    target = (-c * (np.cos(X) * np.sin(Y) + np.sin(X) * np.cos(Y))
              - 2 * b * np.sin(X) * np.sin(Y))
    config = SchemeConfig(order=3, beta=0.2, quadrature="linear6", cross_term_k3=False)
    bounds = WaveBounds(c=c, b_diff=b)
    errs = []
    dts = (0.025, 0.0125, 0.00625)
    for dt in dts:
        h = build_H(u2, prob2, config, (bounds, bounds), dt=dt, grid=grid2)
        errs.append(np.max(np.abs(h - target)))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.4)


@pytest.mark.parametrize("bc", [PER, HOM])
def test_coefficient_tables_built_once_per_family(bc, monkeypatch):
    # k=3 with WENO, filter and cross term: one table build per kernel family
    # (convection, diffusion) per axis
    calls = []
    build = qd.small_stencil_coefficients
    monkeypatch.setattr(qd, "small_stencil_coefficients",
                        lambda nu, *rest: calls.append(nu) or build(nu, *rest))
    config = SchemeConfig(order=3, beta=0.2)
    assert config.quadrature == qd.WENO5 and config.filter_enabled and config.cross_term_k3
    grid = build_grid_1d(-np.pi, np.pi, 64)
    prob = burgers_like(bc)
    u = unique_nodes(np.sin(grid.nodes), bc)[0]
    build_H(u, prob, config, compute_bounds(prob, u), dt=0.01, grid=grid)
    assert 1 <= len(calls) <= 2
    calls.clear()
    b = WaveBounds(c=0.6, b_diff=1.0)
    grid2 = build_grid_2d(-np.pi, np.pi, 32, -np.pi, np.pi, 24)
    prob2 = ProblemSpec2D(f1=lambda u: u ** 2, f1_deriv=lambda u: 2 * u, g1=lambda u: u,
                          g1_deriv=lambda u: np.ones_like(u), f2=lambda u: u ** 2,
                          f2_deriv=lambda u: 2 * u, g2=lambda u: u,
                          g2_deriv=lambda u: np.ones_like(u),
                          initial=lambda x, y: np.sin(x) * np.cos(y), bc=bc)
    u2 = unique_nodes(initial_field_2d(prob2, grid2).values, bc)[0]
    build_H(u2, prob2, config, (b, b), dt=0.01, grid=grid2)
    assert 1 <= len(calls) <= 4


@pytest.mark.parametrize("quadrature", [qd.WENO5, qd.LINEAR6])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("bc", [PER, HOM])
def test_build_H_is_pure(bc, order, quadrature, rng):
    # f(u) = u and g(u) = u hand u itself to the flux split and the diffusion
    # chain; the operator's in-place sums may write only into arrays it made
    ident = lambda u: u
    ones = lambda u: np.ones_like(u)
    prob1 = ProblemSpec(flux=ident, flux_deriv=ones, diffusion=ident,
                        diffusion_deriv=ones, initial=None, bc=bc)
    prob2 = ProblemSpec2D(f1=ident, f1_deriv=ones, g1=ident, g1_deriv=ones,
                          f2=ident, f2_deriv=ones, g2=ident, g2_deriv=ones,
                          initial=None, bc=bc)
    config = SchemeConfig(order=order, beta=0.3, quadrature=quadrature)
    b = WaveBounds(c=1.0, b_diff=1.0)
    u1, u2 = (unique_nodes(rng.standard_normal(shape), bc)[0] for shape in (41, (19, 25)))
    cases = ((prob1, build_grid_1d(-1.0, 1.0, 40), u1, b),
             (prob2, build_grid_2d(-1.0, 1.0, 24, -1.0, 1.0, 18), u2, (b, b)))
    for prob, grid, u, bounds in cases:
        keep = u.copy()
        h = build_H(u, prob, config, bounds, dt=0.02, grid=grid)
        assert u.tobytes() == keep.tobytes()
        again = build_H(u, prob, config, bounds, dt=0.02, grid=grid)
        assert again.tobytes() == h.tobytes()
        families = kernel_families(config, bounds, 0.02, grid)
        for _ in range(2):  # one step's stages share the families
            shared = build_H(u, prob, config, bounds, 0.02, grid, families)
            assert shared.tobytes() == h.tobytes()
        assert u.tobytes() == keep.tobytes()
