import warnings

import numpy as np
import pytest

from advdiff import (Boundary, ProblemSpec2D, SchemeConfig, SolutionField, advance,
                     build_grid_2d, compute_bounds, initial_field,
                     make_problem)


def _one(u):
    return np.ones_like(np.asarray(u, dtype=float))


def _zero(u):
    return np.zeros_like(np.asarray(u, dtype=float))


def x_only_problem():
    # advection-diffusion along x only, y inert
    return ProblemSpec2D(
        f1=lambda u: u, f1_deriv=_one,
        g1=lambda u: 0.1 * u, g1_deriv=lambda u: 0.1 * _one(u),
        f2=_zero, f2_deriv=_zero, g2=_zero, g2_deriv=_zero,
        initial=lambda x, y: np.sin(x) + 0.0 * y, bc=Boundary.PERIODIC)


def test_reduction_to_1d_rowwise():
    prob2 = x_only_problem()
    grid2 = build_grid_2d(-np.pi, np.pi, 48, -np.pi, np.pi, 12)
    u2 = advance(initial_field(prob2, grid2, 0.0), 0.5, prob2,
                 make_problem("linear_advdiff").make_config(order=3, beta=0.2, cfl=0.5),
                 grid2)
    case = make_problem("linear_advdiff", c=1.0, b=0.1)
    config = case.make_config(order=3, beta=0.2, cfl=0.5)
    grid1 = case.build_grid(48)
    u1 = advance(case.initial_field(grid1), 0.5, case.spec, config, grid1)
    for row in u2.values:
        assert np.max(np.abs(row - u1.values)) <= 1e-12


def test_constant_field_unchanged():
    prob2 = ProblemSpec2D(
        f1=lambda u: u ** 2, f1_deriv=lambda u: 2 * u,
        g1=lambda u: u, g1_deriv=_one,
        f2=lambda u: u ** 2, f2_deriv=lambda u: 2 * u,
        g2=lambda u: u, g2_deriv=_one,
        initial=lambda x, y: np.full_like(x, 0.4), bc=Boundary.HOMOGENEOUS)
    grid2 = build_grid_2d(-1, 1, 16, -1, 1, 16)
    config = make_problem("strong_degenerate_2d").make_config(order=2, beta=0.25, cfl=0.5)
    out = advance(initial_field(prob2, grid2, 0.0), 0.3, prob2, config, grid2)
    assert np.max(np.abs(out.values - 0.4)) < 1e-10


def test_axis_symmetry_under_transpose():
    # swapping the axis roles and transposing the data transposes the result
    fwd = ProblemSpec2D(
        f1=lambda u: u, f1_deriv=_one, g1=lambda u: 0.05 * u,
        g1_deriv=lambda u: 0.05 * _one(u),
        f2=lambda u: 0.5 * u, f2_deriv=lambda u: 0.5 * _one(u),
        g2=lambda u: 0.1 * u, g2_deriv=lambda u: 0.1 * _one(u),
        initial=lambda x, y: np.sin(x) * np.cos(y), bc=Boundary.PERIODIC)
    swp = ProblemSpec2D(
        f1=fwd.f2, f1_deriv=fwd.f2_deriv, g1=fwd.g2, g1_deriv=fwd.g2_deriv,
        f2=fwd.f1, f2_deriv=fwd.f1_deriv, g2=fwd.g1, g2_deriv=fwd.g1_deriv,
        initial=lambda x, y: np.sin(y) * np.cos(x), bc=Boundary.PERIODIC)
    grid2 = build_grid_2d(-np.pi, np.pi, 32, -np.pi, np.pi, 32)
    config = make_problem("strong_degenerate_2d").make_config(order=3, beta=0.2, cfl=0.5)
    a = advance(initial_field(fwd, grid2, 0.0), 0.4, fwd, config, grid2)
    b = advance(initial_field(swp, grid2, 0.0), 0.4, swp, config, grid2)
    assert np.max(np.abs(a.values - b.values.T)) < 1e-11


@pytest.mark.parametrize("order, beta, orders", [(3, 0.2, (2.82, 3.67)),
                                                 (2, 0.25, (1.37, 1.84)),
                                                 (1, 0.5, (0.83, 0.94))])
def test_diagonal_advection_diffusion_orders(order, beta, orders):
    # genuinely 2D data: f = u and g = 0.01u on both axes carry sin(x + y)
    # to e^{-0.02t} sin(x + y - 2t); measured orders at T = 1, CFL 0.5,
    # N = 20..80, each within 10%
    diff = lambda u: 0.01 * u
    prob = ProblemSpec2D(f1=lambda u: u, f1_deriv=_one, g1=diff, g1_deriv=lambda u: 0.01 * _one(u),
                         f2=lambda u: u, f2_deriv=_one, g2=diff, g2_deriv=lambda u: 0.01 * _one(u),
                         initial=lambda x, y: np.sin(x + y), bc=Boundary.PERIODIC)
    errors = []
    for n in (20, 40, 80):
        grid = build_grid_2d(-np.pi, np.pi, n, -np.pi, np.pi, n)
        u = advance(initial_field(prob, grid, 0.0), 1.0, prob,
                    SchemeConfig(order=order, beta=beta, cfl=0.5), grid)
        x, y = np.meshgrid(grid.gx.nodes, grid.gy.nodes)
        errors.append(np.max(np.abs(u.values - np.exp(-0.02) * np.sin(x + y - 2.0))))
    assert np.log2(np.array(errors[:-1]) / errors[1:]) == pytest.approx(orders, rel=0.1)


def test_bounds_2d_per_axis():
    prob2 = x_only_problem()
    bx, by = (compute_bounds(spec, np.array([[0.0, 1.0]])) for spec in prob2.axes)
    assert bx.c == pytest.approx(1.0)
    assert bx.b_diff == pytest.approx(0.1)
    assert by.c == 0.0 and by.b_diff == 0.0


@pytest.mark.parametrize("axis", ["x", "y"])
def test_periodic_data_whose_ends_differ_is_rejected(axis):
    prob2 = x_only_problem()
    grid2 = build_grid_2d(-np.pi, np.pi, 24, -np.pi, np.pi, 12)
    u0 = initial_field(prob2, grid2, 0.0)  # sin(x): ends agree to round-off
    config = make_problem("linear_advdiff").make_config(order=1)
    advance(u0, 0.01, prob2, config, grid2)
    # a (ny+1, nx+1) field: x runs along the rows, y down the columns
    edge = u0.values[:, -1] if axis == "x" else u0.values[-1, :]
    edge += 1e-9
    with pytest.raises(ValueError, match=f"periodic data along {axis}"):
        advance(u0, 0.01, prob2, config, grid2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_initial_data_is_rejected(bad):
    prob2 = x_only_problem()
    grid2 = build_grid_2d(-np.pi, np.pi, 24, -np.pi, np.pi, 12)
    u0 = initial_field(prob2, grid2, 0.0)
    u0.values[5, 9] = bad
    config = make_problem("linear_advdiff").make_config(order=3, beta=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="initial data u0 holds non-finite"):
            advance(u0, 0.01, prob2, config, grid2)
