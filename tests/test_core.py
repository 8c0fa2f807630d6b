import re

import numpy as np
import pytest

from advdiff import (Boundary, ProblemSpec, ProblemSpec2D, SchemeConfig,
                     WaveBounds, build_grid_1d, build_grid_2d, compute_bounds,
                     compute_dt, initial_field, make_problem)
from advdiff.core import unique_nodes


def test_grid_basic_examples():
    g = build_grid_1d(0.0, 1.0, 8)
    assert np.allclose(g.nodes[:3], [0.0, 0.125, 0.25])
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
    assert np.all(np.diff(g.nodes) > 0)

    g = build_grid_1d(-np.pi, np.pi, 40)
    assert g.dx == pytest.approx(np.pi / 20)

    g = build_grid_1d(-6.0, 6.0, 200)
    assert g.dx == pytest.approx(0.06)


def test_grid_validation():
    with pytest.raises(ValueError):
        build_grid_1d(1.0, 0.0, 20)
    with pytest.raises(ValueError):
        build_grid_1d(0.0, 1.0, 4)


@pytest.mark.parametrize("a, b", [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0),
                                  (0.0, np.nan), (-1e308, 1e308)])
def test_grid_rejects_nonfinite_ends(a, b):
    # an infinite end, or a span that overflows, made dx = inf and nan nodes
    with pytest.raises(ValueError, match="need finite ends with b > a"):
        build_grid_1d(a, b, 10)
    with pytest.raises(ValueError, match="need finite ends with b > a"):
        build_grid_2d(a, b, 10, 0.0, 1.0, 10)
    with pytest.raises(ValueError, match="need finite ends with b > a"):
        build_grid_2d(0.0, 1.0, 10, a, b, 10)


@pytest.mark.parametrize("n_cells", [6.5, 8.0, True])
def test_grid_rejects_non_integer_cell_counts(n_cells):
    # 6.5 cells would silently become 6 with the last node past b
    with pytest.raises(ValueError, match="n_cells must be an integer"):
        build_grid_1d(0.0, 1.0, n_cells)


def test_grid_accepts_numpy_integers():
    g = build_grid_1d(0.0, 1.0, np.int64(8))
    assert g.n_cells == 8 and g.nodes[-1] == 1.0


def test_grid_2d():
    g = build_grid_2d(0, 1, 10, -1, 1, 20)
    assert g.gx.n_cells == 10 and g.gy.n_cells == 20
    assert g.gy.dx == pytest.approx(0.1)


def test_initial_field_samples_u0_on_the_nodes():
    # 1D: u0 at the N+1 nodes, bit for bit
    prob = ProblemSpec(flux=np.sin, flux_deriv=np.cos, diffusion=np.sin,
                       diffusion_deriv=np.cos, initial=lambda x: np.exp(np.sin(3 * x)))
    grid = build_grid_1d(-np.pi, np.pi, 40)
    u = initial_field(prob, grid, 0.25)
    assert u.time == 0.25
    assert u.values.tobytes() == prob.initial(grid.nodes).tobytes()
    # 2D with nx != ny: a (ny+1, nx+1) field with x along the last axis
    zero = lambda u: 0.0 * u
    prob2 = ProblemSpec2D(f1=zero, f1_deriv=zero, g1=zero, g1_deriv=zero,
                          f2=zero, f2_deriv=zero, g2=zero, g2_deriv=zero,
                          initial=lambda x, y: x + 10.0 * y)
    grid2 = build_grid_2d(0.0, 1.0, 8, -1.0, 1.0, 12)
    u2 = initial_field(prob2, grid2, 0.0).values
    assert u2.shape == (13, 9)
    for j, y in enumerate(grid2.gy.nodes):
        assert np.array_equal(u2[j], grid2.gx.nodes + 10.0 * y)


def quadratic_problem():
    return ProblemSpec(flux=lambda u: u ** 2, flux_deriv=lambda u: 2 * u,
                       diffusion=lambda u: u,
                       diffusion_deriv=lambda u: np.ones_like(np.asarray(u, dtype=float)),
                       initial=np.sin)


def test_bounds_quadratic_flux():
    prob = quadratic_problem()
    b = compute_bounds(prob, np.array([-1.0, 0.2, 1.0]))
    assert b.c == pytest.approx(2.0, rel=1e-5)
    assert b.b_diff == pytest.approx(1.0)


def test_bounds_brute_force_agreement():
    # nonmonotone rational flux: dense sampling vs an independent fine scan
    case = make_problem("buckley_leverett", gravity=True)
    u = np.array([0.0, 1.0])
    b = compute_bounds(case.spec, u)
    uu = np.linspace(-1e-5, 1 + 1e-5, 400001)
    brute = np.max(np.abs(case.spec.flux_deriv(uu)))
    assert b.c == pytest.approx(brute, rel=1e-4)


def test_bounds_monotone_in_range():
    prob = quadratic_problem()
    small = compute_bounds(prob, np.array([-0.5, 0.5]))
    large = compute_bounds(prob, np.array([-1.0, 1.0]))
    assert large.c >= small.c and large.b_diff >= small.b_diff


def test_bounds_rejects_backward_diffusion():
    prob = ProblemSpec(flux=lambda u: u, flux_deriv=lambda u: u * 0 + 1,
                       diffusion=lambda u: -(u ** 2), diffusion_deriv=lambda u: -2 * u,
                       initial=np.sin)
    with pytest.raises(ValueError):
        compute_bounds(prob, np.array([0.1, 1.0]))


def test_bounds_rejects_nonfinite():
    prob = ProblemSpec(flux=lambda u: u, flux_deriv=lambda u: 1.0 / (u - u),
                       diffusion=lambda u: u, diffusion_deriv=lambda u: u * 0 + 1,
                       initial=np.sin)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            compute_bounds(prob, np.array([0.0, 1.0]))


def test_dt_formula_1d():
    config = SchemeConfig(order=1, beta=1.0, cfl=0.5)
    grid = build_grid_1d(0, 1, 10)
    dt = compute_dt(config, (WaveBounds(c=1.0, b_diff=1.0),), grid)
    assert dt == pytest.approx(0.025)

    config = SchemeConfig(order=1, beta=1.0, cfl=2.0)
    grid = build_grid_1d(-np.pi, np.pi, 40)
    dt = compute_dt(config, (WaveBounds(c=1.0, b_diff=0.01),), grid)
    assert dt == pytest.approx(2 * (np.pi / 20) / 1.01)


def test_dt_formula_2d_symmetric():
    config = SchemeConfig(order=1, beta=1.0, cfl=0.5)
    grid = build_grid_2d(0, 1, 10, 0, 1, 10)
    b = WaveBounds(c=1.0, b_diff=0.5)
    dt = compute_dt(config, (b, b), grid)
    assert dt == pytest.approx(0.5 * 0.1 / 1.5)


def test_dt_scales_linearly_in_dx():
    config = SchemeConfig(order=2, beta=0.5, cfl=0.7)
    bounds = (WaveBounds(c=0.3, b_diff=1.1),)
    dts = [compute_dt(config, bounds, build_grid_1d(0, 1, n)) for n in (10, 20, 40)]
    assert dts[0] / dts[1] == pytest.approx(2.0)
    assert dts[1] / dts[2] == pytest.approx(2.0)


def test_dt_rejects_fully_degenerate():
    config = SchemeConfig(order=1, beta=1.0)
    with pytest.raises(ValueError):
        compute_dt(config, (WaveBounds(c=0.0, b_diff=0.0),), build_grid_1d(0, 1, 10))
    # one WaveBounds per grid axis, no more and no fewer
    b = WaveBounds(c=1.0, b_diff=0.5)
    with pytest.raises(ValueError):
        compute_dt(config, (b, b), build_grid_1d(0, 1, 10))
    with pytest.raises(ValueError):
        compute_dt(config, (b,), build_grid_2d(0, 1, 10, 0, 1, 10))


def test_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(order=4)
    with pytest.raises(ValueError):
        SchemeConfig(order=2, beta=-1.0)
    with pytest.raises(ValueError):
        SchemeConfig(order=2, quadrature="weno9")
    assert SchemeConfig(order=3).cross_term_k3 is True
    assert SchemeConfig(order=np.int64(2)).order == 2


@pytest.mark.parametrize("order", [True, 3.0])
def test_config_rejects_non_integer_order(order):
    with pytest.raises(ValueError, match="order must be 1, 2 or 3"):
        SchemeConfig(order=order)


@pytest.mark.parametrize("name", ["filter_enabled", "cross_term_k3"])
@pytest.mark.parametrize("value", ["no", 0, 1, 0.0, None])
def test_config_rejects_non_bool_switches(name, value):
    # a truthy string would switch the filter on, and 0.0 would be kept as given
    with pytest.raises(ValueError, match=f"{name} must be a bool"):
        SchemeConfig(order=3, **{name: value})
    # numpy's bool, as a comparison of arrays gives it, is a bool
    assert not getattr(SchemeConfig(order=3, **{name: np.bool_(False)}), name)


@pytest.mark.parametrize("name", ["beta", "cfl"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_config_rejects_nonfinite_beta_and_cfl(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        SchemeConfig(order=2, **{name: value})


@pytest.mark.parametrize("name", ["beta", "cfl"])
@pytest.mark.parametrize("value", [True, np.bool_(True)])
def test_config_rejects_a_bool_beta_or_cfl(name, value):
    # True used to be kept as a step parameter of 1
    with pytest.raises(ValueError, match=f"{name} must be a number, not a bool"):
        SchemeConfig(order=2, **{name: value})


def test_boundary_enum_values():
    assert Boundary.PERIODIC.value == "periodic"
    assert Boundary.HOMOGENEOUS.value == "homogeneous"


@pytest.mark.parametrize("bc", list(Boundary))
def test_unique_nodes_rejects_a_field_of_the_wrong_shape(bc):
    # N+1 nodes per axis, x along the last, whatever the boundary
    grid = build_grid_1d(0.0, 1.0, 10)
    with pytest.raises(ValueError, match=re.escape("shape (11,)") + ".*"
                       + re.escape("shape (10,)")):
        unique_nodes(np.zeros(10), bc, grid)
    grid2 = build_grid_2d(0.0, 1.0, 12, 0.0, 1.0, 8)
    with pytest.raises(ValueError, match=re.escape("shape (9, 13)") + ".*"
                       + re.escape("shape (13, 9)")):
        unique_nodes(np.zeros((13, 9)), bc, grid2)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_unique_nodes_rejects_a_periodic_seam_gap(axis):
    grid = build_grid_2d(-np.pi, np.pi, 12, -np.pi, np.pi, 8)
    # sin(x) cos(y): node N repeats node 0 to round-off on both axes
    values = np.sin(grid.gx.nodes) * np.cos(grid.gy.nodes)[:, None]
    kept, restore = unique_nodes(values, Boundary.PERIODIC, grid)
    assert kept.tobytes() == values[:-1, :-1].tobytes()
    full = restore(kept)
    assert np.array_equal(full[:, -1], full[:, 0]) and np.array_equal(full[-1], full[0])
    edge = values[:, -1] if axis == "x" else values[-1, :]
    edge += 1e-9
    with pytest.raises(ValueError, match=f"periodic data along {axis} differs at its two ends"):
        unique_nodes(values, Boundary.PERIODIC, grid)
    # homogeneous data keeps every node, and its rule copies them
    kept, restore = unique_nodes(values, Boundary.HOMOGENEOUS, grid)
    assert kept is values and restore(kept) is not kept
    assert restore(kept).tobytes() == values.tobytes()
