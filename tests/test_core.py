import numpy as np
import pytest

from advdiff import (Boundary, ProblemSpec, SchemeConfig, SolutionField,
                     WaveBounds, build_grid_1d, build_grid_2d, compute_bounds,
                     compute_dt, make_problem)


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


def quadratic_problem():
    return ProblemSpec(flux=lambda u: u ** 2, flux_deriv=lambda u: 2 * u,
                       diffusion=lambda u: u,
                       diffusion_deriv=lambda u: np.ones_like(np.asarray(u, dtype=float)),
                       initial=np.sin)


def test_bounds_quadratic_flux():
    prob = quadratic_problem()
    b = compute_bounds(prob, SolutionField(values=np.array([-1.0, 0.2, 1.0])))
    assert b.c == pytest.approx(2.0, rel=1e-5)
    assert b.b_diff == pytest.approx(1.0)


def test_bounds_brute_force_agreement():
    # nonmonotone rational flux: dense sampling vs an independent fine scan
    case = make_problem("buckley_leverett", gravity=True)
    u = SolutionField(values=np.array([0.0, 1.0]))
    b = compute_bounds(case.spec, u)
    uu = np.linspace(-1e-5, 1 + 1e-5, 400001)
    brute = np.max(np.abs(case.spec.flux_deriv(uu)))
    assert b.c == pytest.approx(brute, rel=1e-4)


def test_bounds_monotone_in_range():
    prob = quadratic_problem()
    small = compute_bounds(prob, SolutionField(values=np.array([-0.5, 0.5])))
    large = compute_bounds(prob, SolutionField(values=np.array([-1.0, 1.0])))
    assert large.c >= small.c and large.b_diff >= small.b_diff


def test_bounds_rejects_backward_diffusion():
    prob = ProblemSpec(flux=lambda u: u, flux_deriv=lambda u: u * 0 + 1,
                       diffusion=lambda u: -(u ** 2), diffusion_deriv=lambda u: -2 * u,
                       initial=np.sin)
    with pytest.raises(ValueError):
        compute_bounds(prob, SolutionField(values=np.array([0.1, 1.0])))


def test_bounds_rejects_nonfinite():
    prob = ProblemSpec(flux=lambda u: u, flux_deriv=lambda u: 1.0 / (u - u),
                       diffusion=lambda u: u, diffusion_deriv=lambda u: u * 0 + 1,
                       initial=np.sin)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            compute_bounds(prob, SolutionField(values=np.array([0.0, 1.0])))


def test_dt_formula_1d():
    config = SchemeConfig(order=1, beta=1.0, cfl=0.5)
    grid = build_grid_1d(0, 1, 10)
    dt = compute_dt(config, WaveBounds(c=1.0, b_diff=1.0), grid)
    assert dt == pytest.approx(0.025)

    config = SchemeConfig(order=1, beta=1.0, cfl=2.0)
    grid = build_grid_1d(-np.pi, np.pi, 40)
    dt = compute_dt(config, WaveBounds(c=1.0, b_diff=0.01), grid)
    assert dt == pytest.approx(2 * (np.pi / 20) / 1.01)


def test_dt_formula_2d_symmetric():
    config = SchemeConfig(order=1, beta=1.0, cfl=0.5)
    grid = build_grid_2d(0, 1, 10, 0, 1, 10)
    b = WaveBounds(c=1.0, b_diff=0.5)
    dt = compute_dt(config, (b, b), grid)
    assert dt == pytest.approx(0.5 * 0.1 / 1.5)


def test_dt_scales_linearly_in_dx():
    config = SchemeConfig(order=2, beta=0.5, cfl=0.7)
    bounds = WaveBounds(c=0.3, b_diff=1.1)
    dts = [compute_dt(config, bounds, build_grid_1d(0, 1, n)) for n in (10, 20, 40)]
    assert dts[0] / dts[1] == pytest.approx(2.0)
    assert dts[1] / dts[2] == pytest.approx(2.0)


def test_dt_rejects_fully_degenerate():
    config = SchemeConfig(order=1, beta=1.0)
    with pytest.raises(ValueError):
        compute_dt(config, WaveBounds(c=0.0, b_diff=0.0), build_grid_1d(0, 1, 10))
    # one WaveBounds per grid axis, no more and no fewer
    b = WaveBounds(c=1.0, b_diff=0.5)
    with pytest.raises(ValueError):
        compute_dt(config, (b, b), build_grid_1d(0, 1, 10))
    with pytest.raises(ValueError):
        compute_dt(config, b, build_grid_2d(0, 1, 10, 0, 1, 10))


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


@pytest.mark.parametrize("name", ["beta", "cfl"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_config_rejects_nonfinite_beta_and_cfl(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        SchemeConfig(order=2, **{name: value})


def test_boundary_enum_values():
    assert Boundary.PERIODIC.value == "periodic"
    assert Boundary.HOMOGENEOUS.value == "homogeneous"
