import re
import warnings

import numpy as np
import pytest

from advdiff import (Boundary, ProblemSpec, SchemeConfig, SolutionField,
                     UnstableSolution, advance, build_grid_1d, compute_bounds,
                     compute_dt, make_problem, rk_step)
from advdiff.operator import build_H
from advdiff.stability import rk_multiplier


@pytest.mark.parametrize("order", [1, 2, 3])
def test_zero_operator_keeps_field(order):
    u = SolutionField(values=np.linspace(0, 1, 11), time=0.5)
    out = rk_step(u, 0.1, order, lambda v: np.zeros_like(v))
    # k=3 reassembles u as u/3 + 2u/3, so exactness is up to one ulp
    assert np.allclose(out.values, u.values, rtol=1e-15, atol=0)
    assert out.time == pytest.approx(0.6)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("z", [-0.3, -1.7, 0.25])
def test_scalar_linear_multiplier(order, z):
    # H[u] = (z/dt) u: the stage combinations amount to R_k(z)
    dt = 0.37
    u = SolutionField(values=np.array([1.0, -2.0]), time=0.0)
    out = rk_step(u, dt, order, lambda v: (z / dt) * v)
    assert np.allclose(out.values, rk_multiplier(order, z) * u.values, rtol=1e-14)


def test_rk_step_rejects_bad_input():
    u = SolutionField(values=np.ones(4))
    with pytest.raises(ValueError):
        rk_step(u, -0.1, 1, lambda v: v)
    with pytest.raises(ValueError):
        rk_step(u, 0.1, 4, lambda v: v)


def test_nonfinite_stage_raises():
    u = SolutionField(values=np.ones(4))
    with pytest.raises(UnstableSolution):
        rk_step(u, 0.1, 2, lambda v: np.full_like(v, np.inf))


def test_advance_identity_when_already_there():
    case = make_problem("linear_advdiff", c=1.0, b=0.01)
    grid = case.build_grid(40)
    u0 = case.initial_field(grid)
    out = advance(u0, 0.0, case.spec, case.make_config(order=1, beta=1.0), grid)
    assert out.time == 0.0
    # node N, within round-off of node 0 on input, repeats node 0 exactly
    assert np.array_equal(out.values[:-1], u0.values[:-1])
    assert out.values[-1] == u0.values[0] != u0.values[-1]


def test_advance_rejects_backwards_target():
    case = make_problem("linear_advdiff")
    grid = case.build_grid(40)
    u0 = case.initial_field(grid)
    u0.time = 1.0
    with pytest.raises(ValueError):
        advance(u0, 0.5, case.spec, case.make_config(order=1, beta=1.0), grid)


@pytest.mark.parametrize("T", [np.nan, np.inf])
def test_advance_rejects_nonfinite_target(T):
    case = make_problem("linear_advdiff")
    grid = case.build_grid(40)
    with pytest.raises(ValueError, match="target time must be finite"):
        advance(case.initial_field(grid), T, case.spec, case.make_config(order=1), grid)


def test_advance_rejects_periodic_data_whose_ends_differ():
    case = make_problem("linear_advdiff")
    grid = case.build_grid(40)
    u0 = case.initial_field(grid)
    # the catalog's sin data closes to round-off and is accepted
    assert 0 < abs(u0.values[-1] - u0.values[0]) <= 1e-15
    advance(u0, 0.01, case.spec, case.make_config(order=1), grid)
    u0.values[-1] += 1e-9
    with pytest.raises(ValueError, match="periodic data along x"):
        advance(u0, 0.01, case.spec, case.make_config(order=1), grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_advance_rejects_nonfinite_initial_data(bad):
    case = make_problem("linear_advdiff")
    grid = case.build_grid(40)
    u0 = case.initial_field(grid)
    u0.values[17] = bad
    # rejected before the first step, so no arithmetic warning is emitted
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="initial data u0 holds non-finite"):
            advance(u0, 0.01, case.spec, case.make_config(order=3), grid)


@pytest.mark.parametrize("centre", [0.0, 1.0])
def test_filtered_periodic_run_keeps_its_seam(centre):
    # linear advection of a unit pulse centred at 0 or straddling the seam
    # x = +-1: node N repeats node 0 exactly in the output and in every
    # snapshot, which advance accepts again
    spec = ProblemSpec(flux=lambda u: u, flux_deriv=np.ones_like,
                       diffusion=np.zeros_like, diffusion_deriv=np.zeros_like,
                       initial=None, bc=Boundary.PERIODIC)
    grid = build_grid_1d(-1.0, 1.0, 64)
    dist = np.abs(grid.nodes - centre)
    u0 = SolutionField((np.minimum(dist, 2.0 - dist) < 0.5).astype(float))
    config = SchemeConfig(order=3, beta=1.0, cfl=1.0)
    u, snaps = advance(u0, 0.2, spec, config, grid, snapshot_times=[0.05, 0.1])
    for field in (u, *snaps.values()):
        assert field.values[-1] == field.values[0]
    advance(u, 0.3, spec, config, grid)


def test_snapshots_land_on_requested_times():
    case = make_problem("linear_advdiff", c=1.0, b=0.01)
    grid = case.build_grid(40)
    u0 = case.initial_field(grid)
    config = case.make_config(order=2, beta=0.5, cfl=0.5)
    final, snaps = advance(u0, 1.0, case.spec, config, grid,
                           snapshot_times=[0.25, 0.5])
    assert set(snaps) == {0.25, 0.5}
    for t, field in snaps.items():
        assert field.time == pytest.approx(t, abs=1e-12)
    assert final.time == pytest.approx(1.0, abs=1e-12)


def test_duplicate_snapshot_times_give_one_snapshot():
    case = make_problem("linear_advdiff", c=1.0, b=0.01)
    grid = case.build_grid(40)
    config = case.make_config(order=2, beta=0.5, cfl=0.5)
    final, snaps = advance(case.initial_field(grid), 0.5, case.spec, config, grid,
                           snapshot_times=[0.25, 0.25])
    assert list(snaps) == [0.25]
    assert snaps[0.25].time == pytest.approx(0.25, abs=1e-12)
    assert final.time == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("times", [[0.25, 0.9], [0.0, 0.25], [-1.0]])
def test_out_of_range_snapshot_times_are_rejected(times):
    case = make_problem("linear_advdiff", c=1.0, b=0.01)
    grid = case.build_grid(40)
    config = case.make_config(order=2, beta=0.5, cfl=0.5)
    bad = [t for t in times if t != 0.25]
    with pytest.raises(ValueError, match=re.escape(str(bad))):
        advance(case.initial_field(grid), 0.5, case.spec, config, grid,
                snapshot_times=times)


def test_example1_table_entry_k1():
    case = make_problem("linear_advdiff", c=1.0, b=0.01)
    config = case.make_config(order=1, beta=1.0, cfl=0.5)
    grid = case.build_grid(40)
    u = advance(case.initial_field(grid), 2.0, case.spec, config, grid)
    err = np.max(np.abs(u.values - case.exact(grid.nodes, 2.0)))
    assert err == pytest.approx(7.260e-2, rel=0.02)


def test_example1_table_entry_k3_diffusive():
    case = make_problem("linear_advdiff", c=1.0, b=1.0)
    config = case.make_config(order=3, beta=0.4, cfl=1.0)
    grid = case.build_grid(160)
    u = advance(case.initial_field(grid), 2.0, case.spec, config, grid)
    err = np.max(np.abs(u.values - case.exact(grid.nodes, 2.0)))
    assert err == pytest.approx(2.788e-5, rel=0.02)


@pytest.mark.parametrize("order,beta", [(1, 1.0), (2, 0.5), (3, 0.4)])
def test_large_cfl_stays_bounded(order, beta):
    # CFL = 2 with the stability-limit beta: solution never grows
    case = make_problem("linear_advdiff", c=1.0, b=0.01)
    config = case.make_config(order=order, beta=beta, cfl=2.0)
    grid = case.build_grid(80)
    u = SolutionField(case.initial_field(grid).values[:-1])  # the N unique nodes
    cap = np.max(np.abs(u.values)) + 1e-8
    bounds = compute_bounds(case.spec, u)
    dt = compute_dt(config, bounds, grid)
    for _ in range(40):
        u = rk_step(u, dt, order,
                    lambda v: build_H(v, case.spec, config, bounds, dt, grid))
        assert np.max(np.abs(u.values)) <= cap


# solver-level invariances of the linear case (c = 1, b = 0.01, 64 cells,
# T = 0.5): the solve of transformed data must match the transformed solve
# to 1e-12 of the solution's size
_NODES = make_problem("linear_advdiff").build_grid(64).nodes
_DATA = {"smooth": np.sin(_NODES), "pulse": np.where(np.abs(_NODES) < 1.0, 1.0, 0.0)}


def _linear_solve(values, order, linear):
    case = make_problem("linear_advdiff", c=1.0, b=0.01)
    kw = dict(quadrature="linear6", filter_enabled=False) if linear else {}
    return advance(SolutionField(values), 0.5, case.spec, case.make_config(order, **kw),
                   case.build_grid(64)).values


def _translate(u, cells):
    """Periodic node data moved by whole cells; node N repeats node 0."""
    body = np.roll(u[:-1], cells)
    return np.append(body, body[0])


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("data, linear", [("smooth", True), ("pulse", True), ("smooth", False)],
                         ids=["smooth-linear6", "pulse-linear6", "smooth-defaults"])
def test_periodic_translation_commutes_with_the_solve(data, linear, order):
    # the defaults on the pulse reach 1.1e-12 through the filter (ROADMAP item 3)
    u0 = _DATA[data]
    u = _linear_solve(u0, order, linear)
    moved = _linear_solve(_translate(u0, 13), order, linear)
    assert np.max(np.abs(moved - _translate(u, 13))) <= 1e-12 * np.max(np.abs(u))


_AFFINE = [pytest.param(data, scale, shift, True, order, id=f"{data}-{name}-linear6-k{order}")
           for data in _DATA for order in (1, 2, 3)
           for name, scale, shift in (("plus2.5", 1.0, 2.5), ("times1e-4", 1e-4, 0.0),
                                      ("times1e4", 1e4, 0.0))]
_AFFINE.append(pytest.param(
    "pulse", 1e-4, 0.0, False, 3, id="pulse-times1e-4-defaults-k3",
    marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 3")))


@pytest.mark.parametrize("data, scale, shift, linear, order", _AFFINE)
def test_scaling_and_shifting_the_data_commute_with_the_solve(data, scale, shift, linear, order):
    # the WENO epsilon is absolute, so the defaults see small data as smooth
    u0 = _DATA[data]
    want = scale * _linear_solve(u0, order, linear) + shift
    got = _linear_solve(scale * u0 + shift, order, linear)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
