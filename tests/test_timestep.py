import os
import platform
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from advdiff import (Boundary, ProblemSpec, SchemeConfig, SolutionField,
                     UnstableSolution, advance, build_grid_1d, compute_bounds,
                     compute_dt, make_problem)
from advdiff import timestep
from advdiff.operator import build_H, kernel_families
from advdiff.stability import rk_multiplier
from advdiff.timestep import rk_step


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


def test_advance_rejects_a_field_of_the_wrong_shape():
    # N+1 nodes per axis, periodic or not; a 40-node cos field on a 40-cell
    # periodic grid closes, so only the shape check can name it
    config = SchemeConfig(order=1, beta=1.0)
    case = make_problem("linear_advdiff")
    grid = case.build_grid(40)
    u0 = SolutionField(np.cos(np.linspace(-np.pi, np.pi, 40)))
    assert u0.values[-1] == u0.values[0]
    with pytest.raises(ValueError, match=re.escape("shape (41,)") + ".*"
                       + re.escape("shape (40,)")):
        advance(u0, 0.1, case.spec, config, grid)
    case2 = make_problem("strong_degenerate_2d")
    grid2 = case2.build_grid(12, ny=8)
    good = case2.initial_field(grid2)
    assert good.values.shape == (9, 13)
    for bad in (good.values.T, good.values[:, :-1]):
        with pytest.raises(ValueError, match=re.escape("shape (9, 13)") + ".*"
                           + re.escape(f"shape {bad.shape}")):
            advance(SolutionField(bad), 0.1, case2.spec, config, grid2)


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


def _pulse_run():
    """advance's arguments but u0, and the 0/1 pulse (node N repeating node
    0) that u0 holds, on the linear case (c = b = 1, k = 3) to T = 0.5."""
    case = make_problem("linear_advdiff", c=1.0, b=1.0)
    grid = case.build_grid(40)
    pulse = np.abs(grid.nodes) < 1.0
    return pulse, (0.5, case.spec, case.make_config(order=3, beta=0.4), grid)


@pytest.mark.parametrize("dtype", [np.bool_, np.int64, np.uint8, np.float16, np.float32])
def test_advance_reads_real_input_as_float64(dtype):
    # the values convert exactly, so the solve is the float64 solve bit for bit
    pulse, args = _pulse_run()
    want = advance(SolutionField(pulse.astype(np.float64)), *args).values
    got = advance(SolutionField(pulse.astype(dtype)), *args).values
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.complex128, object, np.str_])
def test_advance_rejects_input_that_is_not_real(dtype):
    pulse, args = _pulse_run()
    bad = pulse.astype(dtype)
    with pytest.raises(ValueError, match=re.escape(f"got dtype {bad.dtype}")):
        advance(SolutionField(bad), *args)


def test_advance_trims_the_heap_once_per_call_whether_it_returns_or_raises(monkeypatch):
    trims = []
    monkeypatch.setattr(timestep, "_heap_policy", lambda: trims.append)
    advance(*_run("linear"))
    assert trims == [0]

    def unstable(u, dt, order, H):
        raise UnstableSolution("stage blew up")

    monkeypatch.setattr(timestep, "rk_step", unstable)
    with pytest.raises(UnstableSolution):
        advance(*_run("linear"))
    assert trims == [0, 0]


_FAULTS = textwrap.dedent("""
    import resource
    from advdiff import advance, make_problem
    case = make_problem("strong_degenerate_2d")
    grid = case.build_grid(128)
    config = case.make_config(order=3, beta=0.2, cfl=0.5)
    u0 = case.initial_field(grid)
    advance(u0, 0.04, case.spec, config, grid)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    advance(u0, 0.04, case.spec, config, grid)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's allocator policy")
def test_a_warm_2d_solve_does_not_fault_its_heap_back_in():
    # with glibc's default trimming the second solve takes 36k-53k minor
    # faults; with the heap kept mapped it takes about 900, the one refault
    # of what the first solve's malloc_trim returned
    src = str(Path(timestep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _FAULTS], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert int(out.stdout) < 5000


@pytest.mark.parametrize("centre", [0.0, 1.0])
def test_filtered_periodic_run_keeps_its_seam(centre):
    # linear advection of a unit pulse centred at 0 or straddling the seam
    # x = +-1: node N repeats node 0 exactly in every field advance returns,
    # so each is accepted again as the start of the next call
    spec = ProblemSpec(flux=lambda u: u, flux_deriv=np.ones_like,
                       diffusion=np.zeros_like, diffusion_deriv=np.zeros_like,
                       initial=None, bc=Boundary.PERIODIC)
    grid = build_grid_1d(-1.0, 1.0, 64)
    dist = np.abs(grid.nodes - centre)
    u0 = SolutionField((np.minimum(dist, 2.0 - dist) < 0.5).astype(float))
    config = SchemeConfig(order=3, beta=1.0, cfl=1.0)
    u = u0
    for t in (0.05, 0.1, 0.2):
        u = advance(u, t, spec, config, grid)
        assert u.values[-1] == u.values[0]
    advance(u, 0.3, spec, config, grid)


def test_chained_advance_lands_on_each_target():
    case = make_problem("linear_advdiff", c=1.0, b=0.01)
    grid = case.build_grid(40)
    u = case.initial_field(grid)
    config = case.make_config(order=2, beta=0.5, cfl=0.5)
    for t in (0.25, 0.5, 1.0):
        u = advance(u, t, case.spec, config, grid)
        assert u.time == pytest.approx(t, abs=1e-12)


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
    bounds = (compute_bounds(case.spec, u.values),)
    dt = compute_dt(config, bounds, grid)
    families = kernel_families(config, bounds, dt, grid)
    for _ in range(40):
        u = rk_step(u, dt, order,
                    lambda v: build_H(v, case.spec, config, bounds, grid, families))
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


def _record_steps(monkeypatch):
    """Route advance's kernel_families, compute_dt and rk_step through
    recorders; returns (builds, steps): the (bounds, dt) of every family
    build, and the bounds and taken dt of every step."""
    builds, bounds, dts = [], [], []

    def families(config, b, dt, grid):
        builds.append((b, dt))
        return kernel_families(config, b, dt, grid)

    def nominal_dt(config, b, grid):
        bounds.append(b)
        return compute_dt(config, b, grid)

    def step(u, dt, order, H):
        dts.append(dt)
        return rk_step(u, dt, order, H)

    monkeypatch.setattr(timestep, "kernel_families", families)
    monkeypatch.setattr(timestep, "compute_dt", nominal_dt)
    monkeypatch.setattr(timestep, "rk_step", step)
    return builds, lambda: list(zip(bounds, dts))


def _run(name):
    """advance's arguments (u0, T, problem, config, grid) for a periodic
    run: "linear" has constant bounds, and its last step is truncated;
    "burgers" (f = u^2/2 from 0.5 + 0.5 sin x) has bounds that move every
    step."""
    if name == "linear":
        case = make_problem("linear_advdiff")
        grid = case.build_grid(40)
        return case.initial_field(grid), 0.5, case.spec, case.make_config(order=2), grid
    prob = ProblemSpec(flux=lambda u: 0.5 * u ** 2, flux_deriv=lambda u: u,
                       diffusion=lambda u: 0.0 * u, diffusion_deriv=lambda u: 0.0 * u,
                       initial=lambda x: 0.5 + 0.5 * np.sin(x), bc=Boundary.PERIODIC)
    grid = build_grid_1d(-np.pi, np.pi, 40)
    return (SolutionField(values=prob.initial(grid.nodes), time=0.0), 1.0, prob,
            SchemeConfig(order=3, beta=0.4, cfl=0.5), grid)


def test_constant_bounds_build_families_once_per_distinct_dt(monkeypatch):
    builds, steps = _record_steps(monkeypatch)
    advance(*_run("linear"))
    taken = steps()
    assert len(taken) == 7 and taken[-1][1] < taken[0][1]  # the last step is truncated
    assert builds == [taken[0], taken[-1]]


def test_moving_bounds_rebuild_families_exactly_when_the_step_key_changes(monkeypatch):
    builds, steps = _record_steps(monkeypatch)
    advance(*_run("burgers"))
    taken = steps()
    assert builds == [key for i, key in enumerate(taken) if i == 0 or key != taken[i - 1]]
    assert len({key[0] for key in taken}) > 1


@pytest.mark.parametrize("name", ["linear", "burgers"])
def test_kept_families_give_the_bytes_of_fresh_ones(name):
    # a loop that builds every step's families afresh
    u0, T, prob, config, grid = _run(name)
    u = SolutionField(values=u0.values[:-1], time=u0.time)
    while u.time < T - 1e-12:
        bounds = (compute_bounds(prob, u.values),)
        dt = min(compute_dt(config, bounds, grid), T - u.time)
        families = kernel_families(config, bounds, dt, grid)
        u = rk_step(u, dt, config.order,
                    lambda v: build_H(v, prob, config, bounds, grid, families))
    want = np.append(u.values, u.values[0])
    assert advance(u0, T, prob, config, grid).values.tobytes() == want.tobytes()
