import numpy as np
import pytest

from advdiff import (Boundary, ProblemSpec, SchemeConfig, SolutionField, advance,
                     barenblatt, build_grid_1d, error_norms, exact_advdiff,
                     make_problem, reference_solution, solve_case)
from advdiff.problems import BETA_MAX_ADVECTION, convergence_study, observed_orders


def test_exact_advdiff_examples():
    x = np.linspace(-3, 3, 7)
    assert np.allclose(exact_advdiff(x, 0.0, 1.0, 1.0), np.sin(x))
    assert exact_advdiff(2.0, 2.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert exact_advdiff(1.0, 0.5, 2.0, 0.0) == pytest.approx(np.sin(0.0), abs=1e-15)


def test_barenblatt_examples():
    for m in (2, 3, 5, 8):
        assert barenblatt(0.0, 1.0, m) == pytest.approx(1.0)
    # support radius t^p sqrt(2m/(p(m-1))), p = 1/(m+1): sqrt(12) at t=1, m=2
    r = np.sqrt(12.0)
    assert barenblatt(r * (1 - 1e-6), 1.0, 2) > 0.0
    assert barenblatt(r * (1 + 1e-6), 1.0, 2) == 0.0
    x = np.linspace(-6, 6, 101)
    vals = barenblatt(x, 1.5, 3)
    assert np.all(vals[np.abs(x) >= 1.5 ** 0.25 * np.sqrt(12.0)] == 0.0)
    with pytest.raises(ValueError):
        barenblatt(0.0, 1.0, 1)


def test_barenblatt_mass_conserved():
    # the self-similar profile has time-independent integral
    x = np.linspace(-6, 6, 20001)
    masses = [np.trapezoid(barenblatt(x, t, 4), x) for t in (1.0, 1.5, 2.0)]
    assert np.allclose(masses, masses[0], rtol=1e-6)


def test_make_problem_catalog():
    case = make_problem("pme_barenblatt", m=5)
    assert case.domain == (-6.0, 6.0)
    assert case.t0 == 1.0 and case.t_final == 2.0
    grid = case.build_grid()
    assert grid.n_cells == 200
    u0 = case.initial_field(grid)
    assert np.max(u0.values) == pytest.approx(1.0)

    bl = make_problem("buckley_leverett")
    assert bl.spec.diffusion_deriv(np.array([0.5]))[0] == 0.01  # g'(1/2) = eps
    x0 = 1 - 1 / np.sqrt(2)
    vals = bl.spec.initial(np.array([x0 - 1e-9, x0 + 1e-9]))
    assert vals[0] == 0.0 and vals[1] == 1.0

    sd = make_problem("strong_degenerate")
    assert sd.spec.diffusion_deriv(np.array([0.5]))[0] == 0.1  # g' = eps off the core
    u = np.array([0.0, 0.2, 0.5, -0.5])
    assert np.allclose(sd.spec.diffusion_deriv(u), [0.0, 0.0, 0.1, 0.1])

    with pytest.raises(ValueError):
        make_problem("unknown_case")


def test_build_grid_takes_sizes_as_given():
    # 0 is a size, not "use the default": it reaches the 6-cell check
    lin = make_problem("linear_advdiff")
    assert lin.build_grid().n_cells == lin.default_n
    with pytest.raises(ValueError, match="at least 6 cells"):
        lin.build_grid(0)
    with pytest.raises(ValueError, match="1D"):
        lin.build_grid(40, 7)
    sd2 = make_problem("strong_degenerate_2d")
    assert [g.n_cells for g in sd2.build_grid(24).axes] == [24, 24]
    assert [g.n_cells for g in sd2.build_grid(24, 12).axes] == [24, 12]
    with pytest.raises(ValueError, match="at least 6 cells"):
        sd2.build_grid(24, 0)


def test_make_problem_rejects_unused_params():
    with pytest.raises(ValueError, match="c, q"):
        make_problem("pme_barenblatt", c=2.0, q=1)
    assert make_problem("pme_barenblatt", m=3).spec.diffusion(np.array(2.0)) == 8.0  # u^m


def test_default_beta_by_kind():
    # pure diffusion case falls back to the diffusion column away from its override
    pme = make_problem("pme_barenblatt", m=2)
    assert pme.default_beta(3) == 0.8
    assert pme.default_beta(1) == 2.0
    mixed = make_problem("linear_advdiff")
    assert mixed.default_beta(2) == 0.5
    two_d = make_problem("strong_degenerate_2d")
    assert two_d.default_beta(3) == 0.2
    assert two_d.default_beta(2) == pytest.approx(0.25)  # half the 1D mixed value


def test_reference_scheme_constant_and_zero_flux():
    case = make_problem("pme_barenblatt", m=3)
    case.spec.initial = lambda x: np.full_like(np.asarray(x, dtype=float), 0.5)
    grid, ref = reference_solution(case, T=1.05, n_ref=120)
    assert np.allclose(ref.values, 0.5, atol=1e-12)


def test_reference_scheme_matches_exact_linear():
    # frozen from a direct run of the quoted first-order scheme; its O(dx)
    # error constant (~1.0) puts the N=3000 error near 2.0e-3 on this setup
    case = make_problem("linear_advdiff", c=1.0, b=0.01)
    grid, ref = reference_solution(case, T=2.0, n_ref=3000)
    err = np.max(np.abs(ref.values - case.exact(grid.nodes, 2.0)))
    assert err == pytest.approx(2.031e-3, rel=0.05)


def test_periodic_reference_keeps_end_nodes_equal():
    # the period is N cells: the scheme evolves the N unique nodes, and the
    # result samples the grid's N+1 nodes, node N repeating node 0
    case = make_problem("linear_advdiff", c=1.0, b=0.01)
    grid, ref = reference_solution(case, T=2.0, n_ref=200)
    assert ref.values.shape == grid.nodes.shape
    assert ref.values[0] == ref.values[-1]


def test_reference_scheme_first_order_convergence():
    case = make_problem("linear_advdiff", c=1.0, b=0.01)
    errs = []
    for n in (250, 500, 1000):
        grid, ref = reference_solution(case, T=1.0, n_ref=n)
        errs.append(np.max(np.abs(ref.values - case.exact(grid.nodes, 1.0))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 0.8)


def test_error_norms_examples():
    case = make_problem("linear_advdiff")
    grid = case.build_grid(40)
    u = SolutionField(values=np.sin(grid.nodes), time=0.0)
    rep = error_norms(u, lambda x, t: np.sin(x), grid)
    assert rep.linf == 0.0 and rep.l1 == 0.0

    u2 = SolutionField(values=np.sin(grid.nodes) + 0.25, time=0.0)
    rep2 = error_norms(u2, lambda x, t: np.sin(x), grid)
    assert rep2.linf == pytest.approx(0.25)
    assert rep2.l1 == pytest.approx(0.25 * (grid.dx * grid.nodes.size), rel=1e-12)


def test_observed_orders_doubling():
    from advdiff.problems import ErrorReport
    reps = [ErrorReport(linf=4e-2, l1=0, n_cells=40),
            ErrorReport(linf=1e-2, l1=0, n_cells=80)]
    observed_orders(reps)
    assert reps[0].order_vs_previous is None
    assert reps[1].order_vs_previous == pytest.approx(2.0)


def test_convergence_study_second_order_block():
    case = make_problem("linear_advdiff", c=1.0, b=0.01)
    reps = convergence_study(case, case.make_config(order=2, beta=0.5, cfl=0.5),
                             (40, 80, 160))
    assert reps[1].order_vs_previous == pytest.approx(1.957, abs=0.15)
    assert reps[2].order_vs_previous == pytest.approx(1.985, abs=0.15)


def test_solve_case_2d_smoke():
    case = make_problem("strong_degenerate_2d")
    config = case.make_config(order=2, beta=0.25, cfl=0.5)
    grid, u = solve_case(case, config, n=24, T=0.05)
    assert u.values.shape == (25, 25)
    assert np.max(np.abs(u.values)) <= 1.0 + 1e-2


def test_strong_degenerate_matches_reference():
    case = make_problem("strong_degenerate")
    config = case.make_config(order=3)
    grid, u = solve_case(case, config, n=200)
    ref_grid, ref = reference_solution(case, n_ref=1000)
    ref_vals = np.interp(grid.nodes, ref_grid.nodes, ref.values)
    l1 = grid.dx * np.sum(np.abs(u.values - ref_vals))
    assert l1 == pytest.approx(2.85e-2, rel=0.2)
    assert np.max(np.abs(u.values)) <= 1.0 + 1e-2


@pytest.mark.parametrize("cross_term", [True, False])
def test_strong_degenerate_stays_antisymmetric(cross_term):
    # the exact solution obeys u(x,t) = -u(-x,t); the k=3 correction's f-
    # half mirrors its f+ half, so the scheme keeps that with or without it
    case = make_problem("strong_degenerate")
    config = case.make_config(order=3, cross_term_k3=cross_term)
    grid, u = solve_case(case, config, n=200)
    assert np.max(np.abs(u.values + u.values[::-1])) <= 1e-14


def test_strong_degenerate_2d_stays_antisymmetric():
    # u(x, y) = -u(-x, -y) holds for the two discs; at N = 40 no node falls
    # on a disc edge, so the sampled data is antisymmetric too
    case = make_problem("strong_degenerate_2d")
    grid = case.build_grid(40)
    u0 = case.initial_field(grid).values
    assert np.array_equal(u0, -u0[::-1, ::-1])
    _, u = solve_case(case, case.make_config(order=3), n=40, T=0.125)
    assert np.max(np.abs(u.values + u.values[::-1, ::-1])) <= 1e-14


@pytest.mark.parametrize("linear", [False, True], ids=["defaults", "linear6"])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("b, beta, cfl, T", [(0.01, 0.4, 0.5, 2.0), (0.0, 1.2, 4.0, 40.0)],
                         ids=["short", "long"])
def test_reflection_reverses_the_solution(b, beta, cfl, T, order, linear):
    # x -> -x maps the linear case with speed c and data sin x onto the case
    # with speed -c and the same data; beta is capped at the order's bound
    kw = dict(quadrature="linear6", filter_enabled=False) if linear else {}
    beta = min(beta, BETA_MAX_ADVECTION[order])
    u = {}
    for c in (1.0, -1.0):
        case = make_problem("linear_advdiff", c=c, b=b)
        _, u[c] = solve_case(case, case.make_config(order, beta, cfl, **kw), n=160, T=T)
    assert np.max(np.abs(u[-1.0].values + u[1.0].values[::-1])) <= 1e-12


def _burgers_run(bc, initial, a, b, n, T):
    """f = u^2/2 from initial on [a, b] with n cells to time T at k=3,
    beta=1, CFL=1; returns (grid, u0, u)."""
    prob = ProblemSpec(flux=lambda u: 0.5 * u ** 2, flux_deriv=lambda u: u,
                       diffusion=lambda u: 0.0 * u, diffusion_deriv=lambda u: 0.0 * u,
                       initial=initial, bc=bc)
    grid = build_grid_1d(a, b, n)
    u0 = SolutionField(values=initial(grid.nodes), time=0.0)
    u = advance(u0, T, prob, SchemeConfig(order=3, beta=1.0, cfl=1.0), grid)
    return grid, u0.values, u.values


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_periodic_burgers_conserves_mass():
    _, u0, u = _burgers_run(Boundary.PERIODIC, lambda x: 0.5 + np.sin(x),
                            -np.pi, np.pi, 200, 1.5)
    m0 = np.sum(u0[:-1])
    assert abs(np.sum(u[:-1]) - m0) <= 1e-12 * abs(m0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_riemann_shock_position_converges():
    # a step 1 -> 0 at x = -0.5 under f = u^2/2 puts the shock at x = 0 at T = 1
    errors = []
    for n in (400, 800):
        grid, _, u = _burgers_run(Boundary.HOMOGENEOUS,
                                  lambda x: np.where(x < -0.5, 1.0, 0.0), -2.0, 2.0, n, 1.0)
        i = np.nonzero((u[:-1] >= 0.5) & (u[1:] < 0.5))[0][-1]
        errors.append(abs(grid.nodes[i] + (u[i] - 0.5) / (u[i] - u[i + 1]) * grid.dx))
    assert errors[1] <= 0.6 * errors[0]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_pme_two_box_conserves_mass():
    case = make_problem("pme_two_box")
    grid = case.build_grid()
    m0 = np.sum(case.initial_field(grid).values)
    _, u = solve_case(case, case.make_config(order=3))
    assert abs(np.sum(u.values) - m0) <= 1e-12 * m0


def test_buckley_leverett_gravity_bounds():
    case = make_problem("buckley_leverett", gravity=True)
    grid, u = solve_case(case, case.make_config(order=3), n=100)
    assert np.min(u.values) >= -1e-2
    assert np.max(u.values) <= 1.0 + 1e-2


def test_two_box_short_run_bounds():
    case = make_problem("pme_two_box")
    grid, u = solve_case(case, case.make_config(order=3), n=100, T=0.02)
    assert np.max(u.values) <= 2.0            # boxes only decay
    assert np.min(u.values) >= -2e-2


def test_buckley_leverett_2d_smoke():
    case = make_problem("buckley_leverett_2d")
    grid, u = solve_case(case, case.make_config(order=3), n=40, T=0.1)
    assert u.values.shape == (41, 41)
    assert np.min(u.values) >= -2e-2
    assert np.max(u.values) <= 1.0 + 1e-2
