import functools

import numpy as np
import pytest

from advdiff import (Boundary, ProblemSpec, SchemeConfig, SolutionField, advance,
                     barenblatt, build_grid_1d, error_norms, exact_advdiff,
                     make_problem, reference_solution, solve_case)
from advdiff.problems import CASE_NAMES, convergence_study, observed_orders
from advdiff.quadrature import LINEAR6, WENO5


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
    # the degenerate cases' diffusion scales are fixed, not knobs
    for name in ("buckley_leverett", "strong_degenerate", "strong_degenerate_2d",
                 "buckley_leverett_2d"):
        with pytest.raises(ValueError, match=r"does not take parameter\(s\) eps"):
            make_problem(name, eps=0.02)


@pytest.mark.parametrize("name, knobs, message",
                         [("pme_barenblatt", dict(m=True), r"m must be a finite real number > 1"),
                          ("pme_two_box", dict(m=True), r"m must be a finite real number > 1"),
                          ("pme_two_box", dict(m=0.5), r"m must be a finite real number > 1"),
                          ("linear_advdiff", dict(b=-0.1), r"b must be a finite real number >= 0"),
                          ("linear_advdiff", dict(c=np.nan), r"c must be a finite real number"),
                          ("linear_advdiff", dict(c=True), r"c must be a finite real number")])
def test_make_problem_rejects_a_knob_value_outside_its_rule(name, knobs, message):
    # each was built as given: m = True the heat equation g(u) = u, b = -0.1
    # an anti-diffusive g, c = nan a NaN flux and c = True the speed 1
    with pytest.raises(ValueError, match=message):
        make_problem(name, **knobs)


def test_make_problem_takes_knob_values_inside_their_rule():
    assert make_problem("linear_advdiff", c=-1, b=0).spec.flux(2.0) == -2.0
    assert make_problem("linear_advdiff", c=np.float64(0.0)).spec.flux(2.0) == 0.0
    assert make_problem("pme_two_box", m=1.5).spec.diffusion(np.array(4.0)) == 8.0
    assert make_problem("pme_barenblatt", m=np.int64(3)).spec.diffusion(np.array(2.0)) == 8.0


def test_default_beta_by_kind():
    # a pure diffusion case declares the diffusion column, a 2D case half
    # the 1D combined one
    pme = make_problem("pme_barenblatt", m=2)
    assert pme.make_config(3).beta == 0.8
    assert pme.make_config(1).beta == 2.0
    mixed = make_problem("linear_advdiff")
    assert mixed.make_config(2).beta == 0.5
    two_d = make_problem("strong_degenerate_2d")
    assert two_d.make_config(3).beta == 0.2
    assert two_d.make_config(2).beta == pytest.approx(0.25)  # half the 1D mixed value


# beta_max per order from the stability scans (the README table), and the
# kind of each catalog case at its default knobs
BETA_MAX = {"advection": {1: 2.0, 2: 1.0, 3: 1.243},
            "diffusion": {1: 2.0, 2: 1.0, 3: 0.8375},
            "combined": {1: 1.0, 2: 0.5, 3: 0.4167}}
CASE_KIND = {"linear_advdiff": "combined", "pme_barenblatt": "diffusion",
             "pme_two_box": "diffusion", "buckley_leverett": "combined",
             "strong_degenerate": "combined", "strong_degenerate_2d": "combined",
             "buckley_leverett_2d": "combined"}


@pytest.mark.parametrize("name", CASE_NAMES)
def test_declared_beta_is_stable(name):
    # dimension-by-dimension splitting divides the 1D bound by the axis count
    case = make_problem(name)
    assert case.name == name
    bound = BETA_MAX[CASE_KIND[name]]
    for k in (1, 2, 3):
        assert case.make_config(k).beta <= bound[k] / len(case.spec.axes)


def test_make_config_names_an_order_the_case_does_not_declare():
    case = make_problem("linear_advdiff")
    with pytest.raises(ValueError, match="case linear_advdiff declares no beta for order 4"):
        case.make_config(order=4)
    with pytest.raises(ValueError, match="order must be 1, 2 or 3"):
        case.make_config(order=4, beta=0.4)


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


def test_reference_rejects_periodic_data_whose_ends_differ():
    # the scheme evolves the N unique nodes, so a node N unlike node 0 would
    # be dropped unseen
    case = make_problem("linear_advdiff")
    case.spec.initial = lambda x: np.sin(x) + 1e-9 * (x > 0)
    with pytest.raises(ValueError, match="periodic data along x differs at its two ends"):
        reference_solution(case, T=0.1, n_ref=200)


@pytest.mark.parametrize("T", [0.5, np.nan, np.inf])
def test_reference_rejects_a_target_time_outside_t0_to_inf(T):
    # pme_barenblatt starts at t0 = 1
    with pytest.raises(ValueError, match=r"must lie in \[1, inf\)"):
        reference_solution(make_problem("pme_barenblatt"), T=T, n_ref=120)


def test_error_norms_examples():
    # a constant error e has L1 norm e (b - a) on a periodic grid, whose node N
    # repeats node 0, and on a homogeneous one alike
    for name in ("linear_advdiff", "buckley_leverett"):
        case = make_problem(name)
        grid = case.build_grid(40)
        a, b = case.domain
        u = SolutionField(values=np.sin(grid.nodes), time=0.0)
        rep = error_norms(u, lambda x, t: np.sin(x), grid)
        assert rep.linf == 0.0 and rep.l1 == 0.0

        u2 = SolutionField(values=np.sin(grid.nodes) + 0.25, time=0.0)
        rep2 = error_norms(u2, lambda x, t: np.sin(x), grid)
        assert rep2.linf == pytest.approx(0.25)
        assert rep2.l1 == pytest.approx(0.25 * (b - a), rel=1e-12)


def test_observed_orders_doubling():
    from advdiff.problems import ErrorReport
    reps = [ErrorReport(linf=4e-2, l1=0, n_cells=40),
            ErrorReport(linf=1e-2, l1=0, n_cells=80)]
    observed_orders(reps)
    assert reps[0].order_vs_previous is None
    assert reps[1].order_vs_previous == pytest.approx(2.0)


def test_observed_orders_skip_a_zero_error():
    # an order needs both errors positive: log2(0/e) would warn and give -inf
    from advdiff.problems import ErrorReport
    reps = [ErrorReport(linf=linf, l1=0, n_cells=n)
            for linf, n in ((0.0, 40), (1e-2, 80), (0.0, 160), (2.5e-3, 320))]
    observed_orders(reps)
    assert [r.order_vs_previous for r in reps] == [None, None, None, None]
    reps.append(ErrorReport(linf=6.25e-4, l1=0, n_cells=640))
    assert observed_orders(reps)[-1].order_vs_previous == pytest.approx(2.0)


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
    beta = min(beta, BETA_MAX["advection"][order])
    u = {}
    for c in (1.0, -1.0):
        case = make_problem("linear_advdiff", c=c, b=b)
        _, u[c] = solve_case(case, case.make_config(order, beta, cfl, **kw), n=160, T=T)
    assert np.max(np.abs(u[-1.0].values + u[1.0].values[::-1])) <= 1e-12


def _burgers_run(bc, initial, a, b, n, T, config=SchemeConfig(order=3, beta=1.0, cfl=1.0)):
    """f = u^2/2 from initial on [a, b] with n cells to time T, by default at
    k=3, beta=1, CFL=1; returns (grid, u0, u)."""
    prob = ProblemSpec(flux=lambda u: 0.5 * u ** 2, flux_deriv=lambda u: u,
                       diffusion=lambda u: 0.0 * u, diffusion_deriv=lambda u: 0.0 * u,
                       initial=initial, bc=bc)
    grid = build_grid_1d(a, b, n)
    u0 = SolutionField(values=initial(grid.nodes), time=0.0)
    u = advance(u0, T, prob, config, grid)
    return grid, u0.values, u.values


def _smooth_burgers_exact(x, t):
    """u = u0(x - u t) for u0 = 0.5 + 0.5 sin x, by Newton on the foot xi of
    the characteristic; smooth up to the shock time t = 2."""
    xi = np.array(x, dtype=float)
    for _ in range(60):
        xi -= (xi + t * (0.5 + 0.5 * np.sin(xi)) - x) / (1.0 + 0.5 * t * np.cos(xi))
    return 0.5 + 0.5 * np.sin(xi)


@pytest.mark.parametrize("order, beta, orders", [(3, 0.4, (3.00, 3.24, 3.04)),
                                                 (2, 0.5, (1.49, 1.38, 1.74)),
                                                 (1, 1.0, (0.88, 0.92, 0.96))])
def test_smooth_periodic_burgers_orders(order, beta, orders):
    # measured orders at T = 1, CFL 0.5, N = 40..320, each within 10%
    config = SchemeConfig(order=order, beta=beta, cfl=0.5)
    reports = []
    for n in (40, 80, 160, 320):
        grid, _, u = _burgers_run(Boundary.PERIODIC, lambda x: 0.5 + 0.5 * np.sin(x),
                                  -np.pi, np.pi, n, 1.0, config)
        reports.append(error_norms(SolutionField(u, 1.0), _smooth_burgers_exact, grid))
    got = [r.order_vs_previous for r in observed_orders(reports)[1:]]
    assert got == pytest.approx(orders, rel=0.1)


def _rarefaction_balance(config):
    """Homogeneous mass balance of a transonic rarefaction, -0.5 | 1 at x = 0
    on [-2, 2], N = 200, T = 0.5: with flat ends d/dt int u = f(u_L) - f(u_R),
    so int u(T) - int u0 - T (f(u_L) - f(u_R)) vanishes (trapezoid rule)."""
    grid, u0, u = _burgers_run(Boundary.HOMOGENEOUS, lambda x: np.where(x < 0, -0.5, 1.0),
                               -2.0, 2.0, 200, 0.5, config)
    f = lambda u: 0.5 * u ** 2
    inflow = 0.5 * (f(-0.5) - f(1.0))
    return np.trapezoid(u, grid.nodes) - np.trapezoid(u0, grid.nodes) - inflow


def test_rarefaction_mass_balance_linear_rule():
    # the linear rule without the filter keeps the balance to round-off
    config = SchemeConfig(order=3, beta=1.0, cfl=1.0, quadrature="linear6",
                          filter_enabled=False)
    assert abs(_rarefaction_balance(config)) <= 1e-12


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("filter_enabled", [True, False], ids=["filtered", "unfiltered"])
def test_rarefaction_mass_balance_defaults(filter_enabled):
    # WENO breaks the balance at N = 200: -2.10e-4 unfiltered, and the filter
    # takes it to +4.08e-3
    config = SchemeConfig(order=3, beta=1.0, cfl=1.0, filter_enabled=filter_enabled)
    assert abs(_rarefaction_balance(config)) <= 1e-12


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


@functools.cache
def _two_box_drift(order):
    """Relative mass drift of `pme_two_box` at its defaults and order k."""
    case = make_problem("pme_two_box")
    grid = case.build_grid()
    m0 = np.sum(case.initial_field(grid).values)
    _, u = solve_case(case, case.make_config(order=order))
    return float((np.sum(u.values) - m0) / m0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_pme_two_box_conserves_mass():
    # the linear-rule diffusion chain telescopes; the -4.2e-7 left at k = 3
    # is the homogeneous closure's
    assert abs(_two_box_drift(3)) <= 1e-12


@pytest.mark.parametrize("order", [1, 2, 3])
def test_pme_two_box_diffusion_chain_keeps_mass(order):
    # the linear-rule chain leaves the closure's -9.2e-12, +4.1e-8 and
    # -4.25e-7 at k = 1, 2, 3
    assert abs(_two_box_drift(order)) <= 1e-6


def _rule_pair(name, n, T):
    """The case at k = 3 on n cells to time T under each quadrature rule."""
    case = make_problem(name)
    return [solve_case(case, case.make_config(order=3, quadrature=rule), n=n, T=T)[1].values
            for rule in (WENO5, LINEAR6)]


@pytest.mark.parametrize("name, n, T", [("pme_two_box", 48, 0.02), ("pme_barenblatt", 48, 1.5)])
def test_quadrature_rule_does_not_reach_a_flux_free_solve(name, n, T):
    # the rule is the convection chains'; the diffusion chain is linear only
    weno, linear = _rule_pair(name, n, T)
    assert weno.tobytes() == linear.tobytes()


def test_quadrature_rule_reaches_convection():
    weno, linear = _rule_pair("buckley_leverett", 40, 0.05)
    assert weno.tobytes() != linear.tobytes()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_buckley_leverett_2d_conserves_mass():
    # f(0) = 0 on both axes, so the exact mass is constant while u stays
    # near 0 at the edges (ROADMAP item 9); the defaults lose 2.08e-2 of it
    case = make_problem("buckley_leverett_2d")
    grid = case.build_grid(48)
    m0 = np.sum(case.initial_field(grid).values)
    _, u = solve_case(case, case.make_config(order=3), n=48, T=0.1)
    assert abs(np.sum(u.values) - m0) <= 1e-12 * m0


def test_buckley_leverett_gravity_bounds():
    case = make_problem("buckley_leverett", gravity=True)
    grid, u = solve_case(case, case.make_config(order=3), n=100)
    assert np.min(u.values) >= -1e-2
    assert np.max(u.values) <= 1.0 + 1e-2


@pytest.mark.parametrize("gravity", ["no", 0, 1, None])
def test_buckley_leverett_rejects_a_non_bool_gravity(gravity):
    # a truthy "no" used to select the gravity flux, f(0.5) = -0.125 not 0.5
    with pytest.raises(ValueError, match="gravity must be a bool"):
        make_problem("buckley_leverett", gravity=gravity)
    for flag in (False, np.bool_(False)):
        assert make_problem("buckley_leverett", gravity=flag).spec.flux(0.5) == 0.5


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
