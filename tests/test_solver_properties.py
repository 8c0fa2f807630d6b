"""Property tests of the solver's invariances, through `advance`.

On periodic data with a linear flux f = cu and diffusion g = bu the exact
solution commutes with translating the data by whole cells, with adding a
constant, with scaling, and with reflecting x -> -x together with c -> -c.
The discrete solve must keep each to 1e-12 of the solution's size, both at
the scheme's defaults and with the linear rule and no filter.  Under WENO the
smoothness indicators meet an absolute epsilon, so scaling is not kept there
(ROADMAP item 3).
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from advdiff import SolutionField, advance, make_problem

# few examples, drawn the same way on every run; no shrinking, which would
# spend seconds on the expected failure of the WENO scaling case
PROPERTY = settings(max_examples=10, deadline=None, derandomize=True, database=None,
                    phases=(Phase.explicit, Phase.generate))

T = 0.3
SCHEMES = {"defaults": {}, "linear6": dict(quadrature="linear6", filter_enabled=False)}


@st.composite
def linear_cases(draw):
    """Speeds c (either sign) and b, a cell count, an order and smooth
    periodic data on [-pi, pi]: a constant plus three random Fourier modes, on
    N+1 nodes."""
    c = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.2, 2.0))
    b = draw(st.floats(0.005, 0.1))
    n = draw(st.integers(40, 100))
    order = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = make_problem("linear_advdiff").build_grid(n).nodes
    amp, phase = rng.standard_normal(3), rng.uniform(0, 2 * np.pi, 3)
    u0 = rng.standard_normal() + sum(a * np.sin(j * x + p)
                                     for j, (a, p) in enumerate(zip(amp, phase), 1))
    u0[-1] = u0[0]
    return c, b, n, order, u0


def solve(u0, c, b, n, order, scheme):
    case = make_problem("linear_advdiff", c=c, b=b)
    config = case.make_config(order, **SCHEMES[scheme])
    return advance(SolutionField(u0), T, case.spec, config, case.build_grid(n)).values


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def translate(u, cells):
    """Periodic node data moved by whole cells; node N repeats node 0."""
    body = np.roll(u[:-1], cells)
    return np.append(body, body[0])


@pytest.mark.parametrize("scheme", SCHEMES)
@PROPERTY
@given(linear_cases(), st.integers(1, 99))
def test_translation_by_whole_cells_commutes_with_the_solve(scheme, case, cells):
    c, b, n, order, u0 = case
    want = translate(solve(u0, c, b, n, order, scheme), cells)
    assert_close(solve(translate(u0, cells), c, b, n, order, scheme), want)


@pytest.mark.parametrize("scheme", SCHEMES)
@PROPERTY
@given(linear_cases(), st.floats(-3.0, 3.0))
def test_adding_a_constant_commutes_with_the_solve(scheme, case, shift):
    c, b, n, order, u0 = case
    want = solve(u0, c, b, n, order, scheme) + shift
    assert_close(solve(u0 + shift, c, b, n, order, scheme), want)


@pytest.mark.parametrize("scheme", SCHEMES)
@PROPERTY
@given(linear_cases())
def test_reflection_with_reversed_speed_commutes_with_the_solve(scheme, case):
    # the grid is symmetric about 0, so reversing the nodes reflects x -> -x
    c, b, n, order, u0 = case
    want = solve(u0, c, b, n, order, scheme)[::-1]
    assert_close(solve(u0[::-1], -c, b, n, order, scheme), want)


def drawn(strategy):
    """The examples PROPERTY draws from strategy, in order, for a test that
    runs them itself: a failing Hypothesis test has Hypothesis write a patch
    file, and an expected failure should not."""
    examples = []

    @PROPERTY
    @given(strategy)
    def collect(example):
        examples.append(example)

    collect()
    return examples


@pytest.mark.parametrize("scheme", [
    pytest.param("defaults", marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                                     reason="ROADMAP item 3")),
    "linear6"])
def test_scaling_commutes_with_the_solve(scheme):
    for (c, b, n, order, u0), scale in drawn(st.tuples(linear_cases(),
                                                       st.sampled_from([1e-4, 1e-2, 1e2, 1e4]))):
        want = scale * solve(u0, c, b, n, order, scheme)
        assert_close(solve(scale * u0, c, b, n, order, scheme), want)
