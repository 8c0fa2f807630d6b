"""Rebuild the byte-identity solve set and print its hashes.

    python3 scripts/identity_set.py

Runs 104 solves of the checkout's `src/advdiff`, every setting written
below, and prints one JSON object {name: first 16 hex digits of the sha256
of the final field's bytes}.  A change that keeps the arithmetic prints the
same object as its parent on the same machine; the hashes depend on the x86
BLAS kernel (the coefficient tables are formed with `@`), so compare runs
on one machine only.  The set:

- Table 1 (c = 1, b = 1, CFL 1, T = 2) at N = 40..640, k = 1..3, the
  `table1_sweep` fields;
- `linear_advdiff` with b = 0 and c = +1, -1 at k = 1..3 under both rules,
  and at its default b = 0.01 at k = 2, 3, otherwise at its defaults;
- the four nonlinear 1D catalog cases at k = 1..3 under both rules at their
  defaults, and `buckley_leverett` with gravity at k = 3;
- f = cu, g = bu on homogeneous data exp(-4x^2) over [-pi, pi] (c = +1, -1,
  b = 0 and 0.05, k = 1..3, both rules; N = 160, T = 0.5 and
  `linear_advdiff`'s beta and CFL);
- `strong_degenerate_2d` at 200x200, T = 0.125 (the `two_disc_2d` field)
  and at N = 64, T = 0.5 under both rules; `buckley_leverett_2d` at N = 64,
  T = 0.1;
- the Burgers runs (f = u^2/2) of tests/test_problems.py, and periodic
  Burgers (u0 = 0.5 + sin x, N = 200, T = 1.5, beta 0.5, CFL 1) at k = 2, 3.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from advdiff import (Boundary, ProblemSpec, SchemeConfig, SolutionField,  # noqa: E402
                     advance, build_grid_1d, make_problem, solve_case)

RULES = ("weno5", "linear6")
TABLE1_BETA = {1: 1.0, 2: 0.5, 3: 0.4}


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()[:16]


def _case(case, config, **kw):
    return solve_case(case, config, **kw)[1].values


def _burgers(bc, initial, a, b, n, T, config=SchemeConfig(order=3, beta=1.0, cfl=1.0)):
    prob = ProblemSpec(flux=lambda u: 0.5 * u ** 2, flux_deriv=lambda u: u,
                       diffusion=lambda u: 0.0 * u, diffusion_deriv=lambda u: 0.0 * u,
                       initial=initial, bc=bc)
    grid = build_grid_1d(a, b, n)
    return advance(SolutionField(initial(grid.nodes), 0.0), T, prob, config, grid).values


def solves():
    """(name, thunk) for every solve of the set, in a fixed order."""
    for k, beta in TABLE1_BETA.items():
        case = make_problem("linear_advdiff", c=1.0, b=1.0)
        for n in (40, 80, 160, 320, 640):
            yield (f"table1 k{k} N{n}",
                   lambda case=case, k=k, beta=beta, n=n:
                   _case(case, case.make_config(order=k, beta=beta, cfl=1.0), n=n, T=2.0))
    for c in (1.0, -1.0):
        case = make_problem("linear_advdiff", c=c, b=0.0)
        for k in (1, 2, 3):
            for rule in RULES:
                yield (f"linear b0 c{c:+} k{k} {rule}",
                       lambda case=case, k=k, rule=rule:
                       _case(case, case.make_config(order=k, quadrature=rule)))
        case = make_problem("linear_advdiff", c=c)
        for k in (2, 3):
            yield f"linear c{c:+} k{k}", lambda case=case, k=k: _case(case, case.make_config(order=k))
    for name in ("pme_barenblatt", "pme_two_box", "buckley_leverett", "strong_degenerate"):
        case = make_problem(name)
        for k in (1, 2, 3):
            for rule in RULES:
                yield (f"{name} k{k} {rule}",
                       lambda case=case, k=k, rule=rule:
                       _case(case, case.make_config(order=k, quadrature=rule)))
    case = make_problem("buckley_leverett", gravity=True)
    yield "buckley_leverett gravity k3", lambda case=case: _case(case, case.make_config(order=3))
    for c in (1.0, -1.0):
        for b in (0.0, 0.05):
            lin = make_problem("linear_advdiff", c=c, b=b)
            case = dataclasses.replace(lin, spec=dataclasses.replace(
                lin.spec, initial=lambda x: np.exp(-4.0 * x ** 2), bc=Boundary.HOMOGENEOUS))
            for k in (1, 2, 3):
                for rule in RULES:
                    yield (f"hom c{c:+} b{b} k{k} {rule}",
                           lambda case=case, k=k, rule=rule:
                           _case(case, case.make_config(order=k, quadrature=rule), n=160, T=0.5))
    case = make_problem("strong_degenerate_2d")
    yield ("two_disc_2d workload",
           lambda: _case(case, case.make_config(order=3, beta=0.2, cfl=0.5), n=200, T=0.125))
    for rule in RULES:
        yield (f"strong_degenerate_2d N64 {rule}",
               lambda rule=rule: _case(case, case.make_config(order=3, quadrature=rule),
                                       n=64, T=0.5))
    bl2 = make_problem("buckley_leverett_2d")
    yield "buckley_leverett_2d N64", lambda: _case(bl2, bl2.make_config(order=3), n=64, T=0.1)
    yield from _burgers_solves()


def _burgers_solves():
    smooth = lambda x: 0.5 + 0.5 * np.sin(x)
    for k, beta in ((1, 1.0), (2, 0.5), (3, 0.4)):
        config = SchemeConfig(order=k, beta=beta, cfl=0.5)
        for n in (40, 80, 160, 320):
            yield (f"burgers smooth k={k} n={n}",
                   lambda config=config, n=n:
                   _burgers(Boundary.PERIODIC, smooth, -np.pi, np.pi, n, 1.0, config))
    step = lambda x: np.where(x < 0, -0.5, 1.0)
    for label, kw in (("linear_unfiltered", dict(quadrature="linear6", filter_enabled=False)),
                      ("filtered", {}), ("unfiltered", dict(filter_enabled=False))):
        config = SchemeConfig(order=3, beta=1.0, cfl=1.0, **kw)
        yield (f"burgers rarefaction {label}",
               lambda config=config: _burgers(Boundary.HOMOGENEOUS, step, -2.0, 2.0, 200, 0.5,
                                              config))
    wave = lambda x: 0.5 + np.sin(x)
    yield ("burgers periodic mass",
           lambda: _burgers(Boundary.PERIODIC, wave, -np.pi, np.pi, 200, 1.5))
    for k in (2, 3):
        config = SchemeConfig(order=k, beta=0.5, cfl=1.0)
        yield (f"burgers periodic k={k}",
               lambda config=config: _burgers(Boundary.PERIODIC, wave, -np.pi, np.pi, 200, 1.5,
                                              config))
    shock = lambda x: np.where(x < -0.5, 1.0, 0.0)
    for n in (400, 800):
        yield (f"burgers riemann n={n}",
               lambda n=n: _burgers(Boundary.HOMOGENEOUS, shock, -2.0, 2.0, n, 1.0))


def main() -> None:
    print(json.dumps({name: _digest(run()) for name, run in solves()}, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
