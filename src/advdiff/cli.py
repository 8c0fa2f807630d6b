"""Command-line front end: benchmark runs, convergence tables, stability scans.

Commands
    run                solve one catalog case, write the solution as CSV
    convergence        error/order table over a resolution sweep
    stability          amplification-factor contour scan (CSV grid)
    compare-reference  solve a case and compare against the first-order
                       reference scheme on a fine grid

All CSV output is comma-separated with a header line and full double
precision, so repeated identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import problems, stability
from .core import SchemeConfig
from .quadrature import LINEAR6, WENO5
from .stability import EquationKind, FULLY_DISCRETE, SEMI_DISCRETE
from .timestep import UnstableSolution, advance


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _case_from_args(args) -> problems.BenchmarkCase:
    params = {k: getattr(args, k) for k in ("m", "c", "b") if getattr(args, k) is not None}
    if args.gravity:
        params["gravity"] = True
    return problems.make_problem(args.case, **params)


def _config_from_args(case, args) -> SchemeConfig:
    kw = {}
    if args.quadrature:
        kw["quadrature"] = args.quadrature
    if args.no_filter:
        kw["filter_enabled"] = False
    if args.no_cross_term:
        kw["cross_term_k3"] = False
    return case.make_config(order=args.k, beta=args.beta, cfl=args.cfl, **kw)


def _cmd_run(args) -> int:
    case = _case_from_args(args)
    config = _config_from_args(case, args)
    T = args.T if args.T is not None else case.t_final
    if not np.isfinite(T):
        raise ValueError(f"target time must be finite, got {T}")
    times = sorted({float(s) for s in args.snapshots.split(",")}) if args.snapshots else []
    outside = [t for t in times if not case.t0 < t <= T]
    if outside:
        raise ValueError(f"snapshot times {outside} lie outside ({case.t0:g}, {T:g}]")
    paths = [_with_suffix(args.out, t) for t in times]
    clash = [t for t, path in zip(times, paths) if paths.count(path) > 1]
    if clash:
        raise ValueError(f"snapshot times {clash} give the same file name")
    grid = case.build_grid(args.N, args.Ny)
    # each snapshot restarts advance from the field before it; every file is
    # written after the last solve, so a failed run writes none
    fields = [case.initial_field(grid)]
    for t in times + [T]:
        fields.append(advance(fields[-1], t, case.spec, config, grid))
    *snaps, u = fields[1:]
    for path, field in zip(paths, snaps):
        _write_solution_csv(path, grid, field, case)
        print(f"wrote {path}")
    _write_solution_csv(args.out, grid, u, case)
    cells = "x".join(str(g.n_cells) for g in grid.axes)
    print(f"wrote {args.out}: {case.name} at T={u.time:g}, {cells} cells")
    return 0


def _with_suffix(path: str, t: float) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}_t{t:g}{ext}"


def _write_solution_csv(path, grid, u, case):
    """One row per node: the coordinates (x, or x and y with x varying
    fastest), u, and the exact value and error when the case has them."""
    coords = np.meshgrid(*(g.nodes for g in grid.axes))
    header = ["x", "y"][:len(coords)] + ["u"]
    columns = [c.ravel() for c in coords] + [u.values.ravel()]
    if case.exact is not None:
        ref = case.exact(*coords, u.time)
        header += ["u_exact", "error"]
        columns += [ref.ravel(), np.abs(u.values - ref).ravel()]
    _write_csv(path, header, zip(*columns))


def _cmd_convergence(args) -> int:
    case = _case_from_args(args)
    n_values = [int(s) for s in args.N.split(",")]
    config = _config_from_args(case, args)
    reports = problems.convergence_study(case, config, n_values, T=args.T)
    rows = [(rep.n_cells, rep.linf,
             rep.order_vs_previous if rep.order_vs_previous is not None else float("nan"))
            for rep in reports]
    _write_csv(args.out, ["N", "linf_error", "order"], rows)
    for rep in reports:
        order = "--" if rep.order_vs_previous is None else f"{rep.order_vs_previous:.3f}"
        print(f"N={rep.n_cells:5d}  linf={rep.linf:.3e}  order={order}")
    print(f"wrote {args.out}")
    return 0


def _cmd_stability(args) -> int:
    kind = EquationKind.ADVECTION if args.kind == "advection" else EquationKind.DIFFUSION
    mode = SEMI_DISCRETE if args.mode == "semi" else FULLY_DISCRETE
    beta = args.beta
    if beta is None:
        beta = stability.scan_beta_max(args.k, kind)
        print(f"scanned beta_max({args.k}, {kind.value}) = {beta:.4f}")
    abs_lambda = stability.compute_report(args.k, kind, beta, mode)
    _write_csv(args.out, ["step_ratio", "kappa_dx", "abs_lambda"],
               ((s, kd, lam) for s, row in zip(stability.STEP_RATIOS, abs_lambda)
                for kd, lam in zip(stability.KAPPA_DX, row)))
    print(f"wrote {args.out}: max|lambda| = {np.max(abs_lambda):.12f} "
          f"(k={args.k}, {kind.value}, beta={beta:g})")
    return 0


def _cmd_compare_reference(args) -> int:
    case = _case_from_args(args)
    config = _config_from_args(case, args)
    # the reference scheme is 1D only; it raises before the solve on a 2D case
    ref_grid, ref = problems.reference_solution(case, T=args.T, n_ref=args.n_ref)
    grid, u = problems.solve_case(case, config, n=args.N, T=args.T)
    ref_on_grid = np.interp(grid.nodes, ref_grid.nodes, ref.values)
    rows = [(x, v, r, abs(v - r)) for x, v, r in zip(grid.nodes, u.values, ref_on_grid)]
    _write_csv(args.out, ["x", "u", "u_ref", "error"], rows)
    linf = max(r[3] for r in rows)
    print(f"wrote {args.out}: linf vs reference = {linf:.3e}")
    return 0


def _add_scheme_flags(p):
    p.add_argument("--k", type=int, default=3, choices=(1, 2, 3), help="scheme order")
    p.add_argument("--beta", type=float, default=None,
                   help="stabilization parameter (default: case/table value)")
    p.add_argument("--cfl", type=float, default=None, help="CFL number")
    p.add_argument("--quadrature", choices=(WENO5, LINEAR6), default=None,
                   help="rule of the convection terms (diffusion is always linear6)")
    p.add_argument("--no-filter", action="store_true", help="disable the oscillation filter")
    p.add_argument("--no-cross-term", action="store_true",
                   help="disable the k=3 stabilization term")


def _add_case_flags(p):
    p.add_argument("--case", required=True, choices=problems.CASE_NAMES)
    p.add_argument("--m", type=int, default=None, help="porous-medium exponent")
    p.add_argument("--gravity", action="store_true", help="Buckley-Leverett gravity flux")
    p.add_argument("--c", type=float, default=None, help="advection speed (linear case)")
    p.add_argument("--b", type=float, default=None, help="diffusion coefficient (linear case)")
    p.add_argument("--T", type=float, default=None, help="final time (default: case value)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="advdiff",
                                     description="kernel-based advection-diffusion benchmark driver")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="solve one case and write the solution CSV")
    _add_case_flags(p)
    _add_scheme_flags(p)
    p.add_argument("--N", type=int, default=None, help="cells (default: case value)")
    p.add_argument("--Ny", type=int, default=None, help="cells along y (2D only)")
    p.add_argument("--snapshots", default=None, help="comma-separated output times")
    p.add_argument("--out", default="solution.csv")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("convergence", help="error table over a resolution sweep")
    _add_case_flags(p)
    _add_scheme_flags(p)
    p.add_argument("--N", default="40,80,160,320,640", help="comma-separated cell counts")
    p.add_argument("--out", default="convergence.csv")
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("stability", help="amplification-factor contour scan")
    p.add_argument("--kind", choices=("advection", "diffusion"), required=True)
    p.add_argument("--k", type=int, default=3, choices=(1, 2, 3))
    p.add_argument("--beta", type=float, default=None,
                   help="beta to scan at (default: scanned beta_max)")
    p.add_argument("--mode", choices=("semi", "fully"), default="fully")
    p.add_argument("--out", default="contour.csv")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("compare-reference", help="compare against the first-order reference")
    _add_case_flags(p)
    _add_scheme_flags(p)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--n-ref", type=int, default=3000, help="reference-grid cells")
    p.add_argument("--out", default="compare.csv")
    p.set_defaults(func=_cmd_compare_reference)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, UnstableSolution, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
