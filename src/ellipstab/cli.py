"""Command-line front end: verify-analytic, rate-study and solve workflows.

Exit codes: 0 success, 1 no usable result (a failed check, or a study that
writes no CSV), 2 usage error, 3 integrability-hypothesis violation,
4 solver failure.  All commands are deterministic: identical flags produce
byte-identical outputs, and every CSV embeds its normalized command line.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import analytic, coefficients, experiments, fem, geometry, meshing

BETA_DEFAULT = 1.5 * np.pi
# smallest eps at which the semi-analytic errors are tested against closed forms
EPS_MIN = 1e-14
# the rate-study flags (beyond --beta and the eps grid) each study reads, and
# so echoes in its CSV's `# cmd:` line
STUDY_FLAGS = {"coeff": ("alpha", "q"), "domain": ("q", "mode"), "wwww": ("q",),
               "qualitative": ("alpha",)}


def _fmt(v):
    return f"{v:.12g}"


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ellipstab",
        description="Elliptic H1-stability workbench: analytic verification, "
                    "perturbation rate studies and FEM solves on sector domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify-analytic",
                        help="exact term-by-term check of the closed-form solutions")
    pv.add_argument("--example", choices=("limit", "jump", "annulus"), required=True)
    pv.add_argument("--beta", type=float, default=BETA_DEFAULT)
    pv.add_argument("--alpha", type=float, default=2.0)
    pv.add_argument("--eps", type=float, default=0.1)

    pr = sub.add_parser("rate-study", help="run a perturbation study and write CSV")
    pr.add_argument("--study", choices=("coeff", "domain", "wwww", "qualitative"),
                    required=True)
    pr.add_argument("--beta", type=float, default=BETA_DEFAULT)
    pr.add_argument("--alpha", type=float, default=2.0)
    pr.add_argument("--q", type=float, default=4.0)
    pr.add_argument("--eps-min", type=float, default=1e-4)
    pr.add_argument("--eps-max", type=float, default=1e-1)
    pr.add_argument("--points", type=int, default=7)
    pr.add_argument("--mode", choices=("semi", "fem"), default="semi")
    pr.add_argument("--out", default="-", help="output CSV path, '-' for stdout")

    ps = sub.add_parser("solve", help="solve one problem and export mesh/solution")
    ps.add_argument("--domain", choices=("sector", "annulus", "graph"), required=True)
    ps.add_argument("--beta", type=float, default=BETA_DEFAULT)
    ps.add_argument("--eps", type=float, default=0.05,
                    help="inner radius for --domain annulus")
    ps.add_argument("--n-radial", type=int, default=16)
    ps.add_argument("--n-angular", type=int, default=16)
    ps.add_argument("--grading", type=float, default=3.0)
    ps.add_argument("--refine", type=int, default=0)
    ps.add_argument("--coeff", choices=("identity", "jump"), default="identity")
    ps.add_argument("--alpha", type=float, default=2.0)
    ps.add_argument("--jump-eps", type=float, default=0.1)
    ps.add_argument("--nx", type=int, default=16)
    ps.add_argument("--ny", type=int, default=16)
    ps.add_argument("--graph-height", type=float, default=0.85)
    ps.add_argument("--graph-slope", type=float, default=0.0)
    ps.add_argument("--out-prefix", required=True)
    return parser


def _check_angle(parser, beta):
    if not np.pi < beta < 2.0 * np.pi:
        parser.error(f"--beta must lie in (pi, 2*pi), got {beta:g}")


def _check_at_least(parser, flag, value, limit):
    if not value >= limit:
        parser.error(f"{flag} must be at least {limit:g}, got {value:g}")


def _check_alpha(parser, alpha):
    if not 0.0 < alpha < np.inf:
        parser.error(f"--alpha must be positive and finite, got {alpha:g}")


def _check_out_path(parser, flag, path, suffixes=("",)):
    """Refuse, before any work, an output path whose directory is missing,
    that names no file, or that with any of ``suffixes`` is a directory."""
    folder, name = os.path.split(path)
    folder = folder or "."
    if not os.path.isdir(folder):
        parser.error(f"{flag}: directory {folder!r} does not exist")
    if not name:
        parser.error(f"{flag}: {path!r} names a directory, not a file")
    for target in (path + s for s in suffixes):
        if os.path.isdir(target):
            parser.error(f"{flag}: {target!r} is a directory")


def _cmd_verify(parser, args):
    _check_angle(parser, args.beta)
    _check_alpha(parser, args.alpha)
    if not 0.0 < args.eps < 1.0:
        parser.error("--eps must lie in (0, 1)")
    # overflow and invalid values surface as non-finite defects, which FAIL
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if args.example == "limit":
            sol = analytic.limit_solution(args.beta)
            field = coefficients.identity_field()
        elif args.example == "jump":
            sol = analytic.jump_solution(args.beta, args.alpha, args.eps)
            field = coefficients.radial_jump_field(args.alpha, args.eps)
        else:
            sol = analytic.annulus_solution(args.beta, args.eps)
            field = coefficients.identity_field()
        report = analytic.residual_check(sol, analytic.SourceTerm(args.beta), field)
    print(f"example={args.example} beta={_fmt(args.beta)} "
          f"alpha={_fmt(args.alpha)} eps={_fmt(args.eps)}")
    for name, d in report.defects:
        print(f"{name} defect {_fmt(d)}")
    # a NaN compares false, so a non-finite defect FAILs
    status = "PASS" if report.max_residual < 1e-4 else "FAIL"
    print(status)
    return 0 if status == "PASS" else 1


def _csv_lines(cmdline, header, rows, fit):
    lines = [f"# cmd: {cmdline}", header]
    for eps, err, bnd, ratio in rows:
        lines.append(",".join(_fmt(v) for v in (eps, err, bnd, ratio)))
    lines.append(
        f"# exponent={_fmt(fit.exponent)} constant={_fmt(fit.constant)} "
        f"r2={_fmt(fit.r_squared)} window={fit.window[0]}..{fit.window[1]}"
    )
    return "\n".join(lines) + "\n"


def _write(out, text):
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def _cmd_rate_study(parser, args):
    _check_angle(parser, args.beta)
    if args.points < 4:
        parser.error("--points must be at least 4 (the rate fit needs 4 samples)")
    if not 0.0 < args.eps_min < args.eps_max < 1.0:
        parser.error("need 0 < --eps-min < --eps-max < 1")
    _check_at_least(parser, "--eps-min", args.eps_min, EPS_MIN)
    grid = tuple(np.geomspace(args.eps_max, args.eps_min, args.points))
    if len(set(grid)) < args.points:
        parser.error(f"--eps-min and --eps-max are too close: the {args.points}-point "
                     f"eps grid repeats a value")
    if not 2.0 < args.q < np.inf:
        parser.error(f"--q must be a finite number above 2, got {args.q:g}")
    if args.study in ("coeff", "qualitative"):
        _check_alpha(parser, args.alpha)
    if args.mode == "fem" and args.study in ("coeff", "wwww"):
        parser.error(f"--mode fem is not available for --study {args.study} "
                     f"(only --study domain has a FEM path)")
    if args.study in ("domain", "wwww") and args.eps_max >= 0.5:
        parser.error(f"--eps-max must be below 0.5 for --study {args.study} "
                     f"(the radial shift map needs eps < 1/2), got {args.eps_max:g}")
    if args.out != "-":
        _check_out_path(parser, "--out", args.out)
    # the qualitative study's third column is the condition-3 statistic, not a bound
    header = ("eps,error,condition_3_deviation,ratio" if args.study == "qualitative"
              else "eps,error,bound,ratio")
    reads = STUDY_FLAGS[args.study]

    def flag(name, text):
        return f" --{name} {text}" if name in reads else ""

    cmdline = (
        f"rate-study --study {args.study} --beta {_fmt(args.beta)}"
        f"{flag('alpha', _fmt(args.alpha))}{flag('q', _fmt(args.q))} "
        f"--eps-min {_fmt(args.eps_min)} --eps-max {_fmt(args.eps_max)} "
        f"--points {args.points}{flag('mode', args.mode)}"
    )

    try:
        # overflow and invalid values surface as non-finite cells, reported below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rows, fit = _run_study(args, grid)
    except experiments.HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except experiments.ResolutionViolation as exc:
        parser.error(f"--eps-min is too small for --mode fem: {exc}")
    except fem.ConvergenceFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__} in the study: {exc}; no CSV written",
              file=sys.stderr)
        return 1
    if fit.degenerate:
        print("degenerate study: all errors vanish (no rate to fit)", file=sys.stderr)
        return 1
    bad = _non_finite(header.split(","), rows, fit)
    if bad:
        print(f"error: non-finite {bad}; no CSV written", file=sys.stderr)
        return 1

    _write(args.out, _csv_lines(cmdline, header, rows, fit))
    return 0


def _run_study(args, grid):
    """The CSV rows and the rate fit of the study ``args`` asks for."""
    if args.study == "qualitative":
        table = experiments.qualitative_convergence_study(
            _jump_family(args.alpha), grid, "condition_3", args.beta,
            exclusion_radius=min(0.5, 2.0 * args.eps_max))
        first = table.rows[0][1]
        rows = [(eps, err, stat, err / first if first > 0 else 0.0)
                for eps, err, stat in table.rows]
        return rows, experiments.fit_loglog([(eps, err) for eps, err, _ in table.rows])
    if args.study == "coeff":
        study = experiments.coefficient_rate_study(args.beta, args.alpha, grid, q=args.q)
        check, fit = study.bound, study.rate
    elif args.study == "domain":
        study = experiments.domain_rate_study(args.beta, grid, q=args.q, mode=args.mode)
        check, fit = study.bound, study.rate
        if study.flagged:
            i = study.flagged[0]
            raise ValueError(f"FEM error {study.agreement[i]:.1%} off the semi-analytic "
                             f"error at eps={_fmt(check.eps[i])}; no CSV written")
    else:
        check = experiments.composition_inequality_check(args.beta, grid, args.q)
        fit = experiments.fit_loglog(list(zip(check.eps, check.lhs_series)))
    return list(zip(check.eps, check.lhs_series, check.rhs_series, check.ratios)), fit


def _non_finite(columns, rows, fit):
    """Describe the first non-finite CSV cell or fit value, or return None."""
    for row in rows:
        for name, v in zip(columns, row):
            if not math.isfinite(v):
                return f"{name} {_fmt(v)} at eps={_fmt(row[0])}"
    for name in ("exponent", "constant", "r_squared"):
        v = getattr(fit, name)
        if not math.isfinite(v):
            return f"fit {name} {_fmt(v)}"
    return None


def _jump_family(alpha):
    def family(eps):
        if eps == 0.0:
            return coefficients.identity_field()
        return coefficients.radial_jump_field(alpha, eps)

    return family


def _cmd_solve(parser, args):
    if args.refine < 0:
        parser.error("--refine must be nonnegative")
    _check_out_path(parser, "--out-prefix", args.out_prefix, (".mesh", ".sol"))
    r_inner = 0.0
    if args.domain == "annulus":
        if not 0.0 < args.eps < 1.0:
            parser.error("--eps must lie in (0, 1) for an annulus")
        r_inner = args.eps
    if args.coeff == "jump":
        _check_alpha(parser, args.alpha)
        if not r_inner < args.jump_eps < 1.0:
            parser.error(f"--jump-eps must lie in ({r_inner:g}, 1), "
                         f"got {args.jump_eps:g}")
    if args.domain in ("sector", "annulus"):
        _check_angle(parser, args.beta)
        _check_at_least(parser, "--n-radial", args.n_radial, 2)
        _check_at_least(parser, "--n-angular", args.n_angular, 2)
        _check_at_least(parser, "--grading", args.grading, 1.0)
        dom = geometry.SectorDomain(args.beta, r_inner=r_inner)
        aligned = (args.jump_eps,) if args.coeff == "jump" else ()
        mesh = meshing.mesh_sector(dom, args.n_radial, args.n_angular,
                                   grading=args.grading, aligned_radii=aligned)
        source = analytic.SourceTerm(args.beta)
    else:
        _check_at_least(parser, "--nx", args.nx, 2)
        _check_at_least(parser, "--ny", args.ny, 2)
        lo, hi = args.graph_height, args.graph_height + args.graph_slope
        if not all(geometry.MARGIN < h <= 1.0 for h in (lo, hi)):
            parser.error(f"graph height must stay in ({geometry.MARGIN:g}, 1] "
                         f"over [0, 1]")
        dom = geometry.GraphDomain.from_height(
            lambda x: args.graph_height + args.graph_slope * x, n_grid=args.nx + 1)
        mesh = meshing.mesh_graph_domain(dom, args.nx, args.ny)

        def source(pts):
            return np.ones(np.asarray(pts).shape[:-1])

    for _ in range(args.refine):
        mesh = meshing.refine_uniform(mesh)
    try:
        mesh.validate()
    except ValueError as exc:
        parser.error(f"the mesh after --refine {args.refine} is invalid: {exc}")
    field = (coefficients.identity_field() if args.coeff == "identity"
             else coefficients.radial_jump_field(args.alpha, args.jump_eps))
    system = fem.assemble(mesh, field, source=source)
    try:
        sol = fem.solve_cg(system)
    except fem.ConvergenceFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4
    _write(f"{args.out_prefix}.mesh", mesh.export_text())
    _write(f"{args.out_prefix}.sol", fem.export_solution_text(sol))
    print(f"unknowns {system.num_unknowns} iterations {sol.solve_report[0]} "
          f"relative residual {_fmt(sol.solve_report[1])}")
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify-analytic":
            return _cmd_verify(parser, args)
        if args.command == "rate-study":
            return _cmd_rate_study(parser, args)
        return _cmd_solve(parser, args)
    except SystemExit as exc:  # argparse reports usage errors via exit(2)
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
