"""Command-line front end.

Commands
--------
bound           pointwise bound report (CSV table + JSON summary)
solve-integral  monotone iteration for u + K(u^q V) = h
solve-bvp       damped-Newton finite-difference solve
scenario        built-in scenario reports (ex1..ex4)
recurrence      scalar comparison sequence b_{k+1} = 1 - a b_k^q
identity-check  product-rule identity discrepancy across grid levels

Exit codes: 0 success, 1 precondition/condition failure, 2 numerical
non-convergence, 3 malformed configuration.

V and f can be CSV files (columns x,value), built-ins "constant:<c>" or
"power-distance:<coef>,<beta>" (coef · d(x)^{-beta}), or come from a named
scenario.  A flat key=value config file mirrors the long flags; explicit
flags win.  All floating output is written with full round-trip precision
(%.17g in CSV); outputs are deterministic for identical configurations.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .bvp import fd_solve, lemma41_identity_check
from .domain import (SCHEMA, GridFn, Interval, make_grid, read_gridfn_csv, sample,
                     write_gridfn_csv, write_json)
from .errors import (ConfigError, DegenerateSourceError, DivergingBracketError,
                     DomainError, GreenboundError, InvalidGridError,
                     InvalidHError, InvalidScenarioError, InvalidSignError,
                     NotIntegrableError, NotOrderedError,
                     PreconditionFailedError, ResolutionInsufficientError,
                     SolverFailureError, WindowTooSmallError)
from .estimates import Problem, thm1_bound, thm4_conditions
from .fixedpoint import scalar_recurrence, solve_integral_equation
from .green import Kernel, potential
from .phi import PhiFamily
from .scenarios import (SCENARIO_INTERVALS, ScenarioSpec, _distance_power,
                        build_scenario, fit_boundary_rate, sharpness_report_ex4,
                        verify_cancellation_ex1)


_PRECONDITION_ERRORS = (PreconditionFailedError, DegenerateSourceError,
                        InvalidSignError, InvalidHError, NotOrderedError,
                        NotIntegrableError, DivergingBracketError,
                        WindowTooSmallError, DomainError)


def _read_config(path) -> dict:
    out = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"config line without '=': {line!r}")
                key, val = line.split("=", 1)
                out[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return out


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    if getattr(args, "config", None):
        cfg = _read_config(args.config)
        for key, val in cfg.items():
            if not hasattr(args, key):
                raise ConfigError(f"unknown config key {key!r}")
            if getattr(args, key) is None:
                setattr(args, key, val)
    return args


def _parse_interval(text) -> Interval:
    try:
        a, b = (float(v) for v in str(text).split(","))
        return Interval(a, b)
    except (ValueError, InvalidGridError) as exc:
        raise ConfigError(f"bad interval {text!r}: {exc}") from exc


def _coefficient(spec_text, grid, name):
    """Build a GridFn from a builtin spec string or a CSV file path."""
    text = str(spec_text)
    if text.startswith("constant:"):
        c = float(text.split(":", 1)[1])
        if not math.isfinite(c):
            raise ConfigError(f"{name} builtin {text!r} needs a finite parameter")
        return sample(lambda x, c=c: c, grid)
    if text.startswith("power-distance:"):
        try:
            coef, beta = (float(v) for v in text.split(":", 1)[1].split(","))
        except ValueError as exc:
            raise ConfigError(f"bad {name} builtin {text!r}") from exc
        if not (math.isfinite(coef) and math.isfinite(beta)):
            raise ConfigError(f"{name} builtin {text!r} needs finite parameters")
        return sample(_distance_power(grid.interval, coef, beta), grid)
    fn = read_gridfn_csv(text)
    if fn.grid != grid:
        raise ConfigError(f"{name} file grid does not match --grid-n/--interval")
    return fn


def _problem_from_args(args) -> tuple[Problem, GridFn | None]:
    n = int(args.grid_n or 2001)
    q = float(args.q) if args.q is not None else None
    if args.scenario:
        sid = str(args.scenario)
        if sid not in SCENARIO_INTERVALS:
            raise ConfigError(f"unknown scenario {sid!r}")
        grid = make_grid(SCENARIO_INTERVALS[sid], n)
        spec = ScenarioSpec(
            sid, grid, q=q if q is not None else (1.0 if sid == "ex1" else -1.0),
            alpha=float(args.alpha) if args.alpha is not None else None,
            lam=float(getattr(args, "lam")) if getattr(args, "lam") is not None else None,
            beta=float(args.beta) if args.beta is not None else None,
            gamma=float(args.gamma) if args.gamma is not None else None)
        return build_scenario(spec)
    if args.V is None and args.V_file is None:
        raise ConfigError("need --V/--V-file or --scenario")
    if q is None:
        raise ConfigError("need --q")
    grid = make_grid(_parse_interval(args.interval or "0,1"), n)
    V = _coefficient(args.V_file or args.V, grid, "V")
    f = _coefficient(args.f_file or args.f or "constant:1", grid, "f")
    return Problem(q, V, f, Kernel.closed_form(grid.interval)), None


def _cmd_bound(args) -> int:
    problem, _ = _problem_from_args(args)
    report = thm1_bound(problem)
    q = problem.q
    try:
        if (q > 1.0 or q < 0.0):
            report = thm4_conditions(problem)
    except InvalidSignError:
        pass  # mixed-sign V: thm1 report stands, no sufficiency flags
    if args.out:
        report.to_csv(args.out)
    summary = report.summary()
    if not args.out and not args.summary and args.format == "csv":
        report.to_csv(sys.stdout)
    else:
        write_json(summary, args.summary)
    violated = report.violated_nodes()
    undefined = summary["undefined_nodes"]
    if violated or undefined:
        print(f"condition failure: {len(violated)} bracket violation(s), "
              f"{len(undefined)} undefined node(s); first violations: "
              f"{violated[:10]}", file=sys.stderr)
        return 1
    return 0


def _cmd_solve_integral(args) -> int:
    problem, _ = _problem_from_args(args)
    h = potential(problem.kernel, problem.f).value
    tol = float(args.tolerance) if args.tolerance is not None else None
    trace = solve_integral_equation(problem.kernel, h, problem.V, problem.q,
                                    tol=tol, k_max=int(args.kmax or 10000))
    if args.out:
        write_gridfn_csv(trace.solution, args.out)
    write_json({
        "schema": SCHEMA,
        "converged": trace.converged,
        "accelerated": trace.accelerated,
        "k_stop": trace.k_stop,
        "residual_norm": trace.residual_norm,
        "damping_events": trace.damping_events,
        "steps": trace.export_steps(),
    }, args.summary)
    return 0 if trace.converged else 2


def _cmd_solve_bvp(args) -> int:
    problem, _ = _problem_from_args(args)
    boundary = (0.0, 0.0)
    if args.boundary:
        parts = str(args.boundary).split(",")
        if len(parts) != 2:
            raise ConfigError(f"bad boundary {args.boundary!r}")
        boundary = (float(parts[0]), float(parts[1]))
    tol = float(args.tolerance) if args.tolerance is not None else 1e-8
    report = fd_solve(problem, boundary=boundary, tol=tol)
    if args.out:
        report.to_csv(args.out)
    write_json({
        "schema": SCHEMA,
        "converged": report.converged,
        "residual_norm": report.residual_norm,
        "iterations": report.iterations,
        "damping_events": report.damping_events,
    }, args.summary)
    return 0 if report.converged else 2


def _cmd_scenario(args) -> int:
    if not args.id:
        raise ConfigError("scenario command needs --id")
    sid = str(args.id)
    n = int(args.grid_n or 2001)
    if sid not in SCENARIO_INTERVALS:
        raise ConfigError(f"unknown scenario id {sid!r}")
    grid = make_grid(SCENARIO_INTERVALS[sid], n)
    if sid == "ex1":
        rep = verify_cancellation_ex1(float(args.alpha or 0.5), grid)
        if args.out:
            rep.curves_to_csv(args.out)
        write_json(rep.summary(), args.summary)
        return 0
    if sid == "ex4":
        rep = sharpness_report_ex4(float(getattr(args, "lam") or 1.0),
                                   float(args.gamma or 1.0),
                                   float(args.q or -1.0), grid)
        if args.out:
            rep.curves_to_csv(args.out)
        write_json(rep.summary(), args.summary)
        return 0
    spec = ScenarioSpec(sid, grid, q=float(args.q or -0.5),
                        lam=(float(getattr(args, "lam")) if getattr(args, "lam")
                             is not None else (1.0 if sid == "ex2" else None)),
                        beta=float(args.beta or 1.0))
    problem, _ = build_scenario(spec)
    rep = thm1_bound(problem)
    if rep.ghqv.plus_infinite or rep.ghqv.minus_infinite:
        summary = {"schema": SCHEMA, "scenario": sid,
                   "weight_potential_infinite": True}
        write_json(summary, args.summary)
        return 1
    # fit the size of G(w): the absorbing ex3 weight has G(w) < 0
    g = rep.ghqv.value
    fit = fit_boundary_rate(GridFn(g.grid, np.abs(g.values)), rep.h)
    if args.out:
        rep.to_csv(args.out)
    write_json({
        "schema": SCHEMA,
        "scenario": sid,
        "parameters": {"q": spec.q, "lam": spec.lam, "beta": spec.beta},
        "fitted_rates": {"slope": fit.slope, "slope_ci": fit.slope_ci,
                         "model": fit.model},
        "condition_flags": {
            "necessary_ok_everywhere": bool(np.all(rep.necessary_ok))},
    }, args.summary)
    return 0


def _cmd_recurrence(args) -> int:
    if args.q is None or args.a is None:
        raise ConfigError("recurrence needs --q and --a")
    seq = scalar_recurrence(float(args.q), float(args.a), int(args.kmax or 200))
    write_json({
        "schema": SCHEMA,
        "q": float(args.q),
        "a": float(args.a),
        "k_max": int(args.kmax or 200),
        "b_sequence": seq,
    }, args.summary)
    return 0


def _cmd_identity_check(args) -> int:
    if args.q is None:
        raise ConfigError("identity-check needs --q")
    fam = PhiFamily(float(args.q))
    n0 = int(args.grid_n or 101)
    levels = int(args.levels or 3)
    rng = np.random.default_rng(0)
    a1, a2 = rng.uniform(0.1, 0.4, 2)
    discrepancies = []
    n = n0
    for _ in range(levels + 1):
        grid = make_grid(Interval(0.0, 1.0), n)
        x = grid.nodes
        h = GridFn(grid, 2.0 + np.cos(2 * np.pi * x) + a1 * np.sin(4 * np.pi * x))
        v = GridFn(grid, 0.2 * np.sin(2 * np.pi * x) + a2 * np.cos(6 * np.pi * x) / 3)
        discrepancies.append(lemma41_identity_check(h, v, fam))
        n = 2 * n - 1
    ratios = [discrepancies[i] / discrepancies[i + 1]
              for i in range(len(discrepancies) - 1)]
    write_json({
        "schema": SCHEMA,
        "q": float(args.q),
        "n0": n0,
        "discrepancies": discrepancies,
        "halving_ratios": ratios,
    }, args.summary)
    return 0


_COMMANDS = {
    "bound": _cmd_bound,
    "solve-integral": _cmd_solve_integral,
    "solve-bvp": _cmd_solve_bvp,
    "scenario": _cmd_scenario,
    "recurrence": _cmd_recurrence,
    "identity-check": _cmd_identity_check,
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="greenbound", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--q", type=str, default=None)
        sp.add_argument("--grid-n", dest="grid_n", type=str, default=None)
        sp.add_argument("--interval", type=str, default=None,
                        help="a,b (default 0,1)")
        sp.add_argument("--tolerance", type=str, default=None)
        sp.add_argument("--V", type=str, default=None,
                        help="builtin: constant:<c> | power-distance:<coef>,<beta>")
        sp.add_argument("--V-file", dest="V_file", type=str, default=None)
        sp.add_argument("--f", type=str, default=None)
        sp.add_argument("--f-file", dest="f_file", type=str, default=None)
        sp.add_argument("--scenario", type=str, default=None)
        sp.add_argument("--id", type=str, default=None)
        sp.add_argument("--alpha", type=str, default=None)
        sp.add_argument("--lambda", dest="lam", type=str, default=None)
        sp.add_argument("--beta", type=str, default=None)
        sp.add_argument("--gamma", type=str, default=None)
        sp.add_argument("--a", type=str, default=None)
        sp.add_argument("--kmax", type=str, default=None)
        sp.add_argument("--levels", type=str, default=None)
        sp.add_argument("--boundary", type=str, default=None)
        sp.add_argument("--out", type=str, default=None, help="CSV output path")
        sp.add_argument("--summary", type=str, default=None,
                        help="JSON summary path (default: stdout)")
        sp.add_argument("--format", type=str, choices=("csv", "json"),
                        default="json")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args = _merge_config(args)
        handler = _COMMANDS[args.command]
    except SystemExit as exc:  # argparse reports its own diagnostics
        return 3 if exc.code not in (0, None) else 0
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, InvalidGridError, InvalidScenarioError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (SolverFailureError, ResolutionInsufficientError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except _PRECONDITION_ERRORS as exc:
        extra = ""
        if isinstance(exc, PreconditionFailedError) and exc.nodes:
            extra = f" (nodes {exc.nodes[:10]})"
        print(f"condition failure: {exc}{extra}", file=sys.stderr)
        return 1
    except GreenboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
