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
non-convergence or insufficient resolution, 3 malformed configuration.
Each error class in greenbound.errors carries its code as ``exit_code``; a
ValueError or OSError exits 3.  ``bound`` adds Theorem 4's sufficiency
flags wherever its monotone regime (greenbound.fixedpoint) holds.

Each command accepts only the flags it reads (see ``<command> --help``),
spelled in full; any other flag or prefix, a non-finite number or a
malformed value exits 3.  A flat
key=value file passed with --config sets the command's defaults: keys are
flag dests (grid_n, V_file, f_file, lam, ...), values are checked like
flags, and explicit flags win.

V and f can be CSV files (columns x,value) or built-ins "constant:<c>" and
"power-distance:<coef>,<beta>" (coef · d(x)^{-beta}); --scenario instead
names the whole problem, with greenbound.scenarios.SCENARIOS' parameters.
Handlers return (summary, table, exit code) and only main writes: the CSV
table to --out, then the JSON summary to --summary or stdout, except that
bound --format csv without --out and --summary prints the table instead.
All floating output is written with full round-trip precision (%.17g in
CSV); outputs are deterministic for identical configurations.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .bvp import fd_solve, lemma41_identity_check
from .domain import (SCHEMA, GridFn, Interval, make_grid, read_gridfn_csv, sample,
                     write_gridfn_csv, write_json)
from .errors import ConfigError, DomainError, GreenboundError, InvalidSignError
from .estimates import Problem, thm1_bound, thm4_conditions
from .fixedpoint import scalar_recurrence, solve_integral_equation
from .green import Kernel, potential
from .phi import PhiFamily
from .scenarios import (ScenarioSpec, _distance_power, _scenario, build_scenario,
                        fit_boundary_rate, sharpness_report_ex4,
                        verify_cancellation_ex1)


# stderr prefix per exit code; each error class carries its exit code
_FAILURE_KIND = {1: "condition failure", 2: "numerical failure", 3: "config error"}


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


def _finite(text) -> float:
    """A finite float: nan and inf are malformed configuration."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _count(text) -> int:
    """A nonnegative integer (iteration caps, grid levels)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _pair(text) -> tuple[float, float]:
    """Two finite floats written a,b."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected a,b, got {text!r}")
    return _finite(parts[0]), _finite(parts[1])


def _format(text) -> str:
    if text not in ("csv", "json"):
        raise argparse.ArgumentTypeError(f"expected csv or json, got {text!r}")
    return text


def _coefficient(spec_text, grid, name):
    """Build a GridFn from a builtin spec string or a CSV file path."""
    text = str(spec_text)
    params = text.split(":", 1)[-1]
    try:
        if text.startswith("constant:"):
            c = _finite(params)
            return sample(lambda x, c=c: c, grid)
        if text.startswith("power-distance:"):
            return sample(_distance_power(grid.interval, *_pair(params)), grid)
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"bad {name} builtin {text!r}: {exc}") from exc
    fn = read_gridfn_csv(text)
    if fn.grid != grid:
        raise ConfigError(f"{name} file grid does not match --grid-n/--interval")
    return fn


def _refuse(args, flags, why) -> None:
    """A ConfigError naming the first of these flags that is set."""
    for flag in flags:
        dest = _FLAGS.get(flag, {}).get("dest", flag[2:].replace("-", "_"))
        if getattr(args, dest) is not None:
            raise ConfigError(f"{flag} {why}")


def _scenario_spec(sid, args) -> ScenarioSpec:
    """The scenario's spec from the flags set; the rest take its defaults."""
    grid = make_grid(_scenario(sid)[0], args.grid_n)
    return ScenarioSpec(sid, grid, q=args.q, alpha=args.alpha, lam=args.lam,
                        beta=args.beta, gamma=args.gamma)


def _problem_from_args(args) -> tuple[Problem, GridFn | None]:
    if args.scenario:
        _refuse(args, _SOURCE, "is not read with --scenario")
        return build_scenario(_scenario_spec(args.scenario, args))
    _refuse(args, _PARAMS, "is read only with --scenario")
    if (args.V is None) == (args.V_file is None):
        raise ConfigError("need one of --V and --V-file, or --scenario")
    if args.f is not None and args.f_file is not None:
        raise ConfigError("--f and --f-file exclude each other")
    if args.q is None:
        raise ConfigError("need --q")
    grid = make_grid(Interval(*(args.interval or (0.0, 1.0))), args.grid_n)
    V = _coefficient(args.V_file or args.V, grid, "V")
    f = _coefficient(args.f_file or args.f or "constant:1", grid, "f")
    return Problem(args.q, V, f, Kernel.closed_form(grid.interval)), None


def _cmd_bound(args) -> tuple:
    problem, _ = _problem_from_args(args)
    try:
        report = thm4_conditions(problem)
    except (InvalidSignError, DomainError):
        # outside Theorem 4's monotone regime: no sufficiency flags
        report = thm1_bound(problem)
    summary = report.summary()
    violated = report.violated_nodes()
    undefined = summary["undefined_nodes"]
    if not (violated or undefined):
        return summary, report.to_csv, 0
    print(f"condition failure: {len(violated)} bracket violation(s), "
          f"{len(undefined)} undefined node(s); first violations: "
          f"{violated[:10]}", file=sys.stderr)
    return summary, report.to_csv, 1


def _cmd_solve_integral(args) -> tuple:
    if args.kmax < 1:
        raise ConfigError("solve-integral needs --kmax >= 1")
    problem, _ = _problem_from_args(args)
    h = potential(problem.kernel, problem.f).value
    trace = solve_integral_equation(problem.kernel, h, problem.V, problem.q,
                                    tol=args.tolerance, k_max=args.kmax)
    summary = {"converged": trace.converged, "accelerated": trace.accelerated,
               "k_stop": trace.k_stop, "residual_norm": trace.residual_norm,
               "damping_events": trace.damping_events, "steps": trace.export_steps()}
    return (summary, lambda path: write_gridfn_csv(trace.solution, path),
            0 if trace.converged else 2)


def _cmd_solve_bvp(args) -> tuple:
    problem, _ = _problem_from_args(args)
    report = fd_solve(problem, boundary=args.boundary, tol=args.tolerance)
    summary = {"converged": report.converged, "residual_norm": report.residual_norm,
               "iterations": report.iterations, "damping_events": report.damping_events}
    return summary, report.to_csv, 0 if report.converged else 2


def _cmd_scenario(args) -> tuple:
    if not args.id:
        raise ConfigError("scenario command needs --id")
    spec = _scenario_spec(args.id, args)
    if spec.id in ("ex1", "ex4"):
        rep = (verify_cancellation_ex1(spec.alpha, spec.grid) if spec.id == "ex1"
               else sharpness_report_ex4(spec.lam, spec.gamma, spec.q, spec.grid))
        return rep.summary(), rep.curves_to_csv, 0
    problem, _ = build_scenario(spec)
    rep = thm1_bound(problem)
    if rep.ghqv.plus_infinite or rep.ghqv.minus_infinite:
        return {"scenario": spec.id, "weight_potential_infinite": True}, None, 1
    # fit the size of G(w): the absorbing ex3 weight has G(w) < 0
    g = rep.ghqv.value
    fit = fit_boundary_rate(GridFn(g.grid, np.abs(g.values)), rep.h)
    return {
        "scenario": spec.id,
        "parameters": {"q": spec.q, "lam": spec.lam, "beta": spec.beta},
        "fitted_rates": {"slope": fit.slope, "slope_ci": fit.slope_ci,
                         "model": fit.model},
        "condition_flags": {
            "necessary_ok_everywhere": bool(np.all(rep.necessary_ok))},
    }, rep.to_csv, 0


def _cmd_recurrence(args) -> tuple:
    if args.q is None or args.a is None:
        raise ConfigError("recurrence needs --q and --a")
    seq = scalar_recurrence(args.q, args.a, args.kmax)
    return {"q": args.q, "a": args.a, "k_max": args.kmax, "b_sequence": seq}, None, 0


def _cmd_identity_check(args) -> tuple:
    if args.q is None:
        raise ConfigError("identity-check needs --q")
    fam = PhiFamily(args.q)
    rng = np.random.default_rng(0)
    a1, a2 = rng.uniform(0.1, 0.4, 2)
    discrepancies = []
    n = args.grid_n
    for _ in range(args.levels + 1):
        grid = make_grid(Interval(0.0, 1.0), n)
        x = grid.nodes
        h = GridFn(grid, 2.0 + np.cos(2 * np.pi * x) + a1 * np.sin(4 * np.pi * x))
        v = GridFn(grid, 0.2 * np.sin(2 * np.pi * x) + a2 * np.cos(6 * np.pi * x) / 3)
        discrepancies.append(lemma41_identity_check(h, v, fam))
        n = 2 * n - 1
    ratios = [discrepancies[i] / discrepancies[i + 1]
              for i in range(len(discrepancies) - 1)]
    return {"q": args.q, "n0": args.grid_n, "discrepancies": discrepancies,
            "halving_ratios": ratios}, None, 0


# add_argument keywords per flag (none: a string, default None); a
# command's own defaults override these
_FLAGS = {
    "--config": dict(help="flat key=value config file; keys are flag dests"),
    "--q": dict(type=_finite),
    "--grid-n": dict(type=int, default=2001),
    "--interval": dict(type=_pair, help="a,b (default 0,1)"),
    "--V": dict(help="builtin: constant:<c> | power-distance:<coef>,<beta>"),
    "--alpha": dict(type=_finite),
    "--lambda": dict(dest="lam", type=_finite),
    "--beta": dict(type=_finite),
    "--gamma": dict(type=_finite),
    "--a": dict(type=_finite),
    "--kmax": dict(type=_count),
    "--levels": dict(type=_count, default=3),
    "--tolerance": dict(type=_finite),
    "--boundary": dict(type=_pair, default=(0.0, 0.0),
                       help="u(a),u(b) (default 0,0)"),
    "--out": dict(help="CSV output path"),
    "--summary": dict(help="JSON summary path (default: stdout)"),
    "--format": dict(type=_format, default="json", metavar="{csv,json}"),
}

# a problem comes from the _SOURCE flags or from --scenario, never both
_SOURCE = ("--interval", "--V", "--V-file", "--f", "--f-file")
_PARAMS = ("--alpha", "--lambda", "--beta", "--gamma")   # of a scenario
_PROBLEM = ("--q", "--grid-n", *_SOURCE, "--scenario", *_PARAMS)

# command: (handler, the flags it reads, its defaults)
_COMMANDS = {
    "bound": (_cmd_bound, (*_PROBLEM, "--format", "--out", "--summary"), {}),
    "solve-integral": (_cmd_solve_integral,
                       (*_PROBLEM, "--tolerance", "--kmax", "--out", "--summary"),
                       {"kmax": 10000}),
    "solve-bvp": (_cmd_solve_bvp,
                  (*_PROBLEM, "--tolerance", "--boundary", "--out", "--summary"),
                  {"tolerance": 1e-8}),
    "scenario": (_cmd_scenario,
                 ("--id", "--q", "--grid-n", *_PARAMS, "--out", "--summary"), {}),
    "recurrence": (_cmd_recurrence, ("--q", "--a", "--kmax", "--summary"),
                   {"kmax": 200}),
    "identity-check": (_cmd_identity_check,
                       ("--q", "--grid-n", "--levels", "--summary"),
                       {"grid_n": 101}),
}


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a ConfigError (exit 3)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def _join_negative_pairs(argv) -> list:
    """``--interval -1,1`` as ``--interval=-1,1``.

    argparse reads a token that starts with '-' as a flag, so a pair value
    with a negative first entry is joined to its pair flag.
    """
    out = []
    for tok in argv:
        negative_pair = tok[:1] == "-" and "," in tok
        if negative_pair and out and _FLAGS.get(out[-1], {}).get("type") is _pair:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv; a --config file's keys become the command's defaults.

    Config values are converted and checked like flags, and explicit flags
    win.  A key that is not a dest of the command's flags is an error.
    """
    argv = _join_negative_pairs(sys.argv[1:] if argv is None else argv)
    parser = _Parser(prog="greenbound", description=__doc__, allow_abbrev=False,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    dests = {}
    for name, (_, flags, defaults) in _COMMANDS.items():
        sp = sub.add_parser(name, allow_abbrev=False)
        dests[name] = {sp.add_argument(flag, **_FLAGS.get(flag, {})).dest
                       for flag in ("--config", *flags)}
        sp.set_defaults(**defaults)
    args = parser.parse_args(argv)
    if args.config:
        cfg = _read_config(args.config)
        for key in cfg:
            if key not in dests[args.command]:
                raise ConfigError(f"unknown config key {key!r} for {args.command}")
        sub.choices[args.command].set_defaults(**cfg)
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        summary, table, code = _COMMANDS[args.command][0](args)
        out = getattr(args, "out", None)
        if table and out:
            table(out)
        if getattr(args, "format", None) == "csv" and not (out or args.summary):
            table(sys.stdout)
        else:
            write_json({"schema": SCHEMA, **summary}, args.summary)
        return code
    except SystemExit as exc:  # --help
        return 3 if exc.code not in (0, None) else 0
    except (GreenboundError, ValueError, OSError) as exc:
        code = getattr(exc, "exit_code", 3)
        nodes = getattr(exc, "nodes", None)
        extra = f" (nodes {nodes[:10]})" if nodes else ""
        print(f"{_FAILURE_KIND[code]}: {exc}{extra}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
