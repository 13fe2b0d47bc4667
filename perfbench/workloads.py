"""The four benchmark workloads: seeded inputs, op schedules and oracle checks.

Each workload runs a fixed *cycle* of operations whose parameters are drawn
from one stratum each, so every cycle has the same mix of op kinds and cost
classes while the seed and the cycle index pick the values inside each
stratum.  ``run`` executes one operation and returns ``None`` when its
outputs pass the oracle, else the failure reason: a key of
``oracles.KNOWN_DEFECTS`` when the failure is one of the named defects of
the code under test, or ``"unexpected:<what>"``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import oracles as O

N_DEFAULT = 2001


@dataclass
class Op:
    kind: str
    params: dict = field(default_factory=dict)


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _strata(rng, lo, hi, k):
    """One uniform draw from each of k equal strata of [lo, hi)."""
    edges = np.linspace(lo, hi, k + 1)
    return [float(rng.uniform(a, b)) for a, b in zip(edges[:-1], edges[1:])]


def _unexpected(what: str) -> str:
    return "unexpected:" + what


def _infinite_verdict(exponent: float, seen: float = 0.0) -> str:
    """Reason for a +-inf verdict on a weight whose exponent is below 2;
    ``seen`` is the exponent a value-only weight shows at its two innermost
    nodes."""
    if O.in_potential_defect_window(exponent):
        return "potential_inf_below_threshold"
    if seen >= O.POTENTIAL_WINDOW[0]:
        return "potential_inf_from_two_node_estimate"
    return _unexpected("inf_verdict_for_integrable_weight")


class Workload:
    name = ""
    # wall seconds of one cycle (2 vCPU Xeon at 2.1 GHz); sets how many
    # cycles a run of --seconds makes
    cycle_seconds = 1.0

    def __init__(self, gb, tracer, workdir):
        self.gb = gb
        self.tracer = tracer
        self.workdir = workdir

    def setup(self, rng) -> None:
        """Generate shared inputs and build shared state (timed as set-up)."""

    def cycle(self, rng) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        """Generator for one op: the first step calls greenbound (the part
        that is timed and traced), the second checks the outputs and
        returns the failure reason or None."""
        return getattr(self, "op_" + op.kind)(**op.params)

    def execute(self, op: Op) -> str | None:
        """Both steps of an op, untimed (warm-up)."""
        return _drain(self.run(op))


def step(gen):
    """Advance an op generator by one step: (reason, done)."""
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value, True
    return None, False


def _drain(gen) -> str | None:
    reason, done = step(gen)
    if not done:
        reason, done = step(gen)
        if not done:
            raise RuntimeError("op generator yielded more than once")
    return reason


# ---------------------------------------------------------------------------
# bounds_sweep
# ---------------------------------------------------------------------------

class BoundsSweep(Workload):
    """A fresh Problem and Kernel per bound report, as the CLI and
    build_scenario build them: the dense kernel build dominates, so O(n^2)
    time and the memory peak show."""

    name = "bounds_sweep"
    cycle_seconds = 2.0

    def setup(self, rng):
        gb = self.gb
        self.grid = gb.make_grid(gb.Interval(0.0, 1.0), N_DEFAULT)
        x = self.grid.nodes
        # V profiles the CLI reads back from CSV: nonpositive ones for q > 1
        # and signed ones for q = 1
        self.csv = []
        for k in range(4):
            amp = _u(rng, 0.5, 20.0)
            shape = 0.2 + rng.uniform(0, 1) * np.sin(
                rng.integers(1, 6) * np.pi * x + rng.uniform(0, 6)) ** 2
            vals = -amp * shape if k < 2 else amp * np.cos(
                rng.integers(1, 4) * np.pi * x + rng.uniform(0, 6))
            path = os.path.join(self.workdir, f"v{k}.csv")
            gb.write_gridfn_csv(gb.GridFn(self.grid, vals), path)
            self.csv.append((path, "q>1" if k < 2 else "q=1",
                             gb.read_gridfn_csv(path).values))
        self.execute(Op("thm1", self._smooth(rng, "q=1", N_DEFAULT)))

    @staticmethod
    def _smooth(rng, regime, n):
        """Criterion-11 style smooth V and f for one regime."""
        q = {"q>1": 1.0 + _u(rng, 0.1, 3.0), "q<0": -_u(rng, 0.1, 3.0),
             "q=1": 1.0, "0<q<1": _u(rng, 0.1, 0.9)}[regime]
        return {"q": q, "n": n, "regime": regime,
                "mag": _u(rng, 0.0, 30.0), "shape": _u(rng, 0.0, 1.0),
                "k": int(rng.integers(1, 6)), "phase": _u(rng, 0.0, 6.0),
                "fa": _u(rng, 0.0, 1.0), "fk": int(rng.integers(0, 4))}

    def cycle(self, rng):
        ops = []
        for regime, n in (("q>1", 8001), ("q>1", 4001), ("q>1", N_DEFAULT),
                          ("q>1", N_DEFAULT), ("q<0", 4001), ("q<0", N_DEFAULT),
                          ("q<0", N_DEFAULT), ("q<0", N_DEFAULT)):
            ops.append(Op("thm4", self._smooth(rng, regime, n)))
        for regime in ("q=1", "q=1", "0<q<1", "0<q<1"):
            ops.append(Op("thm1", self._smooth(rng, regime, N_DEFAULT)))
        ops.append(Op("fd_sandwich", {"q": 1.0 + _u(rng, 0.2, 2.0),
                                      "frac": _u(rng, 0.2, 0.9),
                                      "k": int(rng.integers(1, 4)),
                                      "phase": _u(rng, 0.0, 6.0)}))
        # weight exponents e = beta - q spread across both paper thresholds,
        # e = 1 (bounded ratio below it) and e = 2 (integrable below it)
        for sid, e in zip(("ex2", "ex3", "ex2", "ex3"), _strata(rng, 0.2, 2.4, 4)):
            q = -_u(rng, 0.1, min(0.9, e - 0.05))
            ops.append(Op("scenario_fit", {"sid": sid, "q": q, "beta": e + q,
                                           "lam": _u(rng, 0.5, 2.0)}))
        ops.append(Op("ex4", {"q": -_u(rng, 0.3, 2.0), "gamma": _u(rng, 0.3, 1.6),
                              "lam": _u(rng, 0.3, 1.5)}))
        k = int(rng.integers(0, len(self.csv)))
        q = 1.0 + _u(rng, 0.1, 2.0) if self.csv[k][1] == "q>1" else 1.0
        ops.append(Op("cli_bound", {"csv": k, "q": q}))
        ops.append(Op("cli_ex4", {"q": -_u(rng, 0.3, 2.0), "gamma": _u(rng, 0.3, 1.6),
                                  "lam": _u(rng, 0.3, 1.5)}))
        e = _u(rng, 0.2, 2.4)
        q = -_u(rng, 0.1, min(0.9, e - 0.05))
        ops.append(Op("cli_ex2", {"q": q, "beta": e + q, "lam": _u(rng, 0.5, 2.0)}))
        return ops

    # -- problem assembly, as the CLI and build_scenario do it ------------

    def _problem(self, q, n, regime, mag, shape, k, phase, fa, fk):
        gb = self.gb
        grid = (self.grid if n == N_DEFAULT
                else gb.make_grid(gb.Interval(0.0, 1.0), n))
        sign = {"q>1": -1.0, "q<0": 1.0}.get(regime)
        if sign is None:
            def V(x):
                return mag * math.cos(k * math.pi * x + phase)
        else:
            def V(x):
                return sign * mag * (0.2 + shape * math.sin(k * math.pi * x + phase) ** 2)

        def f(x):
            return 0.05 + fa * math.cos(fk * math.pi * x) ** 2

        return gb.Problem(q, gb.sample(V, grid), gb.sample(f, grid),
                          gb.Kernel.closed_form(grid.interval))

    def _check_smooth_bound(self, rep, q, V, f):
        """h, G(h^q V) and the bound against the two-moment reference."""
        nodes = rep.grid.nodes
        h_ref = O.green_apply(nodes, f)
        if O.relerr(rep.h.values, h_ref) > 1e-10:
            return _unexpected("h_mismatch")
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(h_ref > 0, h_ref, 0.0) ** q * V
        g_ref = O.green_apply(nodes, w)
        g = rep.ghqv.value.values
        if not np.all(np.isfinite(g)) or O.relerr(g, g_ref) > 1e-9:
            return _unexpected("weight_potential_mismatch")
        ratio = np.zeros_like(h_ref)
        ratio[1:-1] = g_ref[1:-1] / h_ref[1:-1]
        ref = O.regime_bound(q, h_ref, ratio)
        ref[0] = ref[-1] = 0.0
        got = rep.bound.values
        if not np.array_equal(np.isnan(got), np.isnan(ref)):
            # a bracket within rounding of the necessity slack may flip
            flips = np.isnan(got) != np.isnan(ref)
            if np.any(np.abs(1.0 + (q - 1.0) * ratio[flips]) > 1e-9):
                return _unexpected("bound_defined_set_mismatch")
        both = ~np.isnan(got) & ~np.isnan(ref)
        if both.any() and O.relerr(got[both], ref[both]) > 1e-8:
            return _unexpected("bound_mismatch")
        return None

    def op_thm4(self, q, n, regime, **shape):
        gb = self.gb
        problem = self._problem(q, n, regime, **shape)
        rep = gb.thm4_conditions(problem)
        yield
        if np.any(rep.sufficient_ok & ~rep.necessary_ok):
            return _unexpected("sufficient_without_necessary")   # criterion 11
        infinite = rep.ghqv.plus_infinite or rep.ghqv.minus_infinite
        if q > 1.0:
            if infinite:
                return _unexpected("inf_verdict_for_smooth_weight")
            return self._check_smooth_bound(rep, q, problem.V.values,
                                            problem.f.values)
        # q < 0: h^q V ~ d^q at both ends, integrable against G iff -q < 2
        if -q >= 2.0:
            if not rep.ghqv.plus_infinite or np.any(rep.sufficient_ok[1:-1]):
                return _unexpected("finite_verdict_for_nonintegrable_weight")
            return None
        if infinite:
            h, V = rep.h.values, problem.V.values
            seen = O.two_node_exponent(h[1] ** q * V[1], h[2] ** q * V[2])
            return _infinite_verdict(-q, seen)
        if O.relerr(rep.h.values, O.green_apply(rep.grid.nodes, problem.f.values)) > 1e-10:
            return _unexpected("h_mismatch")
        return None

    def op_thm1(self, q, n, regime, **shape):
        gb = self.gb
        problem = self._problem(q, n, regime, **shape)
        u = None
        if 0.0 < q < 1.0:
            # positive inside, so {u > 0} is the whole open interval
            vals = np.ones(problem.grid.n)
            vals[[0, -1]] = 0.0
            u = gb.GridFn(problem.grid, vals)
        rep = gb.thm1_bound(problem, u)
        yield
        return self._check_smooth_bound(rep, q, problem.V.values, problem.f.values)

    def op_fd_sandwich(self, q, frac, k, phase):
        """Criterion-07 pattern: thm4 sufficiency, then the FD oracle inside
        the envelope [h, x* h] and above the thm1 lower bound."""
        gb = self.gb
        grid = self.grid
        a_star, x_star = O.sharp_constants(q)
        # -G(h^q V) <= m 1.5 (1/8)^{q-1} h, so this m satisfies the condition
        m = frac * a_star / (1.5 * 0.125 ** (q - 1.0))

        def V(x):
            return -m * (0.5 + math.sin(k * math.pi * x + phase) ** 2)

        problem = gb.Problem(q, gb.sample(V, grid), gb.sample(lambda x: 1.0, grid),
                             gb.Kernel.closed_form(grid.interval))
        cond = gb.thm4_conditions(problem)
        h = cond.h
        sufficient = bool(np.all(cond.sufficient_ok))
        fd = gb.fd_solve(problem, init=h, tol=1e-8) if sufficient else None
        yield
        if not sufficient:
            return _unexpected("sufficient_condition_rejected")
        if not fd.converged:
            return _unexpected("fd_unconverged")
        inner = slice(1, -1)
        u, hh = fd.solution.values[inner], h.values[inner]
        slack = 10.0 * grid.spacing ** 2 * hh
        if np.any(u < hh - slack) or np.any(u > x_star * hh + slack):
            return _unexpected("fd_outside_envelope")
        if np.any(u < cond.bound.values[inner] - slack):
            return _unexpected("fd_below_lower_bound")
        return None

    def _expect_fit(self, e, model, slope):
        """Boundary-rate model of G(h^q V)/h for weight exponent e < 2.

        The paper's rate is d^{1-e} for 1 < e < 2, log(1/d) at e = 1 and
        bounded below.  On the fixed window d in [1e-3, 1e-2] the fitted
        slope carries a log correction that decays away from e = 1: it is
        within 0.05 of 1 - e from e = 1.45 on, and is only bracketed
        nearer to the threshold.  Between e = 0.75 and 0.95 either model
        may win, so nothing is asserted there.
        """
        if e < 0.75 and model != "bounded":
            return _unexpected("fit_not_bounded")
        if 1.45 <= e and (model != "power" or abs(slope - (1.0 - e)) > 0.05):
            return _unexpected("fit_rate_mismatch")
        if 0.95 <= e < 1.45 and (model == "bounded" or not 1.0 - e - 0.25 <= slope < 0.0):
            return _unexpected("fit_rate_mismatch")
        return None

    def op_scenario_fit(self, sid, q, beta, lam):
        gb = self.gb
        spec = gb.ScenarioSpec(sid, self.grid, q=q, beta=beta,
                               lam=lam if sid == "ex2" else None)
        problem, _ = gb.build_scenario(spec)
        rep = gb.thm1_bound(problem)
        infinite = rep.ghqv.plus_infinite or rep.ghqv.minus_infinite
        if not infinite:
            # ex3 absorbs: its weight potential is negative, fit its size
            g = rep.ghqv.value
            if sid == "ex3":
                g = gb.GridFn(g.grid, -g.values)
            fit = gb.fit_boundary_rate(g, rep.h)
        yield
        e = beta - q
        diverged = rep.ghqv.minus_infinite if sid == "ex3" else rep.ghqv.plus_infinite
        if e >= 2.0:
            return None if diverged else _unexpected("finite_verdict_for_nonintegrable_weight")
        if infinite:
            return _infinite_verdict(e)
        return self._expect_fit(e, fit.model, fit.slope)

    def _expect_ex4(self, q, gamma, lam, classification):
        e = O.ex4_weight_exponent(q, gamma)
        if e >= 2.0:
            ok = classification == "trivialized"
        elif classification == "trivialized":
            x = -1.0 + 2.0 * np.arange(1, 3) / (N_DEFAULT - 1)
            w = (0.5 * (1.0 - x * x)) ** q * self.gb.ex4_functions(lam, gamma, q)["V"](x)
            return _infinite_verdict(e, O.two_node_exponent(w[0], w[1]))
        elif gamma <= 1.05:
            ok = classification == "sharp"
        elif gamma >= 1.3:
            ok = classification == "not-sharp"
        else:
            ok = classification in ("sharp", "not-sharp")
        return None if ok else _unexpected("ex4_classification")

    def op_ex4(self, q, gamma, lam):
        gb = self.gb
        grid = gb.make_grid(gb.Interval(-1.0, 1.0), N_DEFAULT)
        rep = gb.sharpness_report_ex4(lam, gamma, q, grid)
        yield
        return self._expect_ex4(q, gamma, lam, rep.classification)

    def _cli(self, *argv):
        from greenbound import cli
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main([str(a) for a in argv])

    def op_cli_bound(self, csv, q):
        path, regime, V = self.csv[csv]
        out = os.path.join(self.workdir, "bound.csv")
        summary = os.path.join(self.workdir, "bound.json")
        code = self._cli("bound", "--q", repr(q), "--interval", "0,1",
                         "--grid-n", N_DEFAULT, "--V-file", path,
                         "--f", "constant:1", "--out", out, "--summary", summary)
        yield
        nodes = self.grid.nodes
        h = O.green_apply(nodes, np.ones(nodes.size))
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(h > 0, h, 0.0) ** q * V
        ratio = np.zeros_like(h)
        ratio[1:-1] = O.green_apply(nodes, w)[1:-1] / h[1:-1]
        bracket = 1.0 + (q - 1.0) * ratio[1:-1]
        violated = q > 1.0 and bool(np.any(bracket <= 1e-12))
        if code != (1 if violated else 0):
            return _unexpected(f"cli_exit_{code}")
        with open(summary) as fh:
            data = json.load(fh)
        if data["schema"] != "greenbound/1" or abs(
                data["min_bracket"] - bracket.min()) > 1e-9 * max(1.0, abs(bracket.min())):
            return _unexpected("cli_summary_mismatch")
        table = np.genfromtxt(out, delimiter=",", names=True)
        ref = O.regime_bound(q, h, ratio)
        ref[0] = ref[-1] = 0.0
        got = table["bound"]
        both = ~np.isnan(got) & ~np.isnan(ref)
        if O.relerr(got[both], ref[both]) > 1e-8:
            return _unexpected("cli_bound_mismatch")
        return None

    def op_cli_ex4(self, q, gamma, lam):
        summary = os.path.join(self.workdir, "ex4.json")
        code = self._cli("scenario", "--id", "ex4", "--q", repr(q),
                         "--lambda", repr(lam), "--gamma", repr(gamma),
                         "--grid-n", N_DEFAULT, "--summary", summary,
                         "--out", os.path.join(self.workdir, "ex4.csv"))
        yield
        if code != 0:
            return _unexpected(f"cli_exit_{code}")
        with open(summary) as fh:
            return self._expect_ex4(q, gamma, lam, json.load(fh)["classification"])

    def op_cli_ex2(self, q, beta, lam):
        summary = os.path.join(self.workdir, "ex2.json")
        code = self._cli("scenario", "--id", "ex2", "--q", repr(q),
                         "--lambda", repr(lam), "--beta", repr(beta),
                         "--grid-n", N_DEFAULT, "--summary", summary,
                         "--out", os.path.join(self.workdir, "ex2.csv"))
        yield
        e = beta - q
        if e >= 2.0:
            return None if code == 1 else _unexpected(f"cli_exit_{code}")
        if code == 1:
            return _infinite_verdict(e)
        if code != 0:
            return _unexpected(f"cli_exit_{code}")
        with open(summary) as fh:
            rates = json.load(fh)["fitted_rates"]
        return self._expect_fit(e, rates["model"], rates["slope"])


# ---------------------------------------------------------------------------
# singular_edges
# ---------------------------------------------------------------------------

def _singular_tol(beta: float) -> float:
    """Accepted relative error of a finite singular potential.

    Trapezoid panels next to a d^{-beta} singularity converge like
    dx^{2-beta}: at n = 2001 the measured error stays below 3e-4 for
    beta < 1.5 and below 9e-3 up to the defect window.
    """
    return 3e-3 if beta < 1.5 else 3e-2


IMPROPER_N = 1001


class SingularEdges(Workload):
    """Endpoint-singular sources on one warm kernel: shell moments and Gauss
    panels do the work, the dense kernel build none."""

    name = "singular_edges"
    cycle_seconds = 1.0

    PROBES = np.array([1, 10, 100, 500, 1000, 1500, 1990, 1999])

    def setup(self, rng):
        gb = self.gb
        self.grid = gb.make_grid(gb.Interval(0.0, 1.0), N_DEFAULT)
        self.kernel = gb.Kernel.closed_form(self.grid.interval)
        self.kernel.matrix_for(self.grid)
        for op in self.cycle(rng)[:6]:
            self.execute(op)

    def cycle(self, rng):
        ops = []
        for sided in ("two", "left", "right"):
            for attached in (True, False):
                for beta in _strata(rng, 0.2, 2.4, 8):
                    ops.append(Op("power", {"beta": beta, "sided": sided,
                                            "attached": attached,
                                            "lam": _u(rng, 0.5, 2.0),
                                            "sign": float(rng.choice([-1.0, 1.0]))}))
        b2s = rng.permutation(_strata(rng, 0.2, 2.4, 8))
        for b1, b2 in zip(_strata(rng, 0.2, 2.4, 8), b2s):
            ops.append(Op("sign_changing", {"b1": b1, "b2": float(b2),
                                            "l1": _u(rng, 0.5, 2.0),
                                            "l2": _u(rng, 0.5, 2.0)}))
        for beta in _strata(rng, 1.0, 3.4, 16):
            x, y = rng.uniform(0.02, 0.98, 2)
            ops.append(Op("iterated", {"beta": beta, "x": float(x), "y": float(y),
                                       "lam": _u(rng, 0.5, 2.0),
                                       "sign": float(rng.choice([-1.0, 1.0]))}))
        for beta in _strata(rng, 0.2, 1.8, 8):
            ops.append(Op("improper_at", {"beta": beta, "x": _u(rng, 0.01, 0.99)}))
        ops.append(Op("improper_full", {"beta": _u(rng, 0.2, 1.8)}))
        return ops

    def _edge_source(self, sided, beta):
        if sided == "two":
            return lambda x: np.minimum(x, 1.0 - x) ** (-beta)
        if sided == "left":
            return lambda x: np.asarray(x, dtype=float) ** (-beta)
        return lambda x: (1.0 - np.asarray(x, dtype=float)) ** (-beta)

    def _sampled(self, fn, attached, grid=None):
        """Source on the grid, evaluated in one vectorized call so that the
        per-node loop of ``sample`` (timed in bounds_sweep) stays out."""
        grid = grid or self.grid
        fn = self.tracer.counted(fn, "green.fn_evals")
        with np.errstate(divide="ignore", over="ignore"):
            vals = fn(grid.nodes)
        return self.gb.GridFn(grid, vals, fn=fn if attached else None)

    def op_power(self, beta, sided, attached, lam, sign):
        gb = self.gb
        base = self._edge_source(sided, beta)
        f = self._sampled(lambda x: sign * lam * base(x), attached)
        res = gb.potential(self.kernel, f)
        yield
        vals = res.value.values[self.PROBES]
        diverged = res.plus_infinite if sign > 0 else res.minus_infinite
        if beta >= 2.0:
            ok = diverged and np.all(np.isinf(vals[1:-1])) and res.fully_defined
            return None if ok else _unexpected("finite_verdict_for_nonintegrable_source")
        if res.plus_infinite or res.minus_infinite:
            return _infinite_verdict(beta)
        x = self.grid.nodes[self.PROBES]
        ref = sign * lam * np.array([O.power_source_potential(t, beta, sided) for t in x])
        if O.relerr(vals, ref) > _singular_tol(beta):
            return _unexpected("singular_potential_mismatch")
        return None

    def op_sign_changing(self, b1, b2, l1, l2):
        """+l1 d^{-b1} on (0, 1/2), -l2 d^{-b2} on [1/2, 1): both parts may diverge."""
        gb = self.gb

        def fn(x):
            x = np.asarray(x, dtype=float)
            d = np.minimum(x, 1.0 - x)
            with np.errstate(divide="ignore"):
                return np.where(x < 0.5, l1 * d ** (-b1), -l2 * d ** (-b2))

        res = gb.potential(self.kernel, self._sampled(fn, True))
        yield
        div1, div2 = b1 >= 2.0, b2 >= 2.0
        got1, got2 = res.plus_infinite, res.minus_infinite
        if (got1, got2) != (div1, div2):
            wrong = [b for b, want, got in ((b1, div1, got1), (b2, div2, got2))
                     if want != got]
            if any(b >= 2.0 or not O.in_potential_defect_window(b) for b in wrong):
                return _unexpected("sign_changing_verdict")
            return "potential_inf_below_threshold"
        inner = res.value.values[1:-1]
        if div1 and div2:
            ok = not res.well_defined[1:-1].any() and np.isnan(inner).all()
            return None if ok else _unexpected("undefined_not_reported")
        if div1 or div2:
            ok = np.all(np.isinf(inner)) and np.all(np.sign(inner) == (1 if div1 else -1))
            return None if ok else _unexpected("one_sided_divergence_value")
        x = self.grid.nodes[self.PROBES]
        ref = np.array([l1 * O.half_source_potential(t, b1, "left")
                        - l2 * O.half_source_potential(t, b2, "right") for t in x])
        tol = _singular_tol(max(b1, b2))
        # the jump at x = 1/2 sits on a node: first-order error there
        scale = l1 * O.half_source_potential(0.5, b1, "left") + \
            l2 * O.half_source_potential(0.5, b2, "right")
        err = np.max(np.abs(res.value.values[self.PROBES] - ref)) / scale
        return None if err <= tol else _unexpected("sign_changing_mismatch")

    def op_iterated(self, beta, x, y, lam, sign):
        gb = self.gb
        V = self._sampled(lambda t: sign * lam * np.minimum(t, 1.0 - t) ** (-beta), True)
        try:
            got = gb.iterated_kernel(self.kernel, V, x, y)
        except gb.NotIntegrableError:
            got = None
        yield
        if got is None:
            if beta >= 3.0:
                return None
            if O.in_iterated_defect_window(beta):
                return "iterated_kernel_not_integrable_below_threshold"
            return _unexpected("not_integrable_below_threshold")
        if beta >= 3.0:
            return _unexpected("finite_iterated_kernel_for_nonintegrable_weight")
        ref = sign * lam * O.iterated_power_kernel(x, y, beta)
        tol = _singular_tol(beta - 1.0)
        return None if abs(got - ref) <= tol * abs(ref) else _unexpected("iterated_kernel_mismatch")

    def op_improper_at(self, beta, x):
        gb = self.gb
        f = self._sampled(lambda t: np.minimum(t, 1.0 - t) ** (-beta), True)
        seq = gb.improper_potential_at(self.kernel, f, x)
        yield
        return self._improper_check(beta, [seq[-1]], [x])

    def op_improper_full(self, beta):
        """Whole-grid exhaustion: 20 levels of dense kernel rows, so it runs
        on 1001 nodes to stay about a third of the cycle's time."""
        gb = self.gb
        grid = gb.make_grid(self.grid.interval, IMPROPER_N)
        f = self._sampled(lambda t: np.minimum(t, 1.0 - t) ** (-beta), True, grid)
        res = gb.potential_improper(self.kernel, f)
        yield
        idx = np.flatnonzero(grid.boundary_distance() >= 0.01)[::25]
        return self._improper_check(beta, res.value.values[idx], grid.nodes[idx])

    @staticmethod
    def _improper_check(beta, got, xs):
        """The deepest exhaustion level against the proper potential.

        With the same node count on every Ω_m, the node next to a+δ_m
        weighs f(δ_m) ~ δ_m^{-beta} by dx, so the level error grows like
        dx δ^{1-beta}: the sequence tracks the proper value only for
        beta < 1.  Larger beta is a known inaccuracy of the exhaustion.
        """
        ref = np.array([O.power_source_potential(t, beta, "two") for t in xs])
        if O.relerr(got, ref) <= 1e-2:
            return None
        return ("improper_singular_source_inaccurate" if beta >= 0.9
                else _unexpected("improper_mismatch"))


# ---------------------------------------------------------------------------
# tangent_solve
# ---------------------------------------------------------------------------

# c/a* <= 0.98 converges within 140 iterations at n = 2001 for every q below;
# at tangency the accelerated solver needs 20 for q in {-1, -0.5}
K_MAX = 200
TANGENT_QS = (-2.0, -1.0, -0.5, 2.0, 3.0)


class TangentSolve(Workload):
    """Fixed-point solves on one warm kernel: repeated potential and
    power_product calls, so a faster apply and fewer iterations both show."""

    name = "tangent_solve"
    cycle_seconds = 4.5

    def setup(self, rng):
        gb = self.gb
        self.grid = gb.make_grid(gb.Interval(0.0, 1.0), N_DEFAULT)
        self.kernel = gb.Kernel.closed_form(self.grid.interval)
        self.h = gb.potential(self.kernel, gb.sample(lambda x: 1.0, self.grid)).value
        self.execute(Op("solve", {"q": -1.0, "ratio": 0.5}))

    def cycle(self, rng):
        ops = []
        for q in TANGENT_QS:
            for r in _strata(rng, 0.02, 0.98, 8) + [1.0]:
                ops.append(Op("solve", {"q": q, "ratio": r}))
        return ops

    def op_solve(self, q, ratio):
        """V = ±c h^{-q} with f = 1 makes u = x_c h exact, x = 1 ∓ c x^q."""
        gb = self.gb
        a_star, _ = gb.sharp_constants(q)
        c = ratio * a_star
        hv = self.h.values
        with np.errstate(divide="ignore"):
            V = gb.GridFn(self.grid, (c if q < 0 else -c) * hv ** (-q))
        trace = gb.solve_integral_equation(self.kernel, self.h, V, q, k_max=K_MAX)
        yield
        if not trace.converged:
            if ratio == 1.0 and q in (-2.0, 2.0, 3.0):
                return "tangency_unconverged"
            return _unexpected("unconverged")
        x = O.scalar_fixed_point(q, c) if ratio < 1.0 else O.sharp_constants(q)[1]
        err = np.max(np.abs(trace.solution.values - x * hv)) / np.max(hv)
        return None if err <= 1e-7 else _unexpected("fixed_point_mismatch")


# ---------------------------------------------------------------------------
# ex1_sweep
# ---------------------------------------------------------------------------

class Ex1Sweep(Workload):
    """Oscillatory cancellation checks: green_apply_oscillatory does the work
    and the Green kernel none, so kernel changes must leave it flat."""

    name = "ex1_sweep"
    cycle_seconds = 9.0

    def setup(self, rng):
        gb = self.gb
        self.grid = gb.make_grid(gb.Interval(0.0, 1.0), N_DEFAULT)
        self.execute(Op("cancellation", {"alpha": 0.3}))

    def cycle(self, rng):
        # Criterion 08's stability threshold (0.02) holds up to alpha ~ 0.83
        # at n = 2001, so the alpha < 1 mode stays in (0, 0.8].  Its cost is
        # a step function of alpha (the resolved period count doubles): ~45
        # ms below 0.5, then plateaus of 0.07, 0.33 and 2.1 s.  Twelve
        # strata below 0.5 keep the median op in the fast class, and one
        # draw inside each plateau keeps a seed's cost off the steps.
        alphas = _strata(rng, 0.0, 0.5, 12) + [
            _u(rng, lo, hi) for lo, hi in ((0.525, 0.535), (0.6, 0.62), (0.7, 0.8))]
        alphas[0] = max(alphas[0], 1e-3)
        return [Op("cancellation", {"alpha": a}) for a in alphas + [1.0]]

    def op_cancellation(self, alpha):
        """Criterion 08 thresholds for the alpha < 1 and alpha = 1 modes."""
        rep = self.gb.verify_cancellation_ex1(alpha, self.grid)
        yield
        if not rep.positivity_min > 0.0:
            return _unexpected("ex1_solution_not_positive")
        if alpha < 1.0:
            ok = (np.isfinite(rep.sup_ratio) and rep.stability <= 0.02
                  and rep.bound_margin_min >= -1e-6 and rep.bound_violations == 0)
        else:
            ok = rep.growth_factor >= 2.0 and rep.logratio_variation < 4.0
        return None if ok else _unexpected("ex1_criterion_08")


WORKLOADS = {w.name: w for w in (BoundsSweep, SingularEdges, TangentSolve, Ex1Sweep)}
