"""Built-in model problems with known structure, and their verifiers.

Four families are provided; ``SCENARIOS`` gives each one's interval and the
parameters it reads, with their defaults:

* ``ex1``  on (0,1), q = 1: the rapidly oscillating potential built from the
  exact solution u = x(1-x)(1 + x sin(π/x^α)).  Near x = 0 the leading part
  of V oscillates like x^{-2α-1} sin(π/x^α); the Green potential G(hV)
  nevertheless stays O(x) for α < 1 (cancellation) and grows like
  x log(1/x) for α = 1, where it exists only as an improper integral.
* ``ex2``  on (0,1), q < 0: V = λ d(x)^{-β} with d the boundary distance.
  G(h^q V)/h is bounded for β < 1+q, grows like log(A/d) at β = 1+q
  (A = 2 diam), and like d^{1+q-β} for 1+q < β < 2+q; at β >= 2+q the
  weight is no longer integrable against the kernel.
* ``ex3``  on (0,1), q < 0: V = -d(x)^{-β}, the absorbing counterpart.
* ``ex4``  on (-1,1), q < 0: V assembled so that u = λ(1-x²)^γ solves
  -u'' + V u^q = 1 exactly; γ = 1 gives the constant weight
  h^q V = (2λ)^{-q}(1-2λ) and the upper bound √(1-(1-q)(2λ)^{-q}(1-2λ)) h
  pattern used for sharpness checks.

The oscillatory Example-1 quadrature lives in :mod:`greenbound._oscillate`;
everything here only assembles integrands and interprets results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from ._oscillate import green_apply_oscillatory
from .domain import SCHEMA, Grid, GridFn, Interval, sample, write_csv, write_json
from .errors import (InvalidGridError, InvalidScenarioError,
                     ResolutionInsufficientError, WindowTooSmallError)
from .estimates import Problem, thm1_bound, unified_bound
from .green import Kernel

__all__ = [
    "ScenarioSpec",
    "AsymptoticFit",
    "Ex1CancellationReport",
    "Ex4SharpnessReport",
    "build_scenario",
    "verify_cancellation_ex1",
    "fit_boundary_rate",
    "sharpness_report_ex4",
    "ex1_functions",
    "ex4_functions",
]


FIT_WINDOW = (1e-3, 1e-2)   # boundary-distance window, in units of the length
FIT_MIN_NODES = 8
BOUNDED_SLOPE = 0.1         # |fitted slope| below this classifies as bounded
EX1_HEAD_BUDGET = 5e-11     # oscillatory head budget of the alpha < 1 check
EX1_WINDOW_BUDGET = 1e-8    # exhaustion window budget of the alpha = 1 check

# id: (interval, every parameter the scenario reads with its default)
SCENARIOS = {
    "ex1": (Interval(0.0, 1.0), {"q": 1.0, "alpha": 0.5}),
    "ex2": (Interval(0.0, 1.0), {"q": -0.5, "lam": 1.0, "beta": 1.0}),
    "ex3": (Interval(0.0, 1.0), {"q": -0.5, "beta": 1.0}),
    "ex4": (Interval(-1.0, 1.0), {"q": -1.0, "lam": 1.0, "gamma": 1.0}),
}


def _scenario(sid: str) -> tuple[Interval, dict]:
    """The SCENARIOS entry of an id; an unknown id is an invalid scenario."""
    if sid not in SCENARIOS:
        raise InvalidScenarioError(f"unknown scenario {sid!r}")
    return SCENARIOS[sid]


@dataclass(frozen=True)
class ScenarioSpec:
    """Identifier + parameters for one built-in scenario.

    An unset parameter takes its ``SCENARIOS`` default.  A parameter the
    scenario does not read, a grid off its interval, q != 1 for ex1, q >= 0
    for the others, or alpha, lam, beta or gamma <= 0 is an invalid scenario.
    """

    id: str
    grid: Grid
    q: float | None = None
    alpha: float | None = None
    lam: float | None = None
    beta: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        interval, defaults = _scenario(self.id)
        for name in ("q", "alpha", "lam", "beta", "gamma"):
            value = getattr(self, name)
            if value is None:
                object.__setattr__(self, name, defaults.get(name))
            elif name not in defaults:
                raise InvalidScenarioError(f"{self.id} does not read {name}")
            elif name != "q" and not value > 0:
                raise InvalidScenarioError(f"{self.id} needs {name} > 0")
        if self.grid.interval != interval:
            raise InvalidScenarioError(
                f"{self.id} lives on ({interval.left:g},{interval.right:g})")
        if self.id == "ex1" and self.q != 1.0:
            raise InvalidScenarioError("ex1 is the linear scenario (q = 1)")
        if self.id != "ex1" and not self.q < 0:
            raise InvalidScenarioError(f"{self.id} needs q < 0")


def ex1_functions(alpha: float) -> dict:
    """Vectorized callables for the oscillatory scenario.

    Keys: u, V, hV, D (the factor 1 + x sin(π/x^α)).  hV is evaluated in
    the singularity-free form (1 + u'')/(2 D).
    """
    if not alpha > 0:
        raise InvalidScenarioError("ex1 needs alpha > 0")

    def D(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return 1.0 + x * np.sin(np.pi * x ** (-alpha))

    def one_plus_upp_and_D(x):
        # 1 + u'' and D from one evaluation of x^{-α}, sin and cos
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = x ** (-alpha)
            phase = np.pi * t
            s = np.sin(phase)
            c = np.cos(phase)
            num = (-1.0 + 2.0 * (1.0 - 3.0 * x) * s
                   - 2.0 * alpha * np.pi * (1.0 - 2.0 * x) * t * c
                   - alpha ** 2 * np.pi ** 2 * (1.0 - x) * t * t * s
                   + alpha * np.pi * (alpha - 1.0) * (1.0 - x) * t * c)
        return num, 1.0 + x * s

    def u(x):
        x = np.asarray(x, dtype=float)
        inside = (x > 0.0) & (x < 1.0)
        with np.errstate(invalid="ignore"):
            vals = np.where(inside, x * (1.0 - x) * D(np.where(inside, x, 0.5)), 0.0)
        return vals

    def V(x):
        x = np.asarray(x, dtype=float)
        inside = (x > 0.0) & (x < 1.0)
        xs = np.where(inside, x, 0.5)
        num, d = one_plus_upp_and_D(xs)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = num / (xs * (1.0 - xs) * d)
        return np.where(inside, vals, np.inf)

    def hV(x):
        x = np.asarray(x, dtype=float)
        inside = (x > 0.0) & (x < 1.0)
        xs = np.where(inside, x, 0.5)
        num, d = one_plus_upp_and_D(xs)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = num / (2.0 * d)
        return np.where(inside, vals, 0.0)

    return {"u": u, "V": V, "hV": hV, "D": D}


def ex4_functions(lam: float, gamma: float, q: float) -> dict:
    """Vectorized callables u and V for the power-profile scenario."""
    if not (q < 0 and lam > 0 and gamma > 0):
        raise InvalidScenarioError("ex4 needs q < 0, lam > 0, gamma > 0")

    def u(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(invalid="ignore"):
            return lam * np.maximum(1.0 - x * x, 0.0) ** gamma

    def V(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = 1.0 - x * x
            v1 = 4.0 * lam ** (1 - q) * gamma * (gamma - 1.0) * t ** (gamma - 2.0 - gamma * q)
            v2 = -2.0 * lam ** (1 - q) * gamma * (2.0 * gamma - 1.0) * t ** (gamma - 1.0 - gamma * q)
            v3 = lam ** (-q) * t ** (-gamma * q)
            return v1 + v2 + v3

    return {"u": u, "V": V}


def _distance_power(interval: Interval, coef: float, beta: float):
    a, b = interval.left, interval.right

    def V(x):
        x = np.asarray(x, dtype=float)
        d = np.minimum(x - a, b - x)
        with np.errstate(divide="ignore", over="ignore"):
            return coef * d ** (-beta)

    return V


def build_scenario(spec: ScenarioSpec) -> tuple[Problem, GridFn | None]:
    """Assemble (Problem, exact solution when known) for a scenario."""
    grid = spec.grid
    one = sample(lambda x: 1.0, grid)
    kernel = Kernel.closed_form(grid.interval)
    if spec.id in ("ex2", "ex3"):
        coef = spec.lam if spec.id == "ex2" else -1.0
        V = _distance_power(grid.interval, coef, spec.beta)
        return Problem(spec.q, sample(V, grid), one, kernel), None
    fns = (ex1_functions(spec.alpha) if spec.id == "ex1"
           else ex4_functions(spec.lam, spec.gamma, spec.q))
    return Problem(spec.q, sample(fns["V"], grid), one, kernel), sample(fns["u"], grid)


# ---------------------------------------------------------------------------
# boundary-rate fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares boundary rate of log(g/reference) against log d."""

    window: tuple
    slope: float
    slope_ci: float
    model: str                      # 'power' | 'power_log' | 'bounded'
    rss: dict = field(default_factory=dict)
    n_nodes: int = 0


def fit_boundary_rate(g: GridFn, reference: GridFn) -> AsymptoticFit:
    """Fit the boundary behavior of g/reference over the FIT_WINDOW distances.

    The three candidate models for y = log(g/ref) against d are a power law
    (y affine in log d), a logarithmic profile (g/ref proportional to
    log(A/d) with A = 2 diam), and a bounded profile (y constant).  The
    classification is bounded when the fitted slope is small, otherwise the
    smaller-residual model of the other two.
    """
    if g.grid != reference.grid:
        raise InvalidGridError("g and reference must share a grid")
    grid = g.grid
    L = grid.interval.length
    window = (FIT_WINDOW[0] * L, FIT_WINDOW[1] * L)
    d = grid.boundary_distance()
    gv, rv = g.values, reference.values
    sel = ((d >= window[0]) & (d <= window[1])
           & np.isfinite(gv) & np.isfinite(rv) & (gv > 0) & (rv > 0))
    sel[0] = sel[-1] = False
    m = int(np.count_nonzero(sel))
    if m < FIT_MIN_NODES:
        raise WindowTooSmallError(
            f"only {m} usable nodes in window {window}; need >= {FIT_MIN_NODES}")
    y = np.log(gv[sel] / rv[sel])
    t = np.log(d[sel])

    # power model: y = a + slope * t
    T = np.column_stack([np.ones(m), t])
    coef, *_ = np.linalg.lstsq(T, y, rcond=None)
    fit = T @ coef
    rss_power = float(np.sum((y - fit) ** 2))
    slope = float(coef[1])
    dof = max(m - 2, 1)
    tvar = float(np.sum((t - t.mean()) ** 2))
    se = np.sqrt(rss_power / dof / tvar) if tvar > 0 else np.inf
    ci = 1.96 * float(se)

    # logarithmic model: g/ref = C log(A/d)  =>  y = c + log(log(A/d))
    A = 2.0 * L
    z = np.log(np.log(A / d[sel]))
    c = float(np.mean(y - z))
    rss_log = float(np.sum((y - z - c) ** 2))

    rss_bounded = float(np.sum((y - y.mean()) ** 2))

    if abs(slope) < BOUNDED_SLOPE:
        model = "bounded"
    else:
        model = "power" if rss_power <= rss_log else "power_log"
    return AsymptoticFit(window, slope, ci, model,
                         {"power": rss_power, "power_log": rss_log,
                          "bounded": rss_bounded}, m)


# ---------------------------------------------------------------------------
# oscillatory cancellation verification
# ---------------------------------------------------------------------------

@dataclass
class Ex1CancellationReport:
    alpha: float
    positivity_min: float
    sup_ratio: float | None = None
    sup_ratio_refined: float | None = None
    stability: float | None = None
    bound_margin_min: float | None = None
    bound_violations: int = 0
    certified_remainder: float = 0.0
    probes: np.ndarray | None = None
    improper_values: np.ndarray | None = None
    improper_sequence: list = field(default_factory=list)
    growth_factor: float | None = None
    logratio_variation: float | None = None
    curve_x: np.ndarray | None = None
    curve_ratio: np.ndarray | None = None
    alternating_ok: bool | None = None
    periods: int | None = None
    head_budget_met: bool | None = None

    def curves_to_csv(self, path) -> None:
        if self.curve_x is not None:
            write_csv(path, ["x", "GhV_over_h"], self.curve_x, self.curve_ratio)
        else:
            write_csv(path, ["x", "GhV_improper"], self.probes, self.improper_values)

    def summary(self) -> dict:
        out = {
            "schema": SCHEMA,
            "scenario": "ex1",
            "parameters": {"alpha": self.alpha},
            "positivity_min": self.positivity_min,
            "certified_remainder": self.certified_remainder,
        }
        if self.periods is not None:
            out["alternating_ok"] = self.alternating_ok
            out["periods"] = self.periods
        if self.head_budget_met is not None:
            out["head_budget_met"] = self.head_budget_met
        if self.sup_ratio is not None:
            out["sup_ratio"] = self.sup_ratio
            out["sup_ratio_refined"] = self.sup_ratio_refined
            out["stability"] = self.stability
            out["bound_margin_min"] = self.bound_margin_min
            out["bound_violations"] = self.bound_violations
        if self.growth_factor is not None:
            out["growth_factor"] = self.growth_factor
            out["logratio_variation"] = self.logratio_variation
            out["probes"] = [float(p) for p in self.probes]
            out["improper_values"] = [float(v) for v in self.improper_values]
        return out

    def to_json(self, path) -> None:
        write_json(self.summary(), path)


def _h01(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * x * (1.0 - x)


@cache
def _positivity_scan() -> np.ndarray:
    """Points of (0,1) where ex1's D is checked for positivity, built once."""
    scan = np.concatenate([np.geomspace(1e-7, 1.0 - 1e-7, 120_000),
                           np.linspace(1e-7, 1.0 - 1e-7, 80_000)])
    scan.setflags(write=False)      # shared by every call
    return scan


def verify_cancellation_ex1(alpha: float, grid: Grid, *,
                            max_periods: int = 400_000,
                            probes: np.ndarray | None = None,
                            levels: tuple = (12, 20)) -> Ex1CancellationReport:
    """Measure the cancellation in G(hV) for the oscillatory scenario.

    alpha < 1: evaluates G(hV)/h in one oscillatory pass at a doubled node
    set, whose every other node is a grid node, so the sup over the window
    x <= 1/2 on both node sets gives a stability ratio; also reports the
    worst margin of u against the q = 1 lower bound h e^{-G(hV)/h}.  The
    head of G(hV) below the resolved sign changes is summed by series
    acceleration (see :mod:`greenbound._oscillate`);
    ``certified_remainder`` is the truncation bound of that sum (the
    rounding of the running moments, about 1e-16 relative, is left out),
    and ``head_budget_met`` says whether it met EX1_HEAD_BUDGET within
    ``max_periods``.

    alpha = 1: G(hV) exists only as an improper integral; its exhaustion
    sequence over (δ_m, 1-δ_m), δ_m = 2^{-m-2}, m = levels[0]..levels[1],
    is evaluated at probe points spanning [1e-4, 1e-2], and the growth of
    G(hV)/x together with the flatness of G(hV)/(x log(1/x)) is reported.
    Every level comes from one pass of two running moments down to a sign
    change below the probes; the window from there down to each δ_m is
    summed across dyadic depths (see :mod:`greenbound._oscillate`), and
    ``head_budget_met`` says whether every level met EX1_WINDOW_BUDGET
    within ``max_periods``.  A probe outside a level reads NaN in that
    level's entry of the sequence.

    Both modes report whether the alternation check behind the head
    certificate held (``alternating_ok``) and how many sign intervals were
    resolved (``periods``).
    """
    if not 0 < alpha <= 1:
        raise InvalidScenarioError("cancellation check covers 0 < alpha <= 1")
    ScenarioSpec("ex1", grid, alpha=alpha)
    fns = ex1_functions(alpha)

    scan = _positivity_scan()       # in blocks, to keep the temporaries small
    positivity_min = min(float(np.min(fns["D"](scan[i:i + 8192])))
                         for i in range(0, scan.size, 8192))

    report = Ex1CancellationReport(alpha=alpha, positivity_min=positivity_min)

    if alpha < 1.0:
        # one pass on the doubled node set; its odd entries are the grid's
        # own interior nodes, so both sup ratios come from two node sets
        fine = Grid(grid.interval, 2 * grid.n - 1)
        xs2 = fine.nodes[1:-1]
        res = green_apply_oscillatory(fns["hV"], alpha, xs2,
                                      head_budget=EX1_HEAD_BUDGET,
                                      max_periods=max_periods)
        ratio2 = res.values / _h01(xs2)
        report.sup_ratio_refined = float(np.max(np.abs(ratio2[xs2 <= 0.5])))
        xs = xs2[1::2]
        h = _h01(xs)
        ratio = res.values[1::2] / h
        window = xs <= 0.5
        report.sup_ratio = float(np.max(np.abs(ratio[window])))
        report.certified_remainder = float(res.head_bound)
        report.head_budget_met = report.certified_remainder <= EX1_HEAD_BUDGET
        report.stability = abs(report.sup_ratio_refined - report.sup_ratio) \
            / max(report.sup_ratio, 1e-300)
        report.alternating_ok = res.alternating_ok
        report.periods = res.periods

        u = fns["u"](xs)
        bound = unified_bound(1.0, h, ratio)
        margin = (u - bound) / h
        report.bound_margin_min = float(np.min(margin))
        report.bound_violations = int(np.count_nonzero(margin < -1e-6))
        report.curve_x = xs
        report.curve_ratio = ratio
        return report

    # alpha == 1: improper mode over the standard exhaustion schedule, all
    # levels from one pass over the deepest level's panels
    if not 0 <= levels[0] <= levels[1]:
        raise InvalidScenarioError("exhaustion levels must satisfy 0 <= levels[0] <= levels[1]")
    if probes is None:
        probes = np.geomspace(1e-4, 1e-2, 7)
    probes = np.asarray(probes, dtype=float)
    deltas = 2.0 ** -(np.arange(levels[0], levels[1] + 1) + 2.0)
    inside = ((probes > 1.5 * deltas[:, None])
              & (probes < 1.0 - 1.5 * deltas[:, None]))
    vals = np.full(inside.shape, np.nan)
    eps = np.zeros(inside.shape)
    cols = np.flatnonzero(inside.any(axis=0))
    if cols.size:
        cols = cols[np.argsort(probes[cols], kind="stable")]
        r = green_apply_oscillatory(fns["hV"], alpha, probes[cols],
                                    a=deltas, b=1.0 - deltas,
                                    head_budget=EX1_WINDOW_BUDGET,
                                    max_periods=max_periods)
        vals[:, cols] = r.values
        eps[:, cols] = r.eps
        vals[~inside] = np.nan
        report.alternating_ok = r.alternating_ok
        report.periods = r.periods
        report.head_budget_met = bool(np.all(r.head_bound <= EX1_WINDOW_BUDGET))
    seq = list(vals)
    final = seq[-1]
    if not np.all(np.isfinite(final)):
        raise ResolutionInsufficientError(
            "probe points fall outside every exhaustion level; raise the "
            "level range or move probes away from the boundary")
    report.improper_sequence = seq
    report.improper_values = final
    report.probes = probes
    report.certified_remainder = float(np.max(eps[inside], initial=0.0))
    over_x = final / probes
    report.growth_factor = float(over_x[0] / over_x[-1])
    norm = final / (probes * np.log(1.0 / probes))
    report.logratio_variation = float(np.max(norm) / np.min(norm))
    return report


# ---------------------------------------------------------------------------
# sharpness classification for the power-profile scenario
# ---------------------------------------------------------------------------

@dataclass
class Ex4SharpnessReport:
    lam: float
    gamma: float
    q: float
    classification: str
    sup_ratio: float | None = None
    window_ratio_min: float | None = None
    bound_exponent: float | None = None
    exact_exponent: float | None = None
    condition_flags: dict = field(default_factory=dict)
    bound: GridFn | None = None
    exact: GridFn | None = None

    def curves_to_csv(self, path) -> None:
        columns = () if self.bound is None else (
            self.bound.grid.nodes, self.bound.values, self.exact.values)
        write_csv(path, ["x", "bound", "exact"], *columns)

    def summary(self) -> dict:
        return {
            "schema": SCHEMA,
            "scenario": "ex4",
            "parameters": {"lam": self.lam, "gamma": self.gamma, "q": self.q},
            "classification": self.classification,
            "sharpness_ratio": self.sup_ratio,
            "window_ratio_min": self.window_ratio_min,
            "fitted_rates": {"bound": self.bound_exponent,
                             "exact": self.exact_exponent},
            "condition_flags": self.condition_flags,
        }

    def to_json(self, path) -> None:
        write_json(self.summary(), path)


def sharpness_report_ex4(lam: float, gamma: float, q: float,
                         grid: Grid) -> Ex4SharpnessReport:
    """Compare the exact profile λ(1-x²)^γ against its computed upper bound.

    Classification: 'trivialized' when G(h^q V) is +-inf (bound carries no
    information), 'sharp' when the bound's boundary exponent matches the
    exact one within 0.05 and the ratio exact/bound stays bounded away from
    zero on the fit window, 'not-sharp' otherwise.
    """
    problem, exact = build_scenario(ScenarioSpec("ex4", grid, q=q, lam=lam, gamma=gamma))
    rep = thm1_bound(problem)
    flags = {
        "plus_infinite": rep.ghqv.plus_infinite,
        "minus_infinite": rep.ghqv.minus_infinite,
        "necessary_ok_everywhere": bool(np.all(rep.necessary_ok)),
    }
    out = Ex4SharpnessReport(lam, gamma, q, "trivialized",
                             condition_flags=flags, bound=rep.bound,
                             exact=exact)
    if rep.ghqv.plus_infinite or rep.ghqv.minus_infinite:
        return out

    bvals = rep.bound.values
    uvals = exact.values
    inner = np.isfinite(bvals) & (bvals > 0)
    inner[0] = inner[-1] = False
    with np.errstate(invalid="ignore"):
        ratio = np.where(inner, uvals / np.where(inner, bvals, 1.0), np.nan)
    out.sup_ratio = float(np.nanmax(ratio))

    one = GridFn(grid, np.ones(grid.n))
    fit_b = fit_boundary_rate(rep.bound, one)
    fit_u = fit_boundary_rate(exact, one)
    out.bound_exponent = fit_b.slope
    out.exact_exponent = fit_u.slope

    d = grid.boundary_distance()
    L = grid.interval.length
    window = (d >= FIT_WINDOW[0] * L) & (d <= FIT_WINDOW[1] * L) & inner
    out.window_ratio_min = float(np.nanmin(ratio[window]))
    exp_match = abs(fit_b.slope - fit_u.slope) <= 0.05
    out.classification = ("sharp" if exp_match and out.window_ratio_min >= 0.05
                          else "not-sharp")
    return out
