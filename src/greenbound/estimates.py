"""Pointwise bounds for positive solutions of -u'' + V u^q = f.

With h = G f (the Green potential of the source) and the fused weight
w = h^q V, every regime's bound is h·φ(-G(w)/h) for the substitution φ of
:mod:`greenbound.phi`:

* q = 1:    lower bound  h e^{-G(hV)/h};
* q > 1:    lower bound  h [1 + (q-1) G(w)/h]^{-1/(q-1)}, which requires the
            bracket 1 + (q-1) G(w)/h to be strictly positive (a necessary
            condition for existence);
* 0 < q < 1: lower bound h [1 - (1-q) G(χ_u w)/h]_+^{1/(1-q)}, where χ_u
            restricts the weight to {u > 0};
* q < 0:    upper bound  h [1 - (1-q) G(w)/h]^{1/(1-q)}, with the same
            bracket-positivity necessity.

All four go through :func:`unified_bound`, so the regime switch lives in
:mod:`greenbound.phi` alone.  The source-free bound of :func:`thm3_bound` is
φ read off its bracket t = (q-1)·GV, that is t^{1/(1-q)} (e^{-GV} at q = 1),
through the same φ code.

The ratio G(w)/h is always formed from one quadrature grid (numerator and
denominator share nodes), and bounds at the two boundary nodes are set to 0
by continuity instead of evaluating the 0/0 ratio there.

Sufficiency (existence with two-sided envelopes) is the sharp-constant test
of :func:`thm4_conditions`: -G(w) <= (1-1/q)^q h/(q-1) for q > 1 and V <= 0,
G(w) <= (1-1/q)^q h/(1-q) for q < 0 and V >= 0.  That regime and that test
are the precondition of the constructive scheme of
:mod:`greenbound.fixedpoint`, which owns both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import SCHEMA, Grid, GridFn, laplacian_1d, write_csv, write_json
from .errors import DegenerateSourceError, DomainError, InvalidHError
from .fixedpoint import COND_SLACK, _monotone_regime, _sharp_condition
from .green import Kernel, PotentialResult, potential, power_product
from .phi import PhiFamily, _phi_of_bracket, phi_eval

__all__ = ["Problem", "BoundReport", "thm1_bound", "thm2_bound", "thm3_bound",
           "thm4_conditions", "unified_bound"]

U_THRESHOLD = 1e-12     # {u > 0} is {u > U_THRESHOLD · max u} when 0 < q < 1


@dataclass(frozen=True)
class Problem:
    """Coefficients of -u'' + V u^q = f on a kernel's interval."""

    q: float
    V: GridFn
    f: GridFn
    kernel: Kernel

    def __post_init__(self):
        if not np.isfinite(self.q) or self.q == 0.0:
            raise DomainError(f"q must be nonzero finite, got {self.q}")
        if self.f is not None and self.V.grid != self.f.grid:
            raise DomainError("V and f must share a grid")

    @property
    def grid(self) -> Grid:
        return self.V.grid

    @property
    def regime(self) -> str:
        return PhiFamily(self.q).regime


@dataclass
class BoundReport:
    """Per-node bound values with condition flags.

    ``kind`` is "lower" for q > 0 and "upper" for q < 0.  ``bracket`` is
    1 + (q-1)·ratio per node (nan where the ratio is undefined); the bound
    is nan wherever the potential is undefined or strict bracket positivity
    fails in a regime that requires it.
    """

    regime: str
    kind: str
    h: GridFn | None
    ghqv: PotentialResult
    ratio: np.ndarray
    bracket: np.ndarray
    bound: GridFn
    necessary_ok: np.ndarray
    sufficient_ok: np.ndarray | None = None
    lower_envelope: GridFn | None = None
    upper_envelope: GridFn | None = None

    @property
    def grid(self) -> Grid:
        return self.bound.grid

    def violated_nodes(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(~self.necessary_ok)]

    def summary(self) -> dict:
        fin = np.isfinite(self.bracket)
        return {
            "schema": SCHEMA,
            "regime": self.regime,
            "kind": self.kind,
            "min_bracket": float(np.min(self.bracket[fin])) if fin.any() else None,
            "violated_nodes": self.violated_nodes(),
            "undefined_nodes": [int(i) for i in np.flatnonzero(~self.ghqv.well_defined)],
            "sufficient_ok_everywhere": (None if self.sufficient_ok is None
                                         else bool(np.all(self.sufficient_ok))),
        }

    def to_csv(self, path_or_file) -> None:
        hv = self.h.values if self.h is not None else np.full(self.grid.n, np.nan)
        sv = (self.sufficient_ok if self.sufficient_ok is not None
              else np.ones(self.grid.n, bool))
        write_csv(path_or_file,
                  ["x", "h", "GhqV", "bound", "necessary_ok", "sufficient_ok"],
                  self.grid.nodes, hv, self.ghqv.value.values, self.bound.values,
                  self.necessary_ok, sv)

    def to_json(self, path) -> None:
        write_json(self.summary(), path)


def unified_bound(q: float, h_vals: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """h·φ(-ratio): the single expression all regime bounds collapse to."""
    fam = PhiFamily(q)
    out = np.full_like(np.asarray(h_vals, dtype=float), np.nan)
    ok = np.isfinite(ratio) | np.isinf(ratio)
    lo, hi = fam.domain
    s = -np.asarray(ratio, dtype=float)
    inside = ok & ((s >= lo) | fam.truncated) & (s <= hi)
    out[inside] = h_vals[inside] * phi_eval(fam, s[inside])
    return out


def _solve_h(problem: Problem) -> GridFn:
    if problem.f is None:
        raise DomainError("problem has no source f")
    if np.any(problem.f.values[1:-1] < 0) or np.isneginf(problem.f.values[[0, -1]]).any():
        raise DomainError("source f must be nonnegative")
    hres = potential(problem.kernel, problem.f)
    h = hres.value
    if not hres.finite or not np.all(np.isfinite(h.values)):
        raise DegenerateSourceError("G f is not finite on the grid")
    if np.any(h.values[1:-1] <= 0.0):
        raise DegenerateSourceError("G f must be positive at interior nodes")
    return h


def _chi(u: GridFn | None, what: str) -> np.ndarray:
    if u is None:
        raise DomainError(f"0 < q < 1 needs u to restrict {what} to {{u > 0}}")
    uv = u.values
    return (uv > U_THRESHOLD * float(np.max(uv))).astype(float)


def _bound_report(q: float, h: GridFn, V: GridFn, kernel: Kernel,
                  u: GridFn | None, zero_boundary: bool = True) -> BoundReport:
    """h·φ(-G(w)/h) with w = h^q V, restricted to {u > 0} when 0 < q < 1.

    Where bracket positivity is necessary (q > 1, q < 0), nodes failing it
    carry nan bounds and cleared flags, as do nodes where G(w) is undefined.
    """
    fam = PhiFamily(q)
    chi = _chi(u, "the weight") if fam.truncated else None
    gres = potential(kernel, power_product(h, q, V, chi))
    hv = h.values
    n = h.grid.n
    inner = slice(1, -1)
    ratio = np.full(n, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio[inner] = gres.value.values[inner] / hv[inner]
        bracket = 1.0 + (q - 1.0) * ratio

    necessary = np.ones(n, bool)
    if q != 1.0 and not fam.truncated:
        necessary[inner] = bracket[inner] > COND_SLACK
    bound = unified_bound(q, hv, ratio)
    bound[~(necessary & gres.well_defined)] = np.nan
    if zero_boundary:
        bound[0] = bound[-1] = 0.0
    return BoundReport(fam.regime, "upper" if q < 0 else "lower", h, gres,
                       ratio, bracket, GridFn(h.grid, bound), necessary)


def thm1_bound(problem: Problem, u: GridFn | None = None) -> BoundReport:
    """Bound u via h = G f: lower for q > 0, upper for q < 0.

    For 0 < q < 1 the weight is restricted to the positivity set of the
    supplied u.  Nodes where G(h^q V) is undefined, or where the q > 1 /
    q < 0 bracket positivity fails, carry nan bounds and cleared flags.
    """
    return _bound_report(problem.q, _solve_h(problem), problem.V,
                         problem.kernel, u)


def thm2_bound(problem: Problem, h_given: GridFn,
               u: GridFn | None = None) -> BoundReport:
    """Same bounds with a user-supplied comparison profile h.

    h must be positive at interior nodes and discretely superharmonic:
    -h'' >= -tol with tol = 1e-8 sup|h''| plus the stencil rounding floor.
    """
    grid = h_given.grid
    if grid != problem.grid:
        raise DomainError("h must live on the problem grid")
    hv = h_given.values
    if not np.all(np.isfinite(hv)):
        raise InvalidHError("h must be finite")
    if np.any(hv[1:-1] <= 0.0):
        raise InvalidHError("h must be positive at interior nodes")
    dx = grid.spacing
    lap = laplacian_1d(hv, dx)
    tol = 1e-8 * float(np.max(np.abs(lap)) if lap.size else 0.0) \
        + 32.0 * np.finfo(float).eps * float(np.max(np.abs(hv))) / dx ** 2
    if np.any(-lap < -tol):
        raise InvalidHError("h is not superharmonic: -h'' < 0 beyond tolerance")
    return _bound_report(problem.q, h_given, problem.V, problem.kernel, u,
                         zero_boundary=bool(hv[0] == 0.0 and hv[-1] == 0.0))


def thm3_bound(q: float, V: GridFn, kernel: Kernel,
               u: GridFn | None = None) -> BoundReport:
    """Source-free bounds driven by G V alone: φ of the bracket t = (q-1)·GV.

    q = 1: lower bound e^{-GV}; otherwise t^{1/(1-q)}, that is
    [(q-1) GV]^{-1/(q-1)} for q > 1 where necessarily GV > 0,
    [-(1-q) G(χ_u V)]_+^{1/(1-q)} for 0 < q < 1, and the upper bound
    [-(1-q) GV]^{1/(1-q)} for q < 0 where necessarily GV < 0.  The bracket
    is passed to φ as is, so a tiny positive t gives a large finite bound.
    Nodes failing the necessity flag get nan bounds, not exceptions.
    """
    if not np.isfinite(q) or q == 0.0:
        raise DomainError(f"q must be nonzero finite, got {q}")
    fam = PhiFamily(q)
    if fam.truncated:
        one = GridFn(V.grid, np.ones(V.grid.n))
        V = power_product(one, 1.0, V, _chi(u, "V"))
    gres = potential(kernel, V)
    gv = gres.value.values
    with np.errstate(invalid="ignore"):
        t = (q - 1.0) * gv
    necessary = np.ones(V.grid.n, bool)
    if q == 1.0:
        vals = phi_eval(fam, -gv)
    else:
        vals = _phi_of_bracket(fam, t)
        if not fam.truncated:
            necessary = t > 0.0
    vals[~(necessary & gres.well_defined)] = np.nan
    bracket = np.where(np.isfinite(gv), 1.0 + t, np.nan)
    return BoundReport(fam.regime, "upper" if q < 0 else "lower", None, gres,
                       gv.copy(), bracket, GridFn(V.grid, vals), necessary)


def thm4_conditions(problem: Problem) -> BoundReport:
    """Sharp sufficient condition for existence, with two-sided envelopes.

    Regimes: q > 1 with V <= 0, or q < 0 with V >= 0, checked nodewise by
    the solver's own test (InvalidSignError; DomainError for 0 <= q <= 1).
    sufficient_ok(x) tests +-G(h^q V)(x) <= (1-1/q)^q h(x)/|q-1|; under it
    the solution is enveloped by [thm1 lower bound, q h/(q-1)] for q > 1 and
    by [h/(1-1/q), thm1 upper bound] for q < 0.
    """
    q = problem.q
    _, x_star = _monotone_regime(q, problem.V)
    h = _solve_h(problem)
    rep = _bound_report(q, h, problem.V, problem.kernel, None)
    sufficient = np.ones(h.grid.n, bool)
    sufficient[1:-1] = _sharp_condition(q, h, rep.ghqv)[1]
    rep.sufficient_ok = sufficient & rep.ghqv.well_defined
    envelope = GridFn(h.grid, x_star * h.values)
    if q > 1.0:
        rep.lower_envelope, rep.upper_envelope = rep.bound, envelope
    else:
        rep.lower_envelope, rep.upper_envelope = envelope, rep.bound
    return rep
