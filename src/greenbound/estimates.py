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

The ratio G(w)/h is always formed from one quadrature grid (numerator and
denominator share nodes), and bounds at the two boundary nodes are set to 0
by continuity instead of evaluating the 0/0 ratio there.

Sufficiency (existence with two-sided envelopes) is the sharp-constant test
of :func:`thm4_conditions`: -G(w) <= (1-1/q)^q h/(q-1) for q > 1 and V <= 0,
G(w) <= (1-1/q)^q h/(1-q) for q < 0 and V >= 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .domain import SCHEMA, Grid, GridFn
from .errors import (DegenerateSourceError, DomainError, InvalidHError,
                     InvalidSignError)
from .fixedpoint import sharp_constants
from .green import Kernel, PotentialResult, potential, power_product
from .phi import PhiFamily, phi_eval

__all__ = ["Problem", "BoundReport", "thm1_bound", "thm2_bound", "thm3_bound",
           "thm4_conditions", "unified_bound"]

STRICT_SLACK = 1e-12


@dataclass(frozen=True)
class Problem:
    """Coefficients of -u'' + V u^q = f on a kernel's interval.

    ``u_threshold`` discretizes the positivity set {u > 0} used when
    0 < q < 1; ``None`` means 1e-12 · max(u), resolved at use.
    """

    q: float
    V: GridFn
    f: GridFn
    kernel: Kernel
    u_threshold: float | None = None

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
        import csv as _csv

        def write(fh):
            w = _csv.writer(fh)
            w.writerow(["x", "h", "GhqV", "bound", "necessary_ok", "sufficient_ok"])
            hv = self.h.values if self.h is not None else np.full(self.grid.n, np.nan)
            sv = (self.sufficient_ok if self.sufficient_ok is not None
                  else np.ones(self.grid.n, bool))
            for x, h, g, bnd, nec, suf in zip(
                    self.grid.nodes, hv, self.ghqv.value.values,
                    self.bound.values, self.necessary_ok, sv):
                w.writerow([format(x, ".17g"), format(h, ".17g"),
                            format(g, ".17g"), format(bnd, ".17g"),
                            int(nec), int(suf)])

        if hasattr(path_or_file, "write"):
            write(path_or_file)
        else:
            with open(path_or_file, "w", newline="") as fh:
                write(fh)

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")


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


def _solve_h(problem: Problem) -> tuple[PotentialResult, GridFn]:
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
    return hres, h


def _chi(u: GridFn, threshold: float | None) -> np.ndarray:
    uv = u.values
    thr = 1e-12 * float(np.max(uv)) if threshold is None else threshold
    return (uv > thr).astype(float)


def _regime_bound(q: float, h: GridFn, gres: PotentialResult,
                  zero_boundary: bool = True):
    """Shared bound assembly: ratio, bracket, flags, bound grid function."""
    grid = h.grid
    hv = h.values
    gv = gres.value.values
    n = grid.n
    ratio = np.full(n, np.nan)
    inner = slice(1, -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio[inner] = gv[inner] / hv[inner]
    bracket = 1.0 + (q - 1.0) * ratio

    necessary = np.ones(n, bool)
    bound = np.full(n, np.nan)
    defined = gres.well_defined.copy()

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if q == 1.0:
            vals = hv * np.exp(-ratio)
            necessity_applies = False
        elif q > 1.0:
            vals = hv * bracket ** (-1.0 / (q - 1.0))
            necessity_applies = True
        elif q > 0.0:
            vals = hv * np.maximum(bracket, 0.0) ** (1.0 / (1.0 - q))
            necessity_applies = False
        else:
            vals = hv * bracket ** (1.0 / (1.0 - q))
            necessity_applies = True

    if necessity_applies:
        necessary[inner] = bracket[inner] > STRICT_SLACK
        vals = np.where(necessary, vals, np.nan)
    vals = np.where(defined, vals, np.nan)
    bound[:] = vals
    if zero_boundary:
        bound[0] = bound[-1] = 0.0
        necessary[0] = necessary[-1] = True
    return ratio, bracket, necessary, GridFn(grid, bound)


def thm1_bound(problem: Problem, u: GridFn | None = None) -> BoundReport:
    """Bound u via h = G f: lower for q > 0, upper for q < 0.

    For 0 < q < 1 the weight is restricted to the positivity set of the
    supplied u.  Nodes where G(h^q V) is undefined, or where the q > 1 /
    q < 0 bracket positivity fails, carry nan bounds and cleared flags.
    """
    q = problem.q
    _, h = _solve_h(problem)
    chi = None
    if 0.0 < q < 1.0:
        if u is None:
            raise DomainError("0 < q < 1 needs u to restrict the weight to {u > 0}")
        chi = _chi(u, problem.u_threshold)
    w = power_product(h, q, problem.V, chi)
    gres = potential(problem.kernel, w)
    ratio, bracket, necessary, bound = _regime_bound(q, h, gres)
    fam = PhiFamily(q)
    kind = "upper" if q < 0 else "lower"
    return BoundReport(fam.regime, kind, h, gres, ratio, bracket, bound, necessary)


def thm2_bound(problem: Problem, h_given: GridFn,
               u: GridFn | None = None) -> BoundReport:
    """Same bounds with a user-supplied comparison profile h.

    h must be positive at interior nodes and discretely superharmonic:
    -h'' >= -tol with tol = 1e-8 sup|h''| plus the stencil rounding floor.
    """
    q = problem.q
    grid = h_given.grid
    if grid != problem.grid:
        raise DomainError("h must live on the problem grid")
    hv = h_given.values
    if not np.all(np.isfinite(hv)):
        raise InvalidHError("h must be finite")
    if np.any(hv[1:-1] <= 0.0):
        raise InvalidHError("h must be positive at interior nodes")
    dx = grid.spacing
    lap = (hv[2:] - 2.0 * hv[1:-1] + hv[:-2]) / dx ** 2
    tol = 1e-8 * float(np.max(np.abs(lap)) if lap.size else 0.0) \
        + 32.0 * np.finfo(float).eps * float(np.max(np.abs(hv))) / dx ** 2
    if np.any(-lap < -tol):
        raise InvalidHError("h is not superharmonic: -h'' < 0 beyond tolerance")

    chi = None
    if 0.0 < q < 1.0:
        if u is None:
            raise DomainError("0 < q < 1 needs u to restrict the weight to {u > 0}")
        chi = _chi(u, problem.u_threshold)
    w = power_product(h_given, q, problem.V, chi)
    gres = potential(problem.kernel, w)
    zero_bdry = bool(hv[0] == 0.0 and hv[-1] == 0.0)
    ratio, bracket, necessary, bound = _regime_bound(q, h_given, gres,
                                                     zero_boundary=zero_bdry)
    fam = PhiFamily(q)
    kind = "upper" if q < 0 else "lower"
    return BoundReport(fam.regime, kind, h_given, gres, ratio, bracket, bound,
                       necessary)


def thm3_bound(q: float, V: GridFn, kernel: Kernel,
               u: GridFn | None = None,
               u_threshold: float | None = None) -> BoundReport:
    """Source-free bounds driven by G V alone.

    q = 1: lower bound e^{-GV}; q > 1: [(q-1) GV]^{-1/(q-1)} where
    necessarily GV > 0; 0 < q < 1: [-(1-q) G(χ_u V)]_+^{1/(1-q)};
    q < 0: upper bound [-(1-q) GV]^{1/(1-q)} where necessarily GV < 0.
    Nodes failing the necessity flag get nan bounds, not exceptions.
    """
    if not np.isfinite(q) or q == 0.0:
        raise DomainError(f"q must be nonzero finite, got {q}")
    chi = None
    if 0.0 < q < 1.0:
        if u is None:
            raise DomainError("0 < q < 1 needs u to restrict V to {u > 0}")
        chi = _chi(u, u_threshold)
        V = GridFn(V.grid, V.values * chi, fn=None)
    gres = potential(kernel, V)
    gv = gres.value.values
    n = V.grid.n
    necessary = np.ones(n, bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if q == 1.0:
            vals = np.exp(-gv)
        elif q > 1.0:
            necessary = gv > 0.0
            vals = np.where(necessary, ((q - 1.0) * gv) ** (-1.0 / (q - 1.0)), np.nan)
        elif q > 0.0:
            vals = np.maximum(-(1.0 - q) * gv, 0.0) ** (1.0 / (1.0 - q))
        else:
            necessary = gv < 0.0
            vals = np.where(necessary, (-(1.0 - q) * gv) ** (1.0 / (1.0 - q)), np.nan)
    vals = np.where(gres.well_defined, vals, np.nan)
    ratio = gv.copy()
    bracket = np.where(np.isfinite(gv), 1.0 + (q - 1.0) * gv, np.nan)
    fam = PhiFamily(q)
    kind = "upper" if q < 0 else "lower"
    return BoundReport(fam.regime, kind, None, gres, ratio, bracket,
                       GridFn(V.grid, vals), necessary)


def thm4_conditions(problem: Problem) -> BoundReport:
    """Sharp sufficient condition for existence, with two-sided envelopes.

    Regimes: q > 1 with V <= 0, or q < 0 with V >= 0 (checked nodewise).
    sufficient_ok(x) tests +-G(h^q V)(x) <= (1-1/q)^q h(x)/|q-1|; under it
    the solution is enveloped by [thm1 lower bound, q h/(q-1)] for q > 1 and
    by [h/(1-1/q), thm1 upper bound] for q < 0.
    """
    q = problem.q
    Vv = problem.V.values
    if q > 1.0:
        if np.any(Vv[1:-1] > 0.0):
            raise InvalidSignError("thm4 regime q>1 needs V <= 0")
    elif q < 0.0:
        if np.any(Vv[1:-1] < 0.0):
            raise InvalidSignError("thm4 regime q<0 needs V >= 0")
    else:
        raise DomainError(f"thm4 conditions need q>1 or q<0, got q={q}")

    a_star, x_star = sharp_constants(q)
    _, h = _solve_h(problem)
    w = power_product(h, q, problem.V)
    gres = potential(problem.kernel, w)
    ratio, bracket, necessary, bound = _regime_bound(q, h, gres)

    hv = h.values
    gv = gres.value.values
    n = h.grid.n
    sufficient = np.ones(n, bool)
    inner = slice(1, -1)
    signed = -gv if q > 1.0 else gv
    sufficient[inner] = signed[inner] <= a_star * hv[inner] * (1.0 + STRICT_SLACK) \
        + STRICT_SLACK * hv[inner]
    sufficient &= gres.well_defined

    if q > 1.0:
        lower_env = bound
        upper_env = GridFn(h.grid, x_star * hv)
    else:
        lower_env = GridFn(h.grid, x_star * hv)
        upper_env = bound
    fam = PhiFamily(q)
    kind = "upper" if q < 0 else "lower"
    return BoundReport(fam.regime, kind, h, gres, ratio, bracket, bound,
                       necessary, sufficient_ok=sufficient,
                       lower_envelope=lower_env, upper_envelope=upper_env)
