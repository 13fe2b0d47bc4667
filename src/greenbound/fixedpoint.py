"""Monotone iteration for the integral equation u + K(u^q V) = h.

Two regimes admit the constructive scheme u_0 = h, u_{k+1} = h - K(u_k^q V):

* q < 0, V >= 0: iterates decrease to the maximal positive solution and
  stay bracketed in [h/(1 - 1/q), h], provided K(h^q V) <= a* h with
  a* = (1 - 1/q)^q / (1 - q);
* q > 1, V <= 0: iterates increase to the minimal positive solution and
  stay in [h, q h/(q-1)], provided -K(h^q V) <= a* h with
  a* = (1 - 1/q)^q / (q - 1).

The scalar comparison sequence b_{k+1} = 1 - a b_k^q (b_0 = 1) controls the
nodewise lower envelope b_k h in the q < 0 regime; the equation x = 1 - a x^q
has a root in (0,1) iff 0 < a <= a*, with tangency at x* = 1/(1 - 1/q).

At (or extremely near) tangency the plain iteration converges only like
1/k.  The solver therefore periodically forms a nodewise inverse-linear
extrapolant through three consecutive iterates (exact for the Möbius
iteration map of q = -1, asymptotically correct otherwise) and clamps it
into the regime bracket.  Acceptance: a plain iterate u_k is accepted on its
step sup|u_{k-1} - u_k| <= tol, an extrapolant only on its own residual
sup|u + K(u^q V) - h| <= tol; either way ``residual_norm`` is the accepted
candidate's own residual.  The plain monotone iterates are what the trace
records; the extrapolant is only an accepted limit carrying a residual
certificate.

The regime check and the sharp condition (:func:`_monotone_regime`,
:func:`_sharp_condition`) are also Theorem 4's sufficiency test in
:func:`greenbound.estimates.thm4_conditions`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import GridFn
from .errors import (DivergingBracketError, DomainError, InvalidSignError,
                     PreconditionFailedError)
from .green import Kernel, PotentialResult, potential, power_product

__all__ = ["sharp_constants", "scalar_recurrence", "solve_integral_equation",
           "IterationTrace"]

COND_SLACK = 1e-12
STORE_ITERATES = 256    # iterates a trace keeps; later ones set iterates_truncated


def sharp_constants(q: float) -> tuple[float, float]:
    """(a*, x*) for the admissible regimes q > 1 and q < 0.

    a* = (1-1/q)^q / |1-q| is the largest multiplier a for which
    x = 1 - a x^q (q<0), resp. x = 1 + a x^q (q>1), has a root reachable
    from 1; x* = 1/(1-1/q) = q/(q-1) is the tangency point.
    """
    if not np.isfinite(q) or q == 0.0:
        raise DomainError(f"q must be nonzero finite, got {q}")
    if not (q > 1.0 or q < 0.0):
        raise DomainError(f"sharp constants are defined for q>1 or q<0, got q={q}")
    base = (1.0 - 1.0 / q) ** q
    a_star = base / (q - 1.0) if q > 1.0 else base / (1.0 - q)
    x_star = q / (q - 1.0)
    return float(a_star), float(x_star)


def _monotone_regime(q: float, V: GridFn) -> tuple[float, float]:
    """(a*, x*) of the monotone regime of q, after checking V's sign.

    q < 0 needs V >= 0 and q > 1 needs V <= 0 at every interior node
    (else InvalidSignError); 0 <= q <= 1 has no sharp constants
    (DomainError from :func:`sharp_constants`).
    """
    constants = sharp_constants(q)
    inner = V.values[1:-1]
    if q < 0.0 and np.any(inner < 0.0):
        raise InvalidSignError("regime q<0 needs V >= 0")
    if q > 1.0 and np.any(inner > 0.0):
        raise InvalidSignError("regime q>1 needs V <= 0")
    return constants


def _sharp_condition(q: float, h: GridFn,
                     gres: PotentialResult) -> tuple[np.ndarray, np.ndarray]:
    """The sharp condition ±G(h^q V) <= a* h at the interior nodes.

    ``gres`` is G(h^q V), taken with sign + for q < 0 and - for q > 1.
    Returns the interior ratios ±G(h^q V)/h and the mask of those at most
    a* up to COND_SLACK (nan ratios fail).
    """
    a_star, _ = sharp_constants(q)
    g = gres.value.values[1:-1]
    ratio = (g if q < 0.0 else -g) / h.values[1:-1]
    return ratio, ratio <= a_star * (1.0 + COND_SLACK) + COND_SLACK


def scalar_recurrence(q: float, a: float, k_max: int) -> list[float]:
    """b_0 = 1, b_{k+1} = 1 - a b_k^q for q < 0; returns [b_0, ..., b_{k_max}].

    For a < a* the sequence decreases geometrically to the larger root of
    x = 1 - a x^q; at a = a* it decreases to x* at an algebraic rate.
    a > a* has no root in (0,1) and raises DivergingBracketError.
    """
    if not q < 0.0:
        raise DomainError(f"scalar recurrence is stated for q < 0, got q={q}")
    if not a > 0.0:
        raise DomainError(f"need a > 0, got a={a}")
    a_star, _ = sharp_constants(q)
    if a > a_star * (1.0 + COND_SLACK):
        raise DivergingBracketError(
            f"a={a} exceeds a*={a_star}: x = 1 - a x^q has no root in (0,1)")
    out = [1.0]
    b = 1.0
    for _ in range(int(k_max)):
        b = 1.0 - a * b ** q
        out.append(b)
    return out


@dataclass
class IterationTrace:
    """Record of one solve: iterates, residuals, scalar envelope, solution."""

    iterates: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    b_sequence: list = field(default_factory=list)
    converged: bool = False
    k_stop: int = 0
    solution: GridFn | None = None
    residual_norm: float = np.inf
    damping_events: int = 0
    accelerated: bool = False
    iterates_truncated: bool = False

    def export_steps(self) -> list[dict]:
        return [{"k": k, "residual": float(r), "b_k": float(b)}
                for k, (r, b) in enumerate(zip(self.residuals, self.b_sequence))]


def _inverse_linear_extrapolate(s0: np.ndarray, s1: np.ndarray,
                                s2: np.ndarray) -> np.ndarray:
    """Limit of s_k assuming s_k = u + 1/(alpha k + beta), nodewise.

    Exact for Möbius iteration maps (q = -1 tangency); falls back to s2
    where the three points do not determine the model.
    """
    num = s1 * (s0 + s2) - 2.0 * s0 * s2
    den = 2.0 * s1 - s0 - s2
    scale = np.abs(s0) + np.abs(s1) + np.abs(s2)
    ok = np.abs(den) > 1e-14 * np.maximum(scale, 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(ok, num / np.where(ok, den, 1.0), s2)
    return out


def _not_finite_nodes(res) -> list:
    """The first 20 interior nodes (1..n-2) where a potential is not finite."""
    return list(np.flatnonzero(~np.isfinite(res.value.values[1:-1]))[:20] + 1)


def solve_integral_equation(kernel: Kernel, h: GridFn, V: GridFn, q: float,
                            tol: float | None = None, k_max: int = 10000,
                            u0: GridFn | None = None) -> IterationTrace:
    """Iterate u_{k+1} = h - K(u_k^q V) to the extremal positive solution.

    Requires 0 < h < inf at interior nodes, V >= 0 for q < 0 (maximal
    solution, nonincreasing iterates) or V <= 0 for q > 1 (minimal solution,
    nondecreasing iterates), and the sharp sufficient condition
    +-K(h^q V) <= a* h nodewise; violations raise PreconditionFailedError
    with the offending interior node indices (1..n-2).  Stops when
    sup|u + K(u^q V) - h| <= tol (default 1e-10 sup h).  Boundary nodes are
    pinned to h's boundary values; K integrals treat the boundary panels by
    the dyadic power-law rule of :mod:`greenbound.green`.
    """
    grid = h.grid
    if V.grid != grid:
        raise DomainError("h and V must share a grid")
    hv = h.values
    bad = np.flatnonzero(~(np.isfinite(hv[1:-1]) & (hv[1:-1] > 0.0))) + 1
    if bad.size:
        raise PreconditionFailedError(
            "h must be positive and finite at interior nodes",
            nodes=list(bad[:20]))
    _, x_star = _monotone_regime(q, V)
    sup_h = float(np.max(hv[1:-1]))
    if tol is None:
        tol = 1e-10 * sup_h

    kh = potential(kernel, power_product(h, q, V))
    if not kh.finite:
        raise PreconditionFailedError(
            "K(h^q V) is not finite; sharp condition fails",
            nodes=_not_finite_nodes(kh))
    ratio, ok = _sharp_condition(q, h, kh)
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise PreconditionFailedError(
            f"sharp condition K(h^q V) <= a* h fails at {bad.size} node(s)",
            nodes=list(bad + 1))
    a_measured = float(max(np.max(ratio), 0.0))

    # the regime bracket, equal to h at both ends: clipping into it (rounding
    # excursions, the extrapolant) also pins the boundary nodes to h
    far = x_star * hv
    far[0], far[-1] = hv[0], hv[-1]
    lower, upper = (far, hv) if q < 0.0 else (hv, far)

    trace = IterationTrace()
    u = hv.copy() if u0 is None else np.asarray(u0.values, dtype=float).copy()
    if u0 is not None and (np.any(u[1:-1] <= 0) or np.any(u[1:-1] > upper[1:-1])):
        raise PreconditionFailedError("u0 outside the admissible bracket")
    b = 1.0
    trace.b_sequence.append(b)
    trace.iterates.append(GridFn(grid, u))

    def apply_map(vals: np.ndarray) -> tuple[np.ndarray, float]:
        """T(vals) = h - K(vals^q V) and the step sup|vals - T(vals)|."""
        ku = potential(kernel, power_product(GridFn(grid, vals), q, V))
        if not ku.finite:
            raise PreconditionFailedError(
                "K(u^q V) not finite during iteration",
                nodes=_not_finite_nodes(ku))
        nxt = hv - ku.value.values
        return nxt, float(np.max(np.abs(vals - nxt)))

    u_prev = None
    for k in range(1, int(k_max) + 1):
        u_next, res = apply_map(u)
        trace.residuals.append(res)
        b = 1.0 - a_measured * b ** q if q < 0.0 else 1.0 + a_measured * b ** q
        trace.b_sequence.append(b)

        # clamp rounding excursions outside the bracket
        viol = (u_next < lower - 1e-12 * sup_h) | (u_next > upper + 1e-12 * sup_h)
        if np.any(viol):
            trace.damping_events += int(np.count_nonzero(viol))
            u_next = np.clip(u_next, lower, upper)

        u_prev2, u_prev, u = u_prev, u, u_next
        if len(trace.iterates) < STORE_ITERATES:
            trace.iterates.append(GridFn(grid, u))
        else:
            trace.iterates_truncated = True

        if res <= tol:
            cand = u
        elif k >= 6 and k % 4 == 0 and res > 0.9 * trace.residuals[-2]:
            cand = np.clip(_inverse_linear_extrapolate(u_prev2, u_prev, u),
                           lower, upper)
        else:
            continue
        # an iterate is accepted on its step, an extrapolant on its residual
        _, cand_res = apply_map(cand)
        if res <= tol or cand_res <= tol:
            trace.converged = True
            trace.accelerated = res > tol
            trace.k_stop = k
            trace.solution = GridFn(grid, cand)
            trace.residual_norm = cand_res
            return trace

    trace.k_stop = int(k_max)
    trace.solution = GridFn(grid, u)
    trace.residual_norm = trace.residuals[-1] if trace.residuals else np.inf
    return trace
