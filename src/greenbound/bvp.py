"""Finite-difference oracle for -u'' + V u^q = f with Dirichlet data.

Damped Newton on the central-difference residual

    F(u)_i = -(u_{i+1} - 2 u_i + u_{i-1}) / Δx² + V_i u_i^q - f_i

with the tridiagonal Jacobian -Δ + diag(q V u^{q-1}).  The step is halved
(at most MAX_HALVINGS times) until positivity holds where required (q < 0 or
non-integer q) and the sup-residual decreases.  Newton stops once that
residual meets ``tol`` or its rounding floor eps·(4 max|u|/Δx² +
max|V u^q| + max|f|), below which it is noise.  One discrete Laplacian,
``domain.laplacian_1d`` (central, Δx² denominator), is shared by the
solver, the sub/supersolution checks, the calculus-identity validator below
and the superharmonicity check of ``thm2_bound``, so their comparisons are
stencil-consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import GridFn, gradient_1d, laplacian_1d, write_gridfn_csv
from .errors import (DomainError, InfeasibleStartError, NotOrderedError,
                     SolverFailureError)
from .estimates import Problem
from .green import potential
from .phi import PhiFamily, phi_derivs, phi_eval

__all__ = ["NewtonReport", "fd_solve", "check_sub_super",
           "lemma41_identity_check", "laplacian_1d", "gradient_1d"]

MAX_ITER = 60           # Newton steps
MAX_HALVINGS = 40       # step halvings per Newton step


@dataclass
class NewtonReport:
    solution: GridFn
    residual_norm: float
    iterations: int
    damping_events: int
    converged: bool
    residual_history: list = field(default_factory=list)
    residual_floor: float = 0.0

    def to_csv(self, path) -> None:
        write_gridfn_csv(self.solution, path)


def _needs_positivity(q: float) -> bool:
    return q < 0.0 or q != np.floor(q)


def _fd_residual(u_in: np.ndarray, u_l: float, u_r: float, V: np.ndarray,
                 f: np.ndarray, q: float, dx: float) -> np.ndarray:
    full = np.concatenate(([u_l], u_in, [u_r]))
    lap = laplacian_1d(full, dx)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        power = u_in ** q
    return -lap + V * power - f


def fd_solve(problem: Problem, boundary: tuple[float, float] = (0.0, 0.0),
             init: GridFn | None = None, tol: float = 1e-10) -> NewtonReport:
    """Damped-Newton solve of the discretized equation.

    ``init`` defaults to the boundary lift plus h = G f, floored at 1e-8
    where positivity is required.  Non-convergence is reported, not raised;
    an unrescuable Jacobian raises SolverFailureError and an initial guess
    whose positivity cannot be restored raises InfeasibleStartError.
    """
    # imported here: scipy.linalg dominates the cost of ``import greenbound``
    from scipy.linalg import solve_banded

    grid = problem.grid
    q = problem.q
    dx = grid.spacing
    V = problem.V.values[1:-1]
    f = problem.f.values[1:-1]
    if not (np.all(np.isfinite(V)) and np.all(np.isfinite(f))):
        raise DomainError("V and f must be finite at interior nodes")
    u_l, u_r = float(boundary[0]), float(boundary[1])

    lift = np.interp(grid.nodes, [grid.nodes[0], grid.nodes[-1]], [u_l, u_r])
    if init is None:
        h = potential(problem.kernel, problem.f).value.values
        u = h[1:-1] + lift[1:-1]
    else:
        u = init.values[1:-1].astype(float).copy()
    positivity = _needs_positivity(q)
    if positivity:
        u = np.maximum(u, 1e-8)
        if np.any(u <= 0.0):
            raise InfeasibleStartError("initial guess not positive")

    m = u.size
    report_hist: list[float] = []
    damping = 0
    F = _fd_residual(u, u_l, u_r, V, f, q, dx)
    res = float(np.max(np.abs(F)))
    report_hist.append(res)

    def stop(u_in, r):
        """(converged, floor): r meets tol or the rounding floor at u_in."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            size = (4.0 * max(np.max(np.abs(u_in)), abs(u_l), abs(u_r)) / dx ** 2
                    + np.max(np.abs(V * u_in ** q)) + np.max(np.abs(f)))
        floor = float(np.finfo(float).eps * size)
        return bool(np.isfinite(r) and r <= max(tol, floor)), floor

    converged, floor = stop(u, res)
    it = 0
    while not converged and it < MAX_ITER:
        it += 1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            diag = 2.0 / dx ** 2 + q * V * u ** (q - 1.0)
        band = np.zeros((3, m))
        band[0, 1:] = -1.0 / dx ** 2
        band[1] = diag
        band[2, :-1] = -1.0 / dx ** 2
        step = None
        for shift in (0.0, 1e-10, 1e-6):
            try:
                band_try = band.copy()
                band_try[1] = diag + shift * max(1.0, float(np.max(np.abs(diag))))
                step = solve_banded((1, 1), band_try, -F)
                if np.all(np.isfinite(step)):
                    break
            except np.linalg.LinAlgError:
                step = None
        if step is None or not np.all(np.isfinite(step)):
            raise SolverFailureError("tridiagonal Jacobian solve failed beyond rescue")

        lam = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS):
            trial = u + lam * step
            if positivity and np.any(trial <= 0.0):
                lam *= 0.5
                damping += 1
                continue
            F_trial = _fd_residual(trial, u_l, u_r, V, f, q, dx)
            res_trial = float(np.max(np.abs(F_trial)))
            if np.isfinite(res_trial) and res_trial < res:
                u, F, res = trial, F_trial, res_trial
                accepted = True
                break
            lam *= 0.5
            damping += 1
        if not accepted:
            if positivity and np.any(u + lam * step <= 0.0):
                raise InfeasibleStartError(
                    "positivity could not be restored by damping")
            break
        report_hist.append(res)
        converged, floor = stop(u, res)

    full = np.concatenate(([u_l], u, [u_r]))
    return NewtonReport(GridFn(grid, full), res, it, damping, converged,
                        report_hist, floor)


def check_sub_super(sub: GridFn, super_: GridFn, problem: Problem,
                    tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodewise sub/supersolution residual checks.

    sub passes where -sub'' + V sub^q <= f + tol and super where
    -super'' + V super^q >= f - tol (interior nodes; the two boundary
    entries are reported True).  Requires sub <= super everywhere.
    """
    grid = problem.grid
    if sub.grid != grid or super_.grid != grid:
        raise DomainError("sub/super must live on the problem grid")
    if np.any(sub.values > super_.values + 1e-12 * np.max(np.abs(super_.values))):
        raise NotOrderedError("sub exceeds super somewhere")
    dx = grid.spacing
    V = problem.V.values[1:-1]
    f = problem.f.values[1:-1]
    q = problem.q

    def resid(g: GridFn) -> np.ndarray:
        return _fd_residual(g.values[1:-1], g.values[0], g.values[-1], V, f, q, dx)

    sub_ok = np.ones(grid.n, bool)
    sup_ok = np.ones(grid.n, bool)
    sub_ok[1:-1] = resid(sub) <= tol
    sup_ok[1:-1] = resid(super_) >= -tol
    return sub_ok, sup_ok


def lemma41_identity_check(h: GridFn, v: GridFn, fam: PhiFamily) -> float:
    """Max discrepancy of L(h φ(v)) = φ'(v) L(hv) + φ''(v)|v'|² h + (φ(v) - v φ'(v)) L h.

    Both sides are assembled with the shared central stencils at interior
    nodes (L = d²/dx²); the returned number shrinks at second order in the
    spacing for smooth inputs.  v must stay strictly inside I_q.
    """
    if h.grid != v.grid:
        raise DomainError("h and v must share a grid")
    lo, hi = fam.domain
    vv = v.values
    if np.any(vv <= lo) or np.any(vv >= hi):
        raise DomainError("v leaves the interior of I_q")
    dx = h.grid.spacing
    hv = h.values
    phi_v = phi_eval(fam, vv)
    d1, d2 = phi_derivs(fam, vv)
    lhs = laplacian_1d(hv * phi_v, dx)
    grad_v = gradient_1d(vv, dx)
    rhs = (d1[1:-1] * laplacian_1d(hv * vv, dx)
           + d2[1:-1] * grad_v ** 2 * hv[1:-1]
           + (phi_v[1:-1] - vv[1:-1] * d1[1:-1]) * laplacian_1d(hv, dx))
    return float(np.max(np.abs(lhs - rhs)))
