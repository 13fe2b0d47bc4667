"""Dirichlet Green kernels and Green potentials on an interval.

The closed-form kernel of -d²/dx² on (a,b) with zero boundary values is

    G(x,y) = min((x-a)(b-y), (y-a)(b-x)) / (b-a),

symmetric, nonnegative, vanishing when x or y hits an endpoint, and linear
in y on either side of the kink at y=x.  Every potential is point masses
m_j at the nodes summed through two running moments, Σ_{j<=i} (y_j-a) m_j
and Σ_{j>i} (b-y_j) m_j, in O(n) time and memory (:meth:`Kernel.apply`).
Split trapezoid weights give the masses of a smooth source, exact (up to
rounding) whenever the integrand is piecewise linear with its only kink at
a node.

Every Green integral (potential, improper, iterated) takes one source
contract (:func:`_check_source`): interior values are finite, and an
endpoint may be +-inf, or nan when an expression is attached (0·log 0,
say), which is then probed like an infinite one.  Such sources are split
into positive and negative parts.  Because the kernel vanishes linearly at
the endpoints, the boundary-panel contribution of a part factorizes into
a scalar moment of the source times a per-node kernel factor.  Every such
moment comes from :func:`_edge_moment`.  Value-only data take the exact
moment of the power law fitted through the two innermost interior nodes;
the part reads +inf when the fitted exponent is within the shell rule's
margin of the threshold, unless a third node fits a steepening power law
whose exponent, extrapolated to the endpoint, stays below the threshold by
more than its uncertainty.  What is left of their error is the trapezoid
core's O(dx^{2-s}) term.  An attached expression is integrated with an
open midpoint rule on dyadically shrinking shells, every shell from one
call on one node array, and the stop and divergence rule is read off the
vector of shell values: the part is declared to integrate to +inf when
three consecutive dyadic refinements of that panel keep growing without
slowing (successive increment ratio >= 0.9).  The panels next to the
refined one are then integrated with per-panel Gauss-Legendre instead of
the trapezoid rule (the kernel is linear in y on each panel, so only two
scalar moments per panel are needed, as masses at its end nodes).

Improper potentials take the proper value wherever it is well defined
(G^{Ω_m} increases to G); every level of the exhaustion Ω_m is read off two
running moments ∫f and ∫y·f (:func:`_two_moment_levels`), as in the
oscillatory quadrature of :mod:`greenbound._oscillate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import Grid, GridFn, Interval, _trap_weights
from .errors import DomainError, InvalidGridError, NotIntegrableError

__all__ = [
    "Kernel",
    "PotentialResult",
    "ImproperPotential",
    "kernel_eval",
    "potential",
    "potential_improper",
    "improper_potential_at",
    "iterated_kernel",
    "power_product",
]

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_CHUNK_PANELS = 1 << 15     # panels per source evaluation (8 Gauss points each)

REFINE_PANELS = 24
SHELL_LEVELS = 60
SHELL_POINTS = 48
DIVERGENCE_RATIO = 0.9
# symmetrized Kronecker offsets of the shell nodes: equal weights,
# midpoint-symmetric (so linear integrands are integrated exactly), and
# irrational spacing that defeats the phase locking of rapidly oscillating
# sources on rational node lattices
_KRONECKER = np.mod(np.arange(1, SHELL_POINTS // 2 + 1) * 0.6180339887498949, 1.0)
_SHELL_OFFSETS = np.sort(np.concatenate([0.5 * _KRONECKER, 1.0 - 0.5 * _KRONECKER]))


def _vectorized(fn: Callable) -> Callable:
    """Wrap a pointwise expression so it accepts float arrays."""

    def call(y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            try:
                out = np.asarray(fn(y), dtype=float)
                if out.shape == y.shape:
                    return out
            except (TypeError, ValueError):
                pass
            flat = np.array([float(fn(np.float64(t))) for t in y.ravel()])
        return flat.reshape(y.shape)

    return call


@dataclass(frozen=True)
class Kernel:
    """Closed-form Dirichlet kernel min((x-a)(b-y), (y-a)(b-x))/(b-a) of -d²/dx²."""

    interval: Interval

    @classmethod
    def closed_form(cls, interval: Interval) -> "Kernel":
        """Kernel of -d²/dx² with zero Dirichlet data on the interval."""
        return cls(interval)

    def eval(self, x: float, y: float) -> float:
        a, b = self.interval.left, self.interval.right
        if not (a <= x <= b and a <= y <= b):
            raise DomainError(f"point ({x},{y}) outside kernel interval [{a},{b}]")
        return float(min((x - a) * (b - y), (y - a) * (b - x)) / (b - a))

    def _check_grid(self, grid: Grid) -> None:
        if grid.interval != self.interval:
            raise DomainError("grid interval does not match kernel interval")

    def matrix_for(self, grid: Grid) -> np.ndarray:
        """Kernel values at all node pairs of the grid (built on each call)."""
        self._check_grid(grid)
        return self.rows_at(grid.nodes, grid.nodes)

    def apply(self, grid: Grid, mass: np.ndarray) -> np.ndarray:
        """Σ_j G(x_i, y_j) mass_j at every node x_i of the grid.

        The closed form takes two running moments, O(n) in time and memory.
        """
        self._check_grid(grid)
        a, b = self.interval.left, self.interval.right
        x = grid.nodes
        left = np.cumsum((x - a) * mass)
        right = np.append(np.cumsum(((b - x) * mass)[:0:-1])[::-1], 0.0)
        return ((b - x) * left + (x - a) * right) / (b - a)

    def rows_at(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Kernel values G(x_i, y_j) from the closed form, at any points."""
        a, b = self.interval.left, self.interval.right
        X = np.asarray(xs, dtype=float)[:, None]
        Y = np.asarray(ys, dtype=float)[None, :]
        mat = np.minimum((X - a) * (b - Y), (Y - a) * (b - X)) / (b - a)
        np.clip(mat, 0.0, None, out=mat)
        return mat


def kernel_eval(kernel: Kernel, x: float, y: float) -> float:
    return kernel.eval(x, y)


@dataclass(frozen=True)
class PotentialResult:
    """Green potential with per-node well-definedness bookkeeping.

    ``value`` holds G f = G f+ - G f- wherever at least one part is finite
    (entries may be +-inf); nodes where both parts integrate to +inf carry
    ``nan`` and ``well_defined=False``.
    """

    value: GridFn
    well_defined: np.ndarray
    plus_infinite: bool
    minus_infinite: bool

    @property
    def fully_defined(self) -> bool:
        return bool(np.all(self.well_defined))

    @property
    def finite(self) -> bool:
        return self.fully_defined and bool(np.all(np.isfinite(self.value.values)))

    def status(self) -> list[str]:
        return ["well_defined" if ok else "undefined_inf_minus_inf"
                for ok in self.well_defined]


def _part_fn(fn, sign: int):
    if fn is None:
        return None
    vfn = _vectorized(fn)
    if sign > 0:
        return lambda y: np.maximum(vfn(y), 0.0)
    return lambda y: np.maximum(-vfn(y), 0.0)


def _edge_source(pfn, grid: Grid, inward: int):
    """Attached part at distance d from one endpoint (inward = 1 left, -1 right)."""
    edge = grid.interval.left if inward > 0 else grid.interval.right

    def source(d):
        # distances below half an ulp of the edge round onto it: read +inf
        # there (zeroed by the caller) instead of evaluating the endpoint
        x = edge + inward * np.asarray(d, dtype=float)
        off_edge = x != edge
        out = np.full(x.shape, np.inf)
        out[off_edge] = pfn(x[off_edge])
        return out

    return source


def _singular_panel_moment(dx: float, eval_from_edge, weight_exponent: int = 1):
    """Open-midpoint moment of the boundary panel next to a singular endpoint.

    Integrates d^e * f over distances d in (0, dx) from the endpoint, where
    ``eval_from_edge(d)`` returns the (nonnegative) source at distance d and
    e = ``weight_exponent``.  The dyadic shells [dx 2^{-m-1}, dx 2^{-m}],
    m < SHELL_LEVELS, are summed with a composite midpoint rule, all of them
    from one call on the SHELL_LEVELS x SHELL_POINTS array of nodes.  The
    stop and divergence rule is then read off the vector of shell values:
    shells are added until one falls below 1e-18 of the running total, and
    divergence (the part integrates to +inf) is declared when three
    consecutive shells keep the increment ratio >= DIVERGENCE_RATIO.

    Returns (moment, diverged).
    """
    hi = dx * 2.0 ** -np.arange(SHELL_LEVELS)
    lo = hi / 2.0
    width = hi - lo
    d = lo[:, None] + _SHELL_OFFSETS * width[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = (d ** weight_exponent) * np.asarray(eval_from_edge(d), dtype=float)
    g = np.where(np.isfinite(g), g, 0.0)
    shells = np.sum(g, axis=1) * (width / _SHELL_OFFSETS.size)

    total = 0.0
    prev = prev2 = None
    slow = 0
    for cur in shells.tolist():
        total += cur
        if prev is not None and prev > 0.0 and cur > 0.0:
            slow = slow + 1 if cur / prev >= DIVERGENCE_RATIO else 0
            if slow >= 3:
                return np.inf, True
        elif prev is not None:
            slow = 0
        prev2, prev = prev, cur
        if abs(cur) <= 1e-18 * max(abs(total), 1e-300):
            break
    if prev and prev2:
        r = prev / prev2
        if 0.0 < r < 0.95:
            total += prev * r / (1.0 - r)
    return total, False


def _panel_moments(fn, lo: np.ndarray, hi: np.ndarray, origin=0.0):
    """Per-panel 8-point Gauss-Legendre sums of ∫f and ∫(y - origin)·f.

    ``origin`` is a scalar or one value per panel, so that panel-local
    moments keep their digits.  f is evaluated chunk by chunk, so peak
    memory does not grow with the number of panels.
    """
    origin = np.broadcast_to(origin, lo.shape)
    m0 = np.empty(lo.size)
    m1 = np.empty(lo.size)
    for s in range(0, lo.size, _CHUNK_PANELS):
        e = s + _CHUNK_PANELS
        mid = 0.5 * (lo[s:e] + hi[s:e])
        half = 0.5 * (hi[s:e] - lo[s:e])
        y = mid[:, None] + half[:, None] * _GAUSS_X[None, :]
        w = half[:, None] * _GAUSS_W[None, :]
        fv = np.asarray(fn(y.ravel()), dtype=float).reshape(y.shape)
        m0[s:e] = np.sum(fv * w, axis=1)
        m1[s:e] = np.sum((y - origin[s:e, None]) * fv * w, axis=1)
    return m0, m1


def _two_moment_levels(fn, breaks, xs, lo, a, b):
    """G^{(a_m,b_m)} f at the points xs for every level m, from one pass.

    The running moments M0 = ∫f and M1 = ∫y·f are summed once over the Gauss
    panels between ``breaks``, which must hold every xs inside a level and
    every ``lo`` and ``b``.  Each level subtracts its own moments:
    A = ΔM1 - a·ΔM0 from ``lo`` (>= a) up to x, B = b·ΔM0 - ΔM1 from x up to
    b, and G f = [(b-x) A + (x-a) B]/(b-a).  Rows are levels; a point
    outside (lo_m, b_m) reads NaN.  Returns (values, M0, M1).
    """
    m0, m1 = _panel_moments(fn, breaks[:-1], breaks[1:])
    M0 = np.concatenate([[0.0], np.cumsum(m0)])
    M1 = np.concatenate([[0.0], np.cumsum(m1)])
    ix = np.minimum(np.searchsorted(breaks, xs), breaks.size - 1)
    i_lo = np.searchsorted(breaks, lo)[:, None]
    i_hi = np.searchsorted(breaks, b)[:, None]
    al, bl = a[:, None], b[:, None]
    A = (M1[ix] - M1[i_lo]) - al * (M0[ix] - M0[i_lo])
    B = bl * (M0[i_hi] - M0[ix]) - (M1[i_hi] - M1[ix])
    vals = ((bl - xs) * A + (xs - al) * B) / (bl - al)
    vals[~((xs > lo[:, None]) & (xs < bl))] = np.nan
    return vals, M0, M1


def _check_source(f: GridFn) -> None:
    """The source contract of every Green integral (see the module docstring)."""
    vals = f.values
    if np.isnan(vals).any() and (f.fn is None or np.isnan(vals[1:-1]).any()):
        raise NotIntegrableError("nan values are not integrable")
    if not np.all(np.isfinite(vals[1:-1])):
        raise NotIntegrableError("interior values must be finite")


def _edge_moment(f: GridFn, sign: int, inward: int, weight_exponent: int = 1):
    """∫ d^e max(sign·f, 0) over the boundary panel at one endpoint.

    d is the distance from the endpoint (inward = 1 left, -1 right) and e is
    ``weight_exponent``.  An attached expression goes through
    :func:`_singular_panel_moment`.  Value-only data take the power law
    f1·(d/dx)^{-s} through f1 = f(dx) and f2 = f(2dx), s = log2(f1/f2)
    clipped to [-8, 8] (0 unless f2 > 0 is finite), whose moment is exactly
    f1·dx^{e+1}/(e+1-s).  The part reads +inf when s reaches the shell
    rule's threshold e+1+log2(DIVERGENCE_RATIO), unless a third node
    f4 = f(4dx) in the endpoint's half of the interval continues a
    steepening power law (f2 >= f4 > 0) and clears it: the exponent
    2s - s24 extrapolated to d -> 0, s24 = log2(f2/f4), stays below e+1 by
    more than its uncertainty |s - s24|.  Returns (moment, diverged).
    """
    grid = f.grid
    pfn = _part_fn(f.fn, sign)
    if pfn is not None:
        return _singular_panel_moment(grid.spacing, _edge_source(pfn, grid, inward),
                                      weight_exponent)
    part = np.maximum(sign * f.values[::inward][:5], 0.0)     # from the edge inward
    f1, f2, f4 = part[1], part[2], part[4] if grid.n >= 9 else 0.0
    if not (np.isfinite(f1) and f1 > 0.0):
        return 0.0, False
    s, e1 = 0.0, weight_exponent + 1
    with np.errstate(divide="ignore", over="ignore"):
        if np.isfinite(f2) and f2 > 0.0:
            s = float(np.clip(np.log2(f1 / f2), -8.0, 8.0))
        diverged = s >= e1 + np.log2(DIVERGENCE_RATIO)
        if diverged and f2 >= f4 > 0.0:
            s24 = float(np.log2(f2 / f4))
            diverged = max(s, 2.0 * s - s24) + abs(s - s24) >= e1
    if diverged:
        return np.inf, True
    return float(f1 * grid.spacing ** e1 / (e1 - s)), False


def _integrate_part(kernel: Kernel, f: GridFn, sign: int):
    """Potential of the part max(sign·f, 0), with singular boundary panels.

    An end is singular where the part is +inf.  With an attached expression
    a non-finite end is probed for both parts (a sign-oscillating
    singularity can make both diverge); a part that vanishes there adds a
    zero moment.  The trapezoid core, the boundary-panel moments and the
    Gauss panels become point masses at nodes, summed by one kernel
    application.

    Returns (values at all nodes, diverged); a diverged part reads +inf.
    """
    grid = f.grid
    n = grid.n
    dx = grid.spacing
    a = grid.interval.left
    part = np.maximum(sign * f.values, 0.0)
    ends = f.values[[0, -1]]
    bad = np.isposinf(part[[0, -1]]) | (~np.isfinite(ends) & (f.fn is not None))
    if not (bad.any() or np.any(part > 0)):
        return np.zeros(n), False
    pfn = _part_fn(f.fn, sign)
    r_max = 1 if pfn is None else int(min(REFINE_PANELS, max(1, (n - 1) // 3)))
    r_left, r_right = r_max * bad
    j_lo, j_hi = r_left, n - 1 - r_right

    mass = np.zeros(n)
    mass[j_lo:j_hi + 1] = part[j_lo:j_hi + 1] * _trap_weights(j_hi - j_lo + 1, dx)
    for r, inward in ((r_left, 1), (r_right, -1)):
        if not r:
            continue
        m0, diverged = _edge_moment(f, sign, inward)
        if diverged:
            return np.full(n, np.inf), True
        mass[1 if inward > 0 else n - 2] += m0 / dx
        if r > 1:
            cols = np.arange(1, r) if inward > 0 else np.arange(n - 1 - r, n - 2)
            lo = a + dx * cols
            a0, a1 = _panel_moments(pfn, lo, a + dx * (cols + 1), lo)
            mass[cols] += a0 - a1 / dx
            mass[cols + 1] += a1 / dx
    return kernel.apply(grid, mass), False


def potential(kernel: Kernel, f: GridFn) -> PotentialResult:
    """Green potential (G f)(x_i) = ∫ G(x_i,y) f(y) dy at every node.

    f meets the module's source contract: it may be signed and +-inf at the
    endpoints, or nan there with an attached expression.  Undefinedness --
    both the positive and the negative part integrating to +inf -- is
    reported per node in the result status, never raised.
    """
    grid = f.grid
    kernel._check_grid(grid)
    _check_source(f)
    vals = f.values
    n = grid.n
    well = np.ones(n, bool)
    if np.isfinite(vals[0]) and np.isfinite(vals[-1]):
        out = kernel.apply(grid, vals * _trap_weights(n, grid.spacing))
        plus_inf = minus_inf = False
    else:
        pos_vec, plus_inf = _integrate_part(kernel, f, +1)
        neg_vec, minus_inf = _integrate_part(kernel, f, -1)
        undefined = plus_inf and minus_inf
        # inf - inf would be a nan with its sign bit set
        out = np.full(n, np.nan) if undefined else pos_vec - neg_vec
        well[1:-1] = not undefined
    out[0] = out[-1] = 0.0
    return PotentialResult(GridFn(grid, out), well, plus_inf, minus_inf)


def power_product(h: GridFn, q: float, V: GridFn,
                  chi: np.ndarray | None = None) -> GridFn:
    """Pointwise h^q * V (optionally * chi), with endpoint limit markers.

    At an endpoint where the literal product is 0*inf or inf*0 the limit is
    unknown from node data alone; the entry is marked with a signed infinity
    taken from the adjacent interior product, so :func:`potential` resolves
    that boundary panel by refinement instead of trusting the node value.
    """
    if h.grid != V.grid:
        raise InvalidGridError("h and V must share a grid")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = h.values ** q * V.values
        if chi is not None:
            w = w * chi
    for idx, adj in ((0, 1), (-1, -2)):
        if not np.isfinite(w[idx]):
            ref = w[adj]
            if np.isnan(w[idx]):
                w[idx] = np.sign(ref) * np.inf if (np.isfinite(ref) and ref != 0.0) else 0.0
    if np.isnan(w[1:-1]).any():
        raise NotIntegrableError("h^q V is undefined at an interior node")
    return GridFn(h.grid, w)


@dataclass(frozen=True)
class ImproperPotential:
    """Improper potential ``value`` and its exhaustion sequence.

    sequence[m-1] = ∫_{Ω_m} G^{Ω_m}(x,·) f over nested Ω_m, NaN outside Ω_m."""

    value: GridFn
    sequence: list
    deltas: list


def _exhaustion(f: GridFn, xs: np.ndarray, levels: int):
    """Potentials over Ω_m = (a+δ_m, b-δ_m), δ_m = (b-a)/2^{m+2}, at points xs.

    Row m-1 holds level m; points outside Ω_m read NaN.  Every level comes
    from one pass of two running moments (:func:`_two_moment_levels`) over
    Gauss panels whose breakpoints are the dyadic level edges, the points
    xs and the grid nodes inside the deepest level, so the panels grade
    toward each end.  f is its expression when attached, else the linear
    interpolant of its finite node values.
    """
    grid = f.grid
    a, b = grid.interval.left, grid.interval.right
    deltas = [(b - a) / 2.0 ** (m + 2) for m in range(1, levels + 1)]
    lo = a + np.array(deltas)
    hi = b - np.array(deltas)
    nodes = grid.nodes
    fin = np.isfinite(f.values)
    fn = (_vectorized(f.fn) if f.fn is not None
          else lambda y: np.interp(y, nodes[fin], f.values[fin]))
    inner = [p[(p > lo[-1]) & (p < hi[-1])] for p in (nodes, xs)]
    breaks = np.unique(np.concatenate([lo, hi] + inner))
    return _two_moment_levels(fn, breaks, xs, lo, lo, hi)[0], deltas


def potential_improper(kernel: Kernel, f: GridFn, levels: int = 20) -> ImproperPotential:
    """Improper potential via the exhaustion Ω_m = (a+δ_m, b-δ_m).

    G^{Ω_m} increases to G, so wherever :func:`potential` is well defined
    the improper limit is its value (monotone convergence on each
    nonnegative part); only at nodes where both parts are +inf is the value
    the deepest level.  The full sequence (see :func:`_exhaustion`) is kept
    for liminf diagnostics.
    """
    if levels < 2:
        raise DomainError("need at least 2 exhaustion levels")
    proper = potential(kernel, f)
    seq, deltas = _exhaustion(f, f.grid.nodes, levels)
    value = np.where(proper.well_defined, proper.value.values, seq[-1])
    return ImproperPotential(GridFn(f.grid, value), list(seq), deltas)


def improper_potential_at(kernel: Kernel, f: GridFn, x: float,
                          levels: int = 20) -> list[float]:
    """Exhaustion sequence of the improper potential at a single point.

    f meets the module's source contract."""
    kernel._check_grid(f.grid)
    _check_source(f)
    seq, _ = _exhaustion(f, np.array([float(x)]), levels)
    out = [float(v) for v in seq[:, 0] if not np.isnan(v)]
    if not out:
        raise DomainError(f"x={x} outside every exhaustion subdomain")
    return out


def iterated_kernel(kernel: Kernel, V: GridFn, x: float, y: float) -> float:
    """Second kernel iteration ∫ G(x,z) G(z,y) V(z) dz.

    Split trapezoid with breakpoints at both kernel kinks.  V meets the
    module's source contract; an endpoint-singular V is handled by
    quadratic-weight moments on the boundary panels (the kernel product
    vanishes quadratically there); raises NotIntegrableError when a panel
    moment diverges.
    """
    grid = V.grid
    kernel._check_grid(grid)
    if not (grid.interval.contains(x, closed=False)
            and grid.interval.contains(y, closed=False)):
        raise DomainError("iterated kernel needs interior x, y")
    _check_source(V)
    vals = V.values
    a, b = grid.interval.left, grid.interval.right
    L = b - a
    dx = grid.spacing
    nodes = grid.nodes
    n = grid.n

    left_bad = not np.isfinite(vals[0])
    right_bad = not np.isfinite(vals[-1])
    j_lo, j_hi = int(left_bad), n - 1 - int(right_bad)

    kx, ky = kernel.rows_at(np.array([x, y]), nodes)
    core = kx * ky * np.where(np.isfinite(vals), vals, 0.0)
    w = _trap_weights(j_hi - j_lo + 1, dx)
    total = float(core[j_lo:j_hi + 1] @ w)

    for t in sorted({x, y}):
        idx = int(np.clip((t - a) / dx, 0, n - 2))
        if idx < j_lo or idx + 1 > j_hi:
            continue
        yl, yr = nodes[idx], nodes[idx + 1]
        gl, gr = core[idx], core[idx + 1]
        gt = kernel.eval(x, float(t)) * kernel.eval(float(t), y) * V(float(t))
        total += (0.5 * (t - yl) * (gl + gt) + 0.5 * (yr - t) * (gt + gr)
                  - 0.5 * dx * (gl + gr))

    for bad, inward, weight in ((left_bad, 1, (b - x) * (b - y)),
                                (right_bad, -1, (x - a) * (y - a))):
        if not bad:
            continue
        (plus, up), (minus, down) = (_edge_moment(V, sign, inward, 2) for sign in (1, -1))
        if up or down:
            side = "left" if inward > 0 else "right"
            raise NotIntegrableError(
                f"iterated kernel integrand not integrable near {side} endpoint")
        total += weight / L ** 2 * (plus - minus)
    return total

