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
moment comes from one dyadic power-law rule (:func:`_edge_moment`): the
local exponents s_m = log2(f(d_{m+1})/f(d_m)) at the distances
d_m = dx·2^{-m} give each shell the exact moment of the power law through
its end values, the deepest one closes the panel in closed form, and
their drift decides whether the part integrates to +inf.  Value-only data
are its smallest case, with no inner shells.  Next to the boundary panel
of an attached expression, per-panel Gauss-Legendre replaces the
trapezoid rule (the kernel is linear in y on each panel, so only two
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
    "potential",
    "potential_improper",
    "improper_potential_at",
    "iterated_kernel",
    "power_product",
]

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_CHUNK_PANELS = 1 << 15     # panels per source evaluation (8 Gauss points each)

REFINE_PANELS = 24
_MAX_LEVELS = 60            # deepest dyadic node of an attached expression
# 3-point Gauss-Legendre on (0, 1) in t = log2(d_m/d), across each dyadic shell
_SHELL_T, _SHELL_W = (np.array(np.polynomial.legendre.leggauss(3)) + [[1.0], [0.0]]) / 2.0
_LN2 = float(np.log(2.0))
_TWO_NODE_MARGIN = np.log2(0.9)    # a two-node exponent this close below e+1 reads +inf
_BAND = 0.005               # an extrapolated exponent this close below e+1 reads +inf
_DRIFT_FLOOR = 1e-6         # smaller exponent drifts are rounding
_FIT_TOL = 1e-2             # relative misfit of a deep shell to its power law


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


def _power_law_tail(f_end, d_end, exps, e1: int):
    """∫_0^{d_end} d^{e1-1} f below the deepest dyadic node, and its verdict.

    ``exps`` are the local exponents s_m = log2(f(d_{m+1})/f(d_m)) of
    f ~ d^{-s} at the dyadic nodes d_{m+1} = d_m/2, shallowest first and
    ending at d_end.  Below d_end, f is the power law through f_end with
    the deepest exponent s, clipped to [-8, 8] (0 without exponents); its
    moment is f_end·d_end^{e1}/(e1-s).  The part reads +inf when
      - node data (at most two exponents): s is within _TWO_NODE_MARGIN of
        e1, unless a shallower s' extrapolates 2s - s' below e1 by more
        than its uncertainty |s - s'|;
      - three or more: the exponent, extrapolated by the ratio r of its
        last two drifts, is within _BAND of e1.  A rising drift is summed
        as s_m = s + c/(m + m0) leaves it (which bounds a geometric drift)
        and cannot be certified unless it slows (r < 1); a falling or
        alternating exponent is bounded by the larger of the last two.
    Returns (moment, diverged).
    """
    s = min(max(float(exps[-1]), -8.0), 8.0) if len(exps) else 0.0
    if len(exps) < 3:
        diverged = s >= e1 + _TWO_NODE_MARGIN
        if diverged and len(exps) == 2:
            s24 = float(exps[0])
            diverged = max(s, 2.0 * s - s24) + abs(s - s24) >= e1
    else:
        drift, prev = exps[-1] - exps[-2], exps[-2] - exps[-3]
        limit = max(exps[-1], exps[-2])
        if drift > _DRIFT_FLOOR and prev > 0.0:
            r = drift / prev
            limit = exps[-1] + drift * (1.0 + r) / (1.0 - r) if r < 1.0 else np.inf
        diverged = limit >= e1 - _BAND
    if diverged:
        return np.inf, True
    return float(f_end * d_end ** e1 / (e1 - s)), False


def _expression_moment(pfn, grid: Grid, inward: int, e1: int):
    """∫_0^dx d^{e1-1} f of an attached part f over one boundary panel.

    f is evaluated once, at d_m = dx·2^{-m} down to where edge ± d still
    carries d to about 1e-8 (_MAX_LEVELS at an edge at 0), and at _SHELL_T
    points inside each shell [d_{m+1}, d_m].  A shell takes the exact
    moment of the power law through its end values plus Gauss-Legendre in
    log d on the rest.  Where the three deepest shells fit their power laws
    to _FIT_TOL, :func:`_power_law_tail` closes the panel and gives the
    verdict.  Returns (moment, diverged).
    """
    edge = grid.interval.left if inward > 0 else grid.interval.right
    dx = grid.spacing
    levels = min(max(int(np.log2(1e-8 * dx) - np.log2(np.spacing(abs(edge)))), 3), _MAX_LEVELS)
    d = dx * 0.5 ** np.arange(levels + 1)
    t = d[:-1, None] * 0.5 ** _SHELL_T
    dist = np.concatenate([d, t.ravel()])
    fv = pfn(edge + inward * dist)
    if not np.isfinite(fv).all():
        return np.inf, True
    if not fv.any():
        return 0.0, False
    f, ft = fv[:levels + 1], fv[levels + 1:].reshape(t.shape)
    de = dist ** e1
    w = fv * de
    live = (f[:-1] > 0.0) & (f[1:] > 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.where(live, np.log2(f[1:] / f[:-1]), 0.0)
        c = e1 - s
        mean = np.where(c == 0.0, _LN2, -np.expm1(-_LN2 * c) / c)
        p = np.where(live, f[:-1], 0.0)[:, None] * np.exp2(s[:, None] * _SHELL_T)
        rest = (ft - p) * de[levels + 1:].reshape(t.shape)
        shells = np.where(live, w[:levels], 0.0) * mean + _LN2 * (rest @ _SHELL_W)
    total = float(shells.sum())
    if live[-3:].all() and (np.abs(ft[-3:] - p[-3:]) <= _FIT_TOL * p[-3:]).all():
        tail, diverged = _power_law_tail(f[-1], d[-1], s[-3:], e1)
        return total + tail, diverged
    # no power law fits (an oscillating source, say): finite, without a tail,
    # only if the sampled d^{e1} f halves from the shallow to the deep levels
    deep = dist < d[levels // 2]
    return (total, False) if w[deep].max() <= 0.5 * w[~deep].max() else (np.inf, True)


def _edge_moment(f: GridFn, sign: int, inward: int, weight_exponent: int = 1):
    """∫ d^e max(sign·f, 0) over the boundary panel at one endpoint.

    d is the distance from the endpoint (inward = 1 left, -1 right) and e is
    ``weight_exponent``.  An attached expression goes through
    :func:`_expression_moment`.  Value-only data are the smallest case of
    its rule, the nodes dx, 2dx and 4dx with no inner shells: a node counts
    while the part is positive and finite there, and 4dx also needs n >= 9
    and f(2dx) >= f(4dx).  Returns (moment, diverged).
    """
    grid = f.grid
    e1 = weight_exponent + 1
    pfn = _part_fn(f.fn, sign)
    if pfn is not None:
        return _expression_moment(pfn, grid, inward, e1)
    part = np.maximum(sign * f.values[::inward][:5], 0.0)     # from the edge inward
    f1, f2, f4 = part[1], part[2], part[4] if grid.n >= 9 else 0.0
    if not (np.isfinite(f1) and f1 > 0.0):
        return 0.0, False
    exps = []
    with np.errstate(divide="ignore", over="ignore"):
        if np.isfinite(f2) and f2 > 0.0:
            exps = ([np.log2(f2 / f4)] if f2 >= f4 > 0.0 else []) + [np.log2(f1 / f2)]
    return _power_law_tail(f1, grid.spacing, exps, e1)


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

