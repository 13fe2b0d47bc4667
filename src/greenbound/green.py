"""Dirichlet Green kernels and Green potentials on an interval.

The closed-form kernel of -d²/dx² on (a,b) with zero boundary values is

    G(x,y) = min((x-a)(b-y), (y-a)(b-x)) / (b-a),

symmetric, nonnegative, vanishing when x or y hits an endpoint, and linear
in y on either side of the kink at y=x.  Potentials G f are computed with
the split trapezoid rule, which is exact (up to rounding) whenever the
integrand is piecewise linear with its only kink at a node.

Sources that are +-inf at an endpoint are integrated against the kernel by
splitting into positive/negative parts.  Because the kernel vanishes
linearly at the endpoints, the boundary-panel contribution of a part
factorizes into a scalar first moment of the source times a per-node
kernel factor; the moment is evaluated with an open midpoint rule on
dyadically shrinking shells.  A part is declared to integrate to +inf when
three consecutive dyadic refinements of that panel keep growing without
slowing (successive increment ratio >= 0.9); this is the numerical
surrogate for non-integrability used throughout the package.

When the singular source carries an attached expression, the panels next
to the refined one are integrated with per-panel Gauss-Legendre instead of
the trapezoid rule (the kernel is linear in y on each panel, so only two
scalar moments per panel are needed).  Value-only sources fall back to a
power-law extrapolation through the two innermost interior nodes on the
first panel alone.
"""

from __future__ import annotations

import csv
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
    "read_kernel_csv",
    "write_kernel_csv",
]

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)

REFINE_PANELS = 24
SHELL_LEVELS = 60
SHELL_POINTS = 48
DIVERGENCE_RATIO = 0.9


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


class Kernel:
    """Symmetric nonnegative Dirichlet kernel: closed form or tabulated."""

    def __init__(self, interval: Interval, grid: Grid | None = None,
                 matrix: np.ndarray | None = None):
        self.interval = interval
        self._grid = grid
        self._matrix = matrix
        self._cache: dict[tuple, np.ndarray] = {}

    @classmethod
    def closed_form(cls, interval: Interval) -> "Kernel":
        """Kernel of -d²/dx² with zero Dirichlet data on the interval."""
        return cls(interval)

    @classmethod
    def tabulated(cls, grid: Grid, matrix: np.ndarray) -> "Kernel":
        m = np.asarray(matrix, dtype=float)
        n = grid.n
        if m.shape != (n, n):
            raise InvalidGridError(f"kernel matrix shape {m.shape} != ({n},{n})")
        scale = max(1.0, float(np.abs(m).max()))
        if not np.allclose(m, m.T, rtol=1e-10, atol=1e-14 * scale):
            raise InvalidGridError("tabulated kernel must be symmetric")
        if m.min() < 0:
            raise InvalidGridError("tabulated kernel must be nonnegative")
        if max(np.abs(m[0]).max(), np.abs(m[-1]).max()) > 1e-10 * scale:
            raise InvalidGridError("tabulated kernel must vanish on the boundary rows")
        return cls(grid.interval, grid=grid, matrix=m.copy())

    @property
    def is_closed_form(self) -> bool:
        return self._matrix is None

    def eval(self, x: float, y: float) -> float:
        a, b = self.interval.left, self.interval.right
        if not (a <= x <= b and a <= y <= b):
            raise DomainError(f"point ({x},{y}) outside kernel interval [{a},{b}]")
        if self.is_closed_form:
            return float(min((x - a) * (b - y), (y - a) * (b - x)) / (b - a))
        g = self._grid
        fx = np.clip((x - a) / g.spacing, 0, g.n - 1)
        fy = np.clip((y - a) / g.spacing, 0, g.n - 1)
        i0 = min(int(fx), g.n - 2)
        j0 = min(int(fy), g.n - 2)
        tx, ty = fx - i0, fy - j0
        m = self._matrix
        return float((1 - tx) * (1 - ty) * m[i0, j0] + tx * (1 - ty) * m[i0 + 1, j0]
                     + (1 - tx) * ty * m[i0, j0 + 1] + tx * ty * m[i0 + 1, j0 + 1])

    def _check_grid(self, grid: Grid) -> None:
        if self.is_closed_form:
            if grid.interval != self.interval:
                raise DomainError("grid interval does not match kernel interval")
        elif grid != self._grid:
            raise DomainError("tabulated kernels require the integrand's own grid; "
                              "no resampling between grids")

    def matrix_for(self, grid: Grid) -> np.ndarray:
        """Kernel values at all node pairs of the grid (cached)."""
        self._check_grid(grid)
        if not self.is_closed_form:
            return self._matrix
        key = (grid.interval.left, grid.interval.right, grid.n)
        mat = self._cache.get(key)
        if mat is None:
            mat = self.rows_at(grid.nodes, grid.nodes)
            self._cache[key] = mat
        return mat

    def rows_at(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Kernel values G(x_i, y_j); closed-form kernels evaluate anywhere."""
        if self.is_closed_form:
            a, b = self.interval.left, self.interval.right
            X = np.asarray(xs, dtype=float)[:, None]
            Y = np.asarray(ys, dtype=float)[None, :]
            mat = np.minimum((X - a) * (b - Y), (Y - a) * (b - X)) / (b - a)
            np.clip(mat, 0.0, None, out=mat)
            return mat
        return np.array([[self.eval(float(x), float(y)) for y in ys] for x in xs])


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


def _power_extrapolator(f1: float, f2: float, dx: float):
    """Power-law model c*d^{-s} through the two innermost interior values.

    d is the distance from the singular endpoint; f1 = f(dx), f2 = f(2 dx).
    Falls back to zero/constant when the data do not support a power fit.
    """
    if not np.isfinite(f1) or f1 <= 0.0:
        return lambda d: np.zeros_like(np.asarray(d, dtype=float))
    if not np.isfinite(f2) or f2 <= 0.0:
        return lambda d: np.full_like(np.asarray(d, dtype=float), f1)
    s = float(np.clip(np.log2(f1 / f2), -8.0, 8.0))
    return lambda d: f1 * (np.asarray(d, dtype=float) / dx) ** (-s)


def _singular_panel_moment(dx: float, eval_from_edge, weight_exponent: int = 1,
                           shell_levels: int = SHELL_LEVELS,
                           shell_points: int = SHELL_POINTS,
                           divergence_ratio: float = DIVERGENCE_RATIO):
    """Open-midpoint moment of the boundary panel next to a singular endpoint.

    Integrates d^e * f over distances d in (0, dx) from the endpoint, where
    ``eval_from_edge(d)`` returns the (nonnegative) source at distance d and
    e = ``weight_exponent``.  Dyadic shells [dx 2^{-m-1}, dx 2^{-m}] are
    summed with a composite midpoint rule.  Divergence (the part integrates
    to +inf) is declared when three consecutive dyadic refinements keep the
    increment ratio >= ``divergence_ratio``.

    Returns (moment, diverged).
    """
    # symmetrized Kronecker offsets: equal weights, midpoint-symmetric (so
    # linear integrands are integrated exactly), and irrational spacing that
    # defeats the phase locking of rapidly oscillating sources on rational
    # node lattices
    half = max(1, shell_points // 2)
    base = np.mod((np.arange(1, half + 1)) * 0.6180339887498949, 1.0)
    offs = np.sort(np.concatenate([0.5 * base, 1.0 - 0.5 * base]))

    def shell(m: int) -> float:
        hi = dx * 2.0 ** (-m)
        lo = hi / 2.0
        width = hi - lo
        d = lo + offs * width
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = (d ** weight_exponent) * np.asarray(eval_from_edge(d), dtype=float)
        g = np.where(np.isfinite(g), g, 0.0)
        return float(np.sum(g) * (width / offs.size))

    total = 0.0
    prev = None
    prev2 = None
    slow = 0
    for m in range(shell_levels):
        cur = shell(m)
        total += cur
        if prev is not None and prev > 0.0 and cur > 0.0:
            slow = slow + 1 if cur / prev >= divergence_ratio else 0
            if slow >= 3:
                return np.inf, True
        elif prev is not None:
            slow = 0
        if abs(cur) <= 1e-18 * max(abs(total), 1e-300):
            prev2, prev = prev, cur
            break
        prev2, prev = prev, cur
    if prev and prev2:
        r = prev / prev2
        if 0.0 < r < 0.95:
            total += prev * r / (1.0 - r)
    return total, False


def _gauss_panel_moments(fn, lo: np.ndarray, hi: np.ndarray):
    """Per-panel integrals of f and (y - lo)*f by 8-point Gauss-Legendre."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    y = mid[:, None] + half[:, None] * _GAUSS_X[None, :]
    w = half[:, None] * _GAUSS_W[None, :]
    fv = np.asarray(fn(y.ravel()), dtype=float).reshape(y.shape)
    a0 = np.sum(fv * w, axis=1)
    a1 = np.sum(fv * (y - lo[:, None]) * w, axis=1)
    return a0, a1


def _integrate_part(kernel: Kernel, K: np.ndarray, grid: Grid,
                    pvals: np.ndarray, pfn, left_bad: bool, right_bad: bool,
                    refine_panels: int, shell_levels: int, shell_points: int,
                    divergence_ratio: float):
    """Potential of one nonnegative part with singular boundary panels.

    Returns (values at all nodes, diverged_left, diverged_right).
    """
    n = grid.n
    dx = grid.spacing
    a, b = grid.interval.left, grid.interval.right

    def refine_count(bad: bool) -> int:
        if not bad:
            return 0
        if pfn is None:
            return 1
        return int(min(refine_panels, max(1, (n - 1) // 3)))

    r_left = refine_count(left_bad)
    r_right = refine_count(right_bad)
    j_lo, j_hi = r_left, n - 1 - r_right

    wmid = _trap_weights(j_hi - j_lo + 1, dx)
    out = K[:, j_lo:j_hi + 1] @ (pvals[j_lo:j_hi + 1] * wmid)

    div_left = div_right = False
    if r_left:
        edge_eval = ((lambda d: pfn(a + np.asarray(d, dtype=float)))
                     if pfn is not None
                     else _power_extrapolator(float(pvals[1]), float(pvals[2]), dx))
        m0, div_left = _singular_panel_moment(
            dx, edge_eval, 1, shell_levels, shell_points, divergence_ratio)
        if not div_left:
            out += K[:, 1] * (m0 / dx)
            if r_left > 1:
                cols = np.arange(1, r_left)
                a0, a1 = _gauss_panel_moments(pfn, a + dx * cols, a + dx * (cols + 1))
                out += K[:, cols] @ (a0 - a1 / dx) + K[:, cols + 1] @ (a1 / dx)
    if r_right:
        edge_eval = ((lambda d: pfn(b - np.asarray(d, dtype=float)))
                     if pfn is not None
                     else _power_extrapolator(float(pvals[-2]), float(pvals[-3]), dx))
        m0, div_right = _singular_panel_moment(
            dx, edge_eval, 1, shell_levels, shell_points, divergence_ratio)
        if not div_right:
            out += K[:, n - 2] * (m0 / dx)
            if r_right > 1:
                cols = np.arange(n - 1 - r_right, n - 2)
                a0, a1 = _gauss_panel_moments(pfn, a + dx * cols, a + dx * (cols + 1))
                out += K[:, cols] @ (a0 - a1 / dx) + K[:, cols + 1] @ (a1 / dx)
    return out, div_left, div_right


def potential(kernel: Kernel, f: GridFn, *,
              refine_panels: int = REFINE_PANELS,
              shell_levels: int = SHELL_LEVELS,
              shell_points: int = SHELL_POINTS,
              divergence_ratio: float = DIVERGENCE_RATIO) -> PotentialResult:
    """Green potential (G f)(x_i) = ∫ G(x_i,y) f(y) dy at every node.

    f may be signed and may be +-inf at the endpoints (integrably singular
    sources); interior values must be finite.  Undefinedness -- both the
    positive and the negative part integrating to +inf -- is reported per
    node in the result status, never raised.
    """
    grid = f.grid
    kernel._check_grid(grid)
    vals = f.values
    n = grid.n
    if np.isnan(vals).any():
        raise NotIntegrableError("nan values are not integrable")
    if not np.all(np.isfinite(vals[1:-1])):
        raise NotIntegrableError("interior values must be finite")

    K = kernel.matrix_for(grid)
    dx = grid.spacing
    if np.isfinite(vals[0]) and np.isfinite(vals[-1]):
        out = K @ (vals * _trap_weights(n, dx))
        out[0] = out[-1] = 0.0
        return PotentialResult(GridFn(grid, out), np.ones(n, bool), False, False)

    fin = np.isfinite(vals)
    pos_vals = np.where(fin, np.maximum(vals, 0.0), np.where(vals > 0, np.inf, 0.0))
    neg_vals = np.where(fin, np.maximum(-vals, 0.0), np.where(vals < 0, np.inf, 0.0))
    # with an attached expression a non-finite endpoint is probed for both
    # parts (a sign-oscillating singularity can make both diverge); a part
    # that actually vanishes there just contributes a zero moment
    probe_left = not np.isfinite(vals[0]) and f.fn is not None
    probe_right = not np.isfinite(vals[-1]) and f.fn is not None

    def run(part_vals, sign):
        if not np.any(part_vals > 0) and not (probe_left or probe_right):
            return np.zeros(n), False, False
        return _integrate_part(
            kernel, K, grid, np.where(np.isfinite(part_vals), part_vals, 0.0),
            _part_fn(f.fn, sign),
            bool(np.isposinf(part_vals[0])) or probe_left,
            bool(np.isposinf(part_vals[-1])) or probe_right,
            refine_panels, shell_levels, shell_points, divergence_ratio)

    pos_vec, pl, pr = run(pos_vals, +1)
    neg_vec, nl, nr = run(neg_vals, -1)
    plus_inf = pl or pr
    minus_inf = nl or nr

    out = np.empty(n)
    well = np.ones(n, bool)
    if plus_inf and minus_inf:
        out[:] = np.nan
        well[1:-1] = False
    elif plus_inf:
        out[:] = np.inf
    elif minus_inf:
        out[:] = -np.inf
    else:
        out[:] = pos_vec - neg_vec
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
    """Exhaustion sequence I_m = ∫_{Ω_m} G^{Ω_m}(x,·) f over nested Ω_m."""

    value: GridFn
    sequence: list
    deltas: list


def _resample(f: GridFn, subgrid: Grid) -> GridFn:
    if f.fn is not None:
        vfn = _vectorized(f.fn)
        return GridFn(subgrid, vfn(subgrid.nodes), fn=f.fn)
    fin = np.isfinite(f.values)
    return GridFn(subgrid, np.interp(subgrid.nodes, f.grid.nodes[fin], f.values[fin]))


def _potential_at_points(kernel: Kernel, f: GridFn, xs: np.ndarray) -> np.ndarray:
    """Potential of a finite GridFn at arbitrary interior points, kink-exact.

    The trapezoid panel containing each x is re-split at x so the kernel
    kink stays on a breakpoint.
    """
    grid = f.grid
    nodes = grid.nodes
    dx = grid.spacing
    vals = f.values
    if not np.all(np.isfinite(vals)):
        raise NotIntegrableError("pointwise potential needs finite values")
    xs = np.asarray(xs, dtype=float)
    a, b = grid.interval.left, grid.interval.right
    rows = kernel.rows_at(xs, nodes)
    g = rows * vals[None, :]
    base = np.trapezoid(g, dx=dx, axis=1)
    idx = np.clip(((xs - a) / dx).astype(int), 0, grid.n - 2)
    yl, yr = nodes[idx], nodes[idx + 1]
    ii = np.arange(xs.size)
    gl, gr = g[ii, idx], g[ii, idx + 1]
    if f.fn is not None:
        fx = _vectorized(f.fn)(xs)
    else:
        fx = np.interp(xs, nodes, vals)
    if kernel.is_closed_form:
        kx = (xs - a) * (b - xs) / (b - a)
    else:
        kx = np.array([kernel.eval(float(x), float(x)) for x in xs])
    gx = kx * fx
    exact = 0.5 * (xs - yl) * (gl + gx) + 0.5 * (yr - xs) * (gx + gr)
    return base - 0.5 * dx * (gl + gr) + exact


def potential_improper(kernel: Kernel, f: GridFn, levels: int = 20) -> ImproperPotential:
    """Improper potential via the exhaustion Ω_m = (a+δ_m, b-δ_m).

    δ_m = (b-a)/2^{m+2} for m = 1..levels; each level uses the closed-form
    kernel of its own subinterval on a fresh uniform subgrid with the same
    node count, resampling f through its expression when attached (linear
    interpolation otherwise).  The returned value is the deepest level; the
    full sequence is kept for liminf diagnostics.  Boundary nodes, which lie
    outside every Ω_m, are pinned to the Dirichlet limit 0.
    """
    if levels < 2:
        raise DomainError("need at least 2 exhaustion levels")
    if not kernel.is_closed_form:
        raise DomainError("potential_improper needs a closed-form kernel")
    grid = f.grid
    kernel._check_grid(grid)
    a, b = grid.interval.left, grid.interval.right
    L = b - a
    nodes = grid.nodes
    seq, deltas = [], []
    final = np.full(grid.n, np.nan)
    for m in range(1, levels + 1):
        delta = L / 2.0 ** (m + 2)
        sub = Interval(a + delta, b - delta)
        subgrid = Grid(sub, grid.n)
        fsub = _resample(f, subgrid)
        subkernel = Kernel.closed_form(sub)
        inside = (nodes > sub.left) & (nodes < sub.right)
        level_vals = np.full(grid.n, np.nan)
        if inside.any():
            level_vals[inside] = _potential_at_points(subkernel, fsub, nodes[inside])
        seq.append(level_vals)
        deltas.append(delta)
        final = np.where(np.isnan(level_vals), final, level_vals)
    final[0] = final[-1] = 0.0
    return ImproperPotential(GridFn(grid, final), seq, deltas)


def improper_potential_at(kernel: Kernel, f: GridFn, x: float,
                          levels: int = 20) -> list[float]:
    """Exhaustion sequence of the improper potential at a single point."""
    if not kernel.is_closed_form:
        raise DomainError("improper potentials need a closed-form kernel")
    grid = f.grid
    a, b = grid.interval.left, grid.interval.right
    L = b - a
    out = []
    for m in range(1, levels + 1):
        delta = L / 2.0 ** (m + 2)
        sub = Interval(a + delta, b - delta)
        if not sub.left < x < sub.right:
            continue
        subgrid = Grid(sub, grid.n)
        fsub = _resample(f, subgrid)
        out.append(float(_potential_at_points(Kernel.closed_form(sub), fsub,
                                              np.array([x]))[0]))
    if not out:
        raise DomainError(f"x={x} outside every exhaustion subdomain")
    return out


def _signed_edge_moment(V: GridFn, side: str, weight_exponent: int,
                        shell_levels: int, shell_points: int,
                        divergence_ratio: float):
    """Signed boundary moment ∫ d^e V for the panel next to one endpoint."""
    grid = V.grid
    dx = grid.spacing
    a, b = grid.interval.left, grid.interval.right
    vals = V.values
    total = 0.0
    for sign in (+1, -1):
        if V.fn is not None:
            pf = _part_fn(V.fn, sign)
            edge_eval = (lambda d: pf(a + np.asarray(d, dtype=float))) if side == "left" \
                else (lambda d: pf(b - np.asarray(d, dtype=float)))
        else:
            v1 = vals[1] if side == "left" else vals[-2]
            v2 = vals[2] if side == "left" else vals[-3]
            edge_eval = _power_extrapolator(max(sign * float(v1), 0.0),
                                            max(sign * float(v2), 0.0), dx)
        m, div = _singular_panel_moment(dx, edge_eval, weight_exponent,
                                        shell_levels, shell_points, divergence_ratio)
        if div:
            raise NotIntegrableError(
                f"iterated kernel integrand not integrable near {side} endpoint")
        total += sign * m
    return total


def iterated_kernel(kernel: Kernel, V: GridFn, x: float, y: float, *,
                    shell_levels: int = SHELL_LEVELS,
                    shell_points: int = SHELL_POINTS,
                    divergence_ratio: float = DIVERGENCE_RATIO) -> float:
    """Second kernel iteration ∫ G(x,z) G(z,y) V(z) dz.

    Split trapezoid with breakpoints at both kernel kinks.  Endpoint-singular
    V is handled by quadratic-weight moments on the boundary panels (the
    kernel product vanishes quadratically there); raises NotIntegrableError
    when a panel moment diverges.
    """
    grid = V.grid
    kernel._check_grid(grid)
    if not (grid.interval.contains(x, closed=False)
            and grid.interval.contains(y, closed=False)):
        raise DomainError("iterated kernel needs interior x, y")
    vals = V.values
    if not np.all(np.isfinite(vals[1:-1])):
        raise NotIntegrableError("interior V values must be finite")
    a, b = grid.interval.left, grid.interval.right
    L = b - a
    dx = grid.spacing
    nodes = grid.nodes
    n = grid.n

    left_bad = not np.isfinite(vals[0])
    right_bad = not np.isfinite(vals[-1])
    j_lo = 1 if left_bad else 0
    j_hi = n - 2 if right_bad else n - 1

    kx = kernel.rows_at(np.array([x]), nodes)[0]
    ky = kernel.rows_at(np.array([y]), nodes)[0]
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

    if left_bad:
        m2 = _signed_edge_moment(V, "left", 2, shell_levels, shell_points,
                                 divergence_ratio)
        total += (b - x) * (b - y) / L ** 2 * m2
    if right_bad:
        m2 = _signed_edge_moment(V, "right", 2, shell_levels, shell_points,
                                 divergence_ratio)
        total += (x - a) * (y - a) / L ** 2 * m2
    return total


def write_kernel_csv(kernel: Kernel, grid: Grid, path) -> None:
    """CSV matrix: header row of y nodes, first column of x nodes."""
    m = kernel.matrix_for(grid)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x\\y"] + [format(v, ".17g") for v in grid.nodes])
        for xi, row in zip(grid.nodes, m):
            writer.writerow([format(xi, ".17g")] + [format(v, ".17g") for v in row])


def read_kernel_csv(path) -> Kernel:
    """Read a tabulated kernel written by :func:`write_kernel_csv`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        ys = np.array([float(v) for v in header[1:]])
        xs, rows = [], []
        for row in reader:
            if not row:
                continue
            xs.append(float(row[0]))
            rows.append([float(v) for v in row[1:]])
    xs = np.asarray(xs)
    if xs.size != ys.size or not np.allclose(xs, ys):
        raise InvalidGridError("kernel CSV must tabulate a square symmetric grid")
    grid = Grid(Interval(float(xs[0]), float(xs[-1])), xs.size)
    return Kernel.tabulated(grid, np.asarray(rows))
