"""Oscillation-resolving Green quadrature for sin(π/y^α)-type sources.

Integrands of the form w(y) = (envelope) · sin(π / y^α) oscillate infinitely
often as y -> 0+, with sign changes exactly at y_k = k^{-1/α}.  Uniform-grid
trapezoids alias these, so the Green-potential pieces

    A(x) = ∫_a^x (y-a) w(y) dy,      B(x) = ∫_x^b (b-y) w(y) dy,
    (G w)(x) = [(b-x) A(x) + (x-a) B(x)] / (b-a)

are assembled from Gauss panels between consecutive sign changes.  The
kernel is linear in y, so the panels are built once and only two running
moments are accumulated, M0 = ∫ w and M1 = ∫ y·w; every interval is read
off them as A = ΔM1 - a·ΔM0 and B = b·ΔM0 - ΔM1.  That makes nested
exhaustion levels (a_m, b_m) cost one pass: the panels of the deepest
level include every level's edges, and each level subtracts its own
moments.  The read-off is :mod:`greenbound.green`'s, shared with its
improper potentials; it evaluates w in fixed-size chunks, so peak memory
does not grow with the number of resolved periods.

Below the deepest resolved zero the remaining head of A is an alternating
series whose period magnitudes are verified to decrease with depth, so
|head| is certified by the deepest resolved period integral; the
certificate is reported with the values.  Partial sums at sign changes
bracket the improper integral, so resolved sum + certificate realizes the
improper (exhaustion-limit) value when the integral converges only
conditionally.  The certificate is meaningless for non-alternating
integrands (e.g. |w|); callers forcing a cutoff with ``y_floor`` get plain
truncated values (lower bounds for nonnegative w) and ``alternating_ok``
is reported for transparency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResolutionInsufficientError
from .green import _GAUSS_W as _GW, _GAUSS_X as _GX, _two_moment_levels

__all__ = ["OscillatoryResult", "green_apply_oscillatory"]

FILL_WIDTH = 0.01           # widest panel between sign changes
SUBPANELS_PER_PERIOD = 2    # Gauss panels per sign interval narrower than that


@dataclass(frozen=True)
class OscillatoryResult:
    """G w at the requested points.

    With scalar edges every array is indexed by point.  With arrays of
    exhaustion edges ``values``, ``eps``, ``a_cum``, ``b_cum`` and
    ``head_bound`` gain a leading level axis; ``periods`` counts the deepest
    level's intervals and ``alternating_ok`` holds for all levels.
    """

    values: np.ndarray          # G w at the requested points
    head_bound: float | np.ndarray  # certified |unresolved head of A|
    eps: np.ndarray             # per-point bound propagated from the head
    y_bottom: float             # deepest resolved breakpoint
    periods: int                # number of resolved sign intervals
    alternating_ok: bool        # trailing period magnitudes decrease with depth
    a_cum: np.ndarray           # A at the requested points (resolved part)
    b_cum: np.ndarray           # B at the requested points


def _zero_range(alpha: float, lo: float, hi: float, k_cap: int):
    """Indices (k_min, k_max) of sign changes k^{-1/alpha} in [lo, hi]."""
    k_min = max(1, int(np.ceil(hi ** (-alpha) - 1e-12)))
    if lo > 0.0:
        k_max = int(np.floor(lo ** (-alpha) + 1e-12))
    else:
        k_max = k_min + k_cap
    capped = k_max - k_min > k_cap
    k_max = min(k_max, k_min + k_cap)
    return k_min, k_max, capped


def _period_probe(w_fn, alpha: float, a: float, k: int) -> float:
    """|∫ (y-a) w| over the sign interval [ (k+1)^{-1/α}, k^{-1/α} ]."""
    y_hi = k ** (-1.0 / alpha)
    y_lo = (k + 1) ** (-1.0 / alpha)
    mid = 0.5 * (y_lo + y_hi)
    half = 0.5 * (y_hi - y_lo)
    yq = mid + half * _GX
    return abs(float(np.sum((yq - a) * np.asarray(w_fn(yq), dtype=float)
                            * half * _GW)))


def _resolved_range(w_fn, alpha, a, b, y_floor, head_budget, max_periods):
    """(k_min, k_max, resolved_to_edge) of one interval's sign changes.

    For a = 0 the resolution deepens geometrically until the probed period
    integral of y·w drops under ``head_budget`` (or ``max_periods`` is hit).
    """
    if a == 0.0 and y_floor == 0.0:
        k_min, k_max, _ = _zero_range(alpha, 0.0, b, 4096)
        while True:
            probe = _period_probe(w_fn, alpha, a, k_max)
            if probe <= head_budget or k_max - k_min >= max_periods:
                break
            k_max = min(k_min + max_periods, k_max * 2)
        return k_min, k_max, False
    k_min, k_max, capped = _zero_range(alpha, max(a, y_floor), b, max_periods)
    return k_min, k_max, (not capped) and y_floor <= a


def green_apply_oscillatory(w_fn, alpha: float, xs, a=0.0, b=1.0, *,
                            head_budget: float = 1e-11,
                            max_periods: int = 1_500_000,
                            y_floor: float = 0.0) -> OscillatoryResult:
    """Evaluate (G w)(x) on (a,b) for all x in xs, in ascending order of x.

    ``w_fn`` must accept numpy arrays and be finite on (a,b).  For a = 0 the
    resolution deepens until the probed period integral of y·w drops under
    ``head_budget`` (or ``max_periods`` is hit); for a > 0 the integral is
    resolved all the way down to a when affordable, otherwise the unresolved
    window above a is certified like a head.  ``y_floor`` forces a cutoff.

    ``a`` and ``b`` may be equal-length arrays of exhaustion edges; all
    levels then come from one pass over the deepest level's panels.  Points
    must lie inside the widest level; in the row of a level that does not
    contain a point (or has not resolved down to it) the point reads NaN.
    """
    xs = np.sort(np.asarray(xs, dtype=float))
    single = np.ndim(a) == 0 and np.ndim(b) == 0
    a_lv, b_lv = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=float)),
                                     np.atleast_1d(np.asarray(b, dtype=float)))
    if xs.size and (xs[0] <= a_lv.min() or xs[-1] >= b_lv.max()):
        raise ResolutionInsufficientError("evaluation points must be interior")

    ranges = [_resolved_range(w_fn, alpha, float(am), float(bm), y_floor,
                              head_budget, max_periods)
              for am, bm in zip(a_lv, b_lv)]
    counts = [max(0, k_max - k_min + 1) for k_min, k_max, _ in ranges]
    if any(counts):
        k_lo = min(r[0] for r, c in zip(ranges, counts) if c)
        k_hi = max(r[1] for r, c in zip(ranges, counts) if c)
        ks = np.arange(k_lo, k_hi + 1, dtype=float)
    else:
        k_hi, ks = 0, np.empty(0)
    zeros = ks ** (-1.0 / alpha)
    zeros = zeros[::-1]                 # ascending; zeros[j] sits at k = k_hi - j

    # each level's deepest resolved breakpoint
    floors = np.maximum(a_lv, y_floor)
    y_bot = np.array([
        fl if (edge and fl > 0.0) or not c else zeros[k_hi - k_max]
        for (_, k_max, edge), c, fl in zip(ranges, counts, floors)])
    y_bottom = float(y_bot.min())
    if xs.size and xs[0] <= y_bottom:
        raise ResolutionInsufficientError(
            f"evaluation point {xs[0]:.3g} below resolved depth "
            f"{y_bottom:.3g}; raise max_periods or loosen head_budget")

    b_top = float(b_lv.max())
    breaks = np.unique(np.concatenate([zeros, xs, y_bot, b_lv]))
    breaks = breaks[(breaks >= y_bottom) & (breaks <= b_top)]
    widths = np.diff(breaks)
    extra = []
    wide = np.flatnonzero(widths > FILL_WIDTH)
    for i in wide:
        m = int(np.ceil(widths[i] / FILL_WIDTH))
        extra.append(breaks[i] + widths[i] * np.arange(1, m) / m)
    small = np.flatnonzero(widths <= FILL_WIDTH)
    for j in range(1, SUBPANELS_PER_PERIOD):
        extra.append(breaks[small] + widths[small] * j / SUBPANELS_PER_PERIOD)
    breaks = np.unique(np.concatenate([breaks] + extra))

    def checked(y):
        fv = np.asarray(w_fn(y), dtype=float)
        if not np.all(np.isfinite(fv)):
            raise ResolutionInsufficientError("w evaluated non-finite inside (a,b)")
        return fv

    vals, A, B, M0, M1 = _two_moment_levels(checked, breaks, xs, y_bot, a_lv, b_lv)

    head = np.zeros(a_lv.size)
    alternating_ok = True
    for lv, ((_, k_max, edge), c) in enumerate(zip(ranges, counts)):
        if edge or not c:
            continue
        j0 = k_hi - k_max
        if c >= 7:
            zi = np.searchsorted(breaks, zeros[j0:j0 + 7])
            # deepest six period magnitudes, ∫(y-a)w = ΔM1 - a·ΔM0
            pp = np.abs(np.diff(M1[zi]) - a_lv[lv] * np.diff(M0[zi]))
            alternating_ok &= bool(np.all(pp[:-1] <= pp[1:] * 1.25 + 1e-300))
            head[lv] = 1.5 * float(pp[0])
        else:
            head[lv] = 1.5 * _period_probe(w_fn, alpha, float(a_lv[lv]), k_max)

    al, bl = a_lv[:, None], b_lv[:, None]
    eps = np.where(np.isnan(vals), np.nan, head[:, None] * (bl - xs) / (bl - al))
    periods = max(0, max(counts) - 1)
    if single:
        return OscillatoryResult(vals[0], float(head[0]), eps[0], y_bottom,
                                 periods, alternating_ok, A[0], B[0])
    return OscillatoryResult(vals, head, eps, y_bottom, periods,
                             alternating_ok, A, B)
