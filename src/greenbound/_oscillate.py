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

At an edge a = 0 the head H = ∫_0^{y_r} y·w below a sign change y_r under
every evaluation point is summed, not truncated.  Its period integrals
P_k = ∫_{y_{k+1}}^{y_k} y·w are an alternating series plus a one-signed
drift (for ex1 the sin² terms of 1/D).  Binomial averaging of the partial
sums at sign changes removes the alternating part, and the power law
through the averaged sums at depths K/4, K/2 and K extrapolates the drift
(cf. Cohen, Rodriguez Villegas & Zagier, Exp. Math. 9, 2000; Sidi,
*Practical Extrapolation Methods*, 2003).  H is added to A, and its
certificate is the gap to the same estimate one depth shallower (K/2)
plus the gap to half the averaging order, and at least the rounding
eps·Σ|P_k| of the summed periods.  The depth K doubles until the
certificate meets ``head_budget``; the estimate at depth K reads the
periods below y_{K/8-2}, and the periods between y_r and y_{K/8-2} are
added as computed.  r = K/8 - 2 for the first K, and that K is 4,096
unless a point lies below y_510, so r, H and the certificate do not
depend on points above y_510.  A source that vanishes on the deepest
quarter of the periods is taken to vanish below them.

An edge a > 0 is resolved all the way down when affordable, and an edge
a < 0 never is (the sign changes accumulate at 0).  Otherwise the window
above the edge is left out: its period magnitudes are verified to
decrease with depth, so the window is certified by 1.5 times the deepest
resolved period integral.  That bound is meaningless for non-alternating
integrands (e.g. |w|), so ``alternating_ok`` is reported with every
certificate: at every edge the deepest six period magnitudes must
decrease with depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ResolutionInsufficientError
from .green import _panel_moments, _two_moment_levels

__all__ = ["OscillatoryResult", "green_apply_oscillatory"]

FILL_WIDTH = 0.01           # widest panel between sign changes
SUBPANELS_PER_PERIOD = 2    # Gauss panels per sign interval narrower than that
_FIRST_DEPTH = 4096         # deepest sign change of the first head estimate
_AVERAGING = 4              # binomial averaging order of the head's partial sums


@dataclass(frozen=True)
class OscillatoryResult:
    """G w at the requested points.

    With scalar edges every array is indexed by point.  With arrays of
    exhaustion edges ``values``, ``eps`` and ``head_bound`` gain a leading
    level axis; ``periods`` counts the deepest level's intervals and
    ``alternating_ok`` holds for all levels.  ``head_bound`` and ``eps``
    bound truncation only: the rounding of the running moments, about
    1e-16 of the values, is left out.
    """

    values: np.ndarray          # G w at the requested points, summed head included
    head_bound: float | np.ndarray  # truncation bound of the summed head of A
                                    # (a = 0), or |unresolved window of A| (a != 0)
    eps: np.ndarray             # per-point truncation bound propagated from the head
    periods: int                # number of resolved sign intervals
    alternating_ok: bool        # trailing period magnitudes decrease with depth


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


def _decreasing(pp) -> bool:
    """Whether period magnitudes, deepest first, grow with height (within 25%)."""
    return bool(np.all(pp[:-1] <= pp[1:] * 1.25 + 1e-300))


def _period_sums(w_fn, alpha: float, k0: int, k1: int) -> np.ndarray:
    """P_k = ∫ y·w over the sign intervals [y_{k+1}, y_k], k0 <= k < k1.

    Each interval takes SUBPANELS_PER_PERIOD Gauss panels.  Intervals that
    underflow to zero width read 0 without evaluating w.
    """
    z = np.arange(k0, k1 + 1, dtype=float) ** (-1.0 / alpha)
    width = z[:-1] - z[1:]
    live = width > 0.0
    edges = (z[1:][live, None] + width[live, None]
             * (np.arange(SUBPANELS_PER_PERIOD + 1) / SUBPANELS_PER_PERIOD))
    _, m1 = _panel_moments(w_fn, edges[:, :-1].ravel(), edges[:, 1:].ravel())
    sums = np.zeros(width.size)
    sums[live] = m1.reshape(-1, SUBPANELS_PER_PERIOD).sum(axis=1)
    return sums


def _extrapolate(S: np.ndarray, nodes, p: int) -> float:
    """Limit of the partial sums S read off three nodes at dyadic depths.

    Order-p binomial averaging centred on each node removes the
    alternating part; the power law through the three averaged sums then
    extrapolates the one-signed drift.
    """
    c = p // 2
    weights = np.array([comb(p, i) for i in range(p + 1)]) / 2.0 ** p
    t0, t1, t2 = (float(weights @ S[n - c:n + c + 1]) for n in nodes)
    d1, d2 = t1 - t0, t2 - t1
    ratio = d2 / d1 if d1 else 0.0
    return t2 + d2 * ratio / (1.0 - ratio) if 0.0 < ratio < 1.0 else t2


def _head_estimate(P: np.ndarray, r: int, K: int):
    """(Σ_{k>=r} P_k, certificate) from P_k, r <= k < K + _AVERAGING/2.

    The certificate is at least eps·Σ|P_k|, the rounding of the summed
    periods, so it never reads 0 while the periods do not vanish.
    """
    S = np.concatenate([[0.0], np.cumsum(P)])
    rounding = np.finfo(float).eps * float(np.sum(np.abs(P)))
    if not np.any(P[3 * K // 4 - r:]):
        return float(S[-1]), rounding
    deep = [K // 4 - r, K // 2 - r, K - r]
    head = _extrapolate(S, deep, _AVERAGING)
    shallower = _extrapolate(S, [K // 8 - r, K // 4 - r, K // 2 - r], _AVERAGING)
    lower_order = _extrapolate(S, deep, _AVERAGING // 2)
    return head, max(abs(head - shallower) + abs(head - lower_order), rounding)


def _summed_head(w_fn, alpha, k_min, k_top, head_budget, max_periods):
    """Sum the head of an edge a = 0 below the sign change y_r0, r0 >= k_top.

    Depths K are multiples of 8 that double from _FIRST_DEPTH up to the
    ``max_periods`` cap, and r0 = K/8 - _AVERAGING/2 for the first K.  The
    estimate at depth K sums the periods from r = K/8 - _AVERAGING/2 on, so
    that its estimate at K/2 has room; the periods from r0 to r are added
    as computed.  Extra depth computes only the new periods.  Returns
    (r0, H, certificate, resolved periods, alternating_ok).
    """
    c = _AVERAGING // 2
    k_cap = 8 * ((k_min + max_periods - c) // 8)
    K = _FIRST_DEPTH
    while K // 8 - c < k_top:
        K *= 2
    K = min(K, k_cap)
    r0 = K // 8 - c
    if r0 < k_top:
        raise ResolutionInsufficientError(
            f"the head below the evaluation points needs more than "
            f"{max_periods} periods; raise max_periods")
    P = _period_sums(w_fn, alpha, r0, K + c)
    while True:
        r = K // 8 - c
        head, cert = _head_estimate(P[r - r0:], r, K)
        if cert <= head_budget or K == k_cap:
            break
        deeper = min(2 * K, k_cap)
        P = np.concatenate([P, _period_sums(w_fn, alpha, K + c, deeper + c)])
        K = deeper
    return (r0, float(np.sum(P[:r - r0])) + head, cert, K + c - k_min,
            _decreasing(np.abs(P[:-7:-1])))


def green_apply_oscillatory(w_fn, alpha: float, xs, a=0.0, b=1.0, *,
                            head_budget: float = 1e-11,
                            max_periods: int = 1_500_000) -> OscillatoryResult:
    """Evaluate (G w)(x) on (a,b) for all x in xs, in ascending order of x.

    ``w_fn`` must accept numpy arrays and be finite on (a,b).  For a = 0 the
    head of A below the evaluation points is summed by series acceleration
    and added to the values; its depth doubles until the certificate of
    that sum drops under ``head_budget`` (or ``max_periods`` is hit).  For
    a > 0 the integral is resolved all the way down to a when affordable;
    otherwise, and always for a < 0, the unresolved window above a is left
    out and certified by its deepest period.  These certificates (``eps``,
    ``head_bound``) bound truncation only; the rounding of the running
    moments, about 1e-16 relative, is left out.

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

    def checked(y):
        fv = np.asarray(w_fn(y), dtype=float)
        if not np.all(np.isfinite(fv)):
            raise ResolutionInsufficientError("w evaluated non-finite inside (a,b)")
        return fv

    # the sign changes of each level's main pass, and the summed heads
    ranges, counts = [], []
    head = np.zeros(a_lv.size)
    summed = np.zeros(a_lv.size)
    alternating_ok = True
    for lv, (am, bm) in enumerate(zip(a_lv, b_lv)):
        k_min, k_max, capped = _zero_range(alpha, am, bm, max_periods)
        if am == 0.0:
            # the summed head starts at a sign change below every point
            k_top = int(np.floor(xs[0] ** -alpha)) + 1 if xs.size and xs[0] > 0 else 1
            k_max, summed[lv], head[lv], resolved, ok = _summed_head(
                checked, alpha, k_min, max(k_min, k_top), head_budget, max_periods)
            alternating_ok &= ok
            counts.append(resolved + 1)
        else:
            counts.append(max(0, k_max - k_min + 1))
        ranges.append((k_min, k_max, (not capped) and am > 0.0))
    live = [rg for rg in ranges if rg[1] >= rg[0]]
    if live:
        k_lo = min(rg[0] for rg in live)
        k_hi = max(rg[1] for rg in live)
        ks = np.arange(k_lo, k_hi + 1, dtype=float)
    else:
        k_hi, ks = 0, np.empty(0)
    zeros = ks ** (-1.0 / alpha)
    zeros = zeros[::-1]                 # ascending; zeros[j] sits at k = k_hi - j

    # each level's deepest resolved breakpoint
    y_bot = np.array([am if edge or k_max < k_min else zeros[k_hi - k_max]
                      for (k_min, k_max, edge), am in zip(ranges, a_lv)])
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

    vals, M0, M1 = _two_moment_levels(checked, breaks, xs, y_bot, a_lv, b_lv)

    # windows above an edge a != 0 that were not resolved down to it
    for lv, ((k_min, k_max, edge), am) in enumerate(zip(ranges, a_lv)):
        if edge or am == 0.0 or k_max < k_min:
            continue
        j0 = k_hi - k_max
        zi = np.searchsorted(breaks, zeros[j0:j0 + min(7, k_max - k_min + 1)])
        # deepest six period magnitudes, ∫(y-a)w = ΔM1 - a·ΔM0
        pp = np.abs(np.diff(M1[zi]) - am * np.diff(M0[zi]))
        alternating_ok &= _decreasing(pp)
        head[lv] = 1.5 * float(pp[0]) if pp.size else np.inf

    al, bl = a_lv[:, None], b_lv[:, None]
    at_zero = a_lv == 0.0
    vals[at_zero] += summed[at_zero, None] * (bl[at_zero] - xs) / bl[at_zero]
    eps = np.where(np.isnan(vals), np.nan, head[:, None] * (bl - xs) / (bl - al))
    periods = max(0, max(counts) - 1)
    if single:
        return OscillatoryResult(vals[0], float(head[0]), eps[0], periods,
                                 alternating_ok)
    return OscillatoryResult(vals, head, eps, periods, alternating_ok)
