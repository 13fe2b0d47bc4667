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

Below an edge a = 0 the sign changes accumulate, so the head of A below
a sign change y_R under every evaluation point is summed, not truncated.
An edge a > 0 with more than _FIRST_DEPTH sign changes above it is summed
the same way unless a point lies below the last of them, y_{k_a} >= a;
then it is resolved down to a.  The head is the window ∫_a^{y_R} (y-a)·w
with a = 0 and k_a = ∞.  The window is S1 - a·S0 at k_a minus the same at
R, plus the partial period between a and y_{k_a}, where S0 and S1 are the
partial sums of the period integrals of ∫w and ∫y·w.  Those periods are an
alternating series plus a one-signed drift (for ex1 the sin² terms of
1/D).  Binomial averaging of the partial sums at sign changes removes the
alternating part, and the power law through the averaged sums at depths
K/4, K/2 and K extrapolates the drift out to k_a (cf. Cohen, Rodriguez
Villegas & Zagier, Exp. Math. 9, 2000; Sidi, *Practical Extrapolation
Methods*, 2003); the drift of S0 also grows by a step per doubling, as for
ex1 at α = 1, which is fitted first.  The certificate is the gap to the
same estimate one depth shallower (K/2) plus the gap to half the
averaging order, and at least the rounding eps·Σ|P_k| of the summed
periods.  K doubles from _FIRST_DEPTH until the certificate meets
``head_budget``, or until k_a <= K and the sum is exact.  The periods are
summed from y_254 on, whatever the points, so K and the certificate do
not depend on the points; where a point lies below y_{K+2}, the main pass
supplies the periods between y_R and y_{K+2}.  A source that vanishes on
the deepest quarter of the periods is taken to vanish below them.  An
edge a < 0 is refused.  These certificates are meaningless for non-alternating integrands (e.g.
|w|), so ``alternating_ok`` is reported with every one: the deepest six
period magnitudes must decrease with depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DomainError, ResolutionInsufficientError
from .green import _panel_moments, _two_moment_levels

__all__ = ["OscillatoryResult", "green_apply_oscillatory"]

FILL_WIDTH = 0.01           # widest panel between sign changes
SUBPANELS_PER_PERIOD = 2    # Gauss panels per sign interval narrower than that
_FIRST_DEPTH = 4096         # deepest sign change of the first summed estimate
_AVERAGING = 4              # binomial averaging order of the partial sums


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
    head_bound: float | np.ndarray  # truncation bound of the summed head (a = 0)
                                    # or window (a > 0) of A
    eps: np.ndarray             # per-point truncation bound propagated from the head
    periods: int                # number of resolved sign intervals
    alternating_ok: bool        # trailing period magnitudes decrease with depth


def _zero_range(alpha: float, lo: float, hi: float, k_cap: int):
    """Indices (k_min, k_max <= k_min + k_cap) of sign changes k^{-1/alpha} in [lo, hi]."""
    k_min = max(1, int(np.ceil(hi ** (-alpha) - 1e-12)))
    if lo > 0.0:
        k_max = int(np.floor(lo ** (-alpha) + 1e-12))
    else:
        k_max = k_min + k_cap
    return k_min, min(k_max, k_min + k_cap)


def _decreasing(pp) -> bool:
    """Whether period magnitudes, deepest first, grow with height (within 25%)."""
    return bool(np.all(pp[:-1] <= pp[1:] * 1.25 + 1e-300))


def _period_sums(w_fn, alpha: float, k0: int, k1: int) -> np.ndarray:
    """(∫w, ∫y·w) over the sign intervals [y_{k+1}, y_k], k0 <= k < k1.

    Each interval takes SUBPANELS_PER_PERIOD Gauss panels.  Intervals that
    underflow to zero width read 0 without evaluating w.
    """
    z = np.arange(k0, k1 + 1, dtype=float) ** (-1.0 / alpha)
    width = z[:-1] - z[1:]
    live = width > 0.0
    edges = (z[1:][live, None] + width[live, None]
             * (np.arange(SUBPANELS_PER_PERIOD + 1) / SUBPANELS_PER_PERIOD))
    sums = np.zeros((2, width.size))
    for row, m in zip(sums, _panel_moments(w_fn, edges[:, :-1].ravel(), edges[:, 1:].ravel())):
        row[live] = m.reshape(-1, SUBPANELS_PER_PERIOD).sum(axis=1)
    return sums


def _power_law(t0, t1, t2, n):
    """t2 plus n more dyadic steps of the geometric drift through t0, t1, t2."""
    d1, d2 = t1 - t0, t2 - t1
    ratio = d2 / d1 if d1 else 0.0
    return t2 + d2 * ratio * (1.0 - ratio ** n) / (1.0 - ratio) if 0.0 < ratio < 1.0 else t2


def _extrapolate(S: np.ndarray, nodes, p: int, n: float = np.inf) -> float:
    """The partial sums S read off nodes at dyadic depths, n depths past the last.

    Order-p binomial averaging centred on each node removes the
    alternating part; the power law through the last three averaged sums
    then extrapolates the one-signed drift.  With four nodes a drift step
    per doubling (a log term), the power-law limit of the steps, is taken
    out first.
    """
    c = p // 2
    weights = np.array([comb(p, i) for i in range(p + 1)]) / 2.0 ** p
    t = [float(weights @ S[n - c:n + c + 1]) for n in nodes]
    if len(t) == 3:
        return _power_law(*t, n)
    step = _power_law(*np.diff(t), np.inf)
    return _power_law(*(t[1:] - step * np.arange(1, 4)), n) + (3 + n) * step


def _estimate(S, r: int, K: int, depth=np.inf, log=False):
    """(S at ``depth``, certificate) from the partial sums S from r on.

    Reads the nodes K/4, K/2, K (and K/8 for a ``log`` step).  The
    certificate is the gap to the estimate from K/2 plus the gap to half
    the averaging order.
    """
    def at(K, p):
        nodes = [K // 8 - r, K // 4 - r, K // 2 - r, K - r][0 if log else 1:]
        return _extrapolate(S, nodes, p, np.log2(depth / K))

    est = at(K, _AVERAGING)
    return est, abs(est - at(K // 2, _AVERAGING)) + abs(est - at(K, _AVERAGING // 2))


def _summed_window(w_fn, alpha, a, k_a, R, k_min, store, head_budget, max_periods):
    """Sum the window ∫_a^{y_D} (y-a)·w, y_{k_a} >= a > y_{k_a+1}, D = min(R, K + 2).

    It is S1 - a·S0 at k_a minus the same at D, plus the partial period
    above a, with S0, S1 the sums of ∫w, ∫y·w from r0 = K/16 - 2 for the
    first K on, which ``store`` shares between levels.  The head of an edge
    a = 0 is the window with k_a = ∞; it needs neither S0 (whose log step
    would read 0·∞) nor a partial period.  The main pass down to y_R
    (R <= k_a) adds the periods between y_R and y_D.  The estimate aims at
    the binomial average of S1 - a·S0 around k_a, which differs from it by
    O(w·|y_{k_a} - y_{k_a+1}|²) since (y-a)·w vanishes at the edge.  K
    doubles up to the ``max_periods`` cap until k_a <= K (exact), w
    vanishes on the deepest quarter of the periods (then the sum down to
    K + 2 is taken as exact), or the certificate, at least the rounding of
    the summed periods, meets ``head_budget``.  Returns (D, window,
    certificate, resolved periods, alternating_ok).
    """
    c = _AVERAGING // 2
    r0, K = _FIRST_DEPTH // 16 - c, _FIRST_DEPTH
    k_cap = max(K, 16 * ((k_min + max_periods - c) // 16))
    ok = True
    while True:
        end = r0 + store[0].shape[1]
        if end < K + c:
            store[0] = np.concatenate([store[0], _period_sums(w_fn, alpha, end, K + c)], axis=1)
            store[1] = np.cumsum(np.pad(store[0], ((0, 0), (1, 0))), axis=1)
        P, S = store
        rounding = np.finfo(float).eps * np.sum(np.abs(P[:, :K + c - r0]), axis=1) @ (a, 1.0)
        if k_a <= K or not np.any(P[:, 3 * K // 4 - r0:K + c - r0]):
            k = min(k_a, K + c)
            win, cert = S[1, k - r0] - a * S[0, k - r0], rounding
            break
        s1, g1 = _estimate(S[1], r0, K, k_a)
        s0, g0 = _estimate(S[0], r0, K, k_a, log=True) if a else (0.0, 0.0)
        win, cert = s1 - a * s0, max(g1 + a * g0, rounding)
        if cert <= head_budget or K == k_cap:
            tail = P[:, K + c - r0 - 6:K + c - r0]
            ok = _decreasing(np.abs(tail[1] - a * tail[0])[::-1])
            break
        K = min(2 * K, k_cap)
    partial = (_panel_moments(w_fn, np.array([a]), np.array([k_a ** (-1.0 / alpha)]),
                              origin=a)[1][0] if a else 0.0)
    D = min(R, K + c)
    return (D, win - (S[1, D - r0] - a * S[0, D - r0]) + partial, cert,
            max(K + c, R) - k_min, ok)


def green_apply_oscillatory(w_fn, alpha: float, xs, a=0.0, b=1.0, *,
                            head_budget: float = 1e-11,
                            max_periods: int = 1_500_000) -> OscillatoryResult:
    """Evaluate (G w)(x) on (a,b) for all x in xs, in ascending order of x.

    ``w_fn`` must accept numpy arrays and be finite on (a,b), and a >= 0.
    For a = 0 the head of A below the evaluation points is summed by series
    acceleration and added to the values; its depth doubles until the
    certificate of that sum drops under ``head_budget`` (or ``max_periods``
    is hit).  For a > 0 the integral is resolved down to a when at most
    _FIRST_DEPTH sign changes lie above a, or a point lies below the last
    of them; otherwise the window below the points is summed the same way,
    to the same budget.  ``max_periods`` caps the sign changes of each
    level, and is at least _FIRST_DEPTH.  These certificates (``eps``,
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
    if a_lv.min() < 0.0:
        raise DomainError("an edge a < 0 is never resolved: the sign changes "
                          "accumulate at 0")
    if xs.size and (xs[0] <= a_lv.min() or xs[-1] >= b_lv.max()):
        raise ResolutionInsufficientError("evaluation points must be interior")

    def checked(y):
        fv = np.asarray(w_fn(y), dtype=float)
        if not np.all(np.isfinite(fv)):
            raise ResolutionInsufficientError("w evaluated non-finite inside (a,b)")
        return fv

    # the sign changes of each level's main pass, and the summed windows
    ranges, counts, store, depths = [], [], [np.zeros((2, 0))] * 2, {}
    head = np.zeros(a_lv.size)
    summed = np.zeros(a_lv.size)
    alternating_ok = True
    cap = max(max_periods, _FIRST_DEPTH)
    for lv, (am, bm) in enumerate(zip(a_lv, b_lv)):
        k_min, k_max = _zero_range(alpha, am, bm, cap)
        resolved, ok, edge = k_max - k_min, True, True
        if k_max > _FIRST_DEPTH:
            # the main pass stops at a sign change y_R below the level's
            # points, and the window from y_R down to a (the head for
            # a = 0) is summed, unless a point lies below y_{k_a}
            above = xs[xs > am]
            k_top = int(np.floor(above[0] ** -alpha)) + 2 if above.size else 1
            R = min(k_max, max(k_top, k_min, _FIRST_DEPTH // 16 - _AVERAGING // 2))
            k_a = int(np.floor(am ** -alpha + 1e-12)) if am > 0.0 else np.inf
            if R < k_a:
                depths[lv], summed[lv], head[lv], resolved, ok = _summed_window(
                    checked, alpha, am, k_a, R, k_min, store, head_budget, cap)
                k_max, edge = R, False
        alternating_ok &= ok
        counts.append(max(0, resolved + 1))
        ranges.append((k_min, k_max, edge))
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
    y_bot = np.array([am if edge else zeros[k_hi - k_max]
                      for (_, k_max, edge), am in zip(ranges, a_lv)])
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

    # summed windows below a point: the periods between y_R and y_D
    for lv, D in depths.items():
        zi = np.searchsorted(breaks, zeros[[k_hi - ranges[lv][1], k_hi - D]])
        summed[lv] -= np.diff(M1[zi])[0] - a_lv[lv] * np.diff(M0[zi])[0]

    al, bl = a_lv[:, None], b_lv[:, None]
    vals += summed[:, None] * (bl - xs) / (bl - al)
    eps = np.where(np.isnan(vals), np.nan, head[:, None] * (bl - xs) / (bl - al))
    periods = max(0, max(counts) - 1)
    if single:
        return OscillatoryResult(vals[0], float(head[0]), eps[0], periods,
                                 alternating_ok)
    return OscillatoryResult(vals, head, eps, periods, alternating_ok)
