"""Reference values the benchmark checks greenbound's outputs against.

Everything here is independent of greenbound's own quadrature: Green
potentials of power sources come from exact monomial integrals, smooth
potentials from the two running moments of the closed-form kernel, scalar
fixed points from bisection, and the finite/infinite verdicts from the
integrability thresholds of the paper.

Known defects of the code under test are named here, each with the input
window where it shows, so a failed check can be attributed to one of them
or reported as unexpected.
"""

from __future__ import annotations

import math

import numpy as np

# The boundary-panel divergence test declares +inf once three dyadic shell
# increments keep a ratio >= 0.9.  For a source ~ d^{-e} weighted by d^k the
# ratio is 2^{e-k-1}, so every e in [k + 1 + log2(0.9), k + 1) -- 1.848 for
# the potential (k = 1), 2.848 for the iterated kernel (k = 2) -- is
# reported infinite although the integral is finite.  Through an attached
# expression the right edge is evaluated at b - d, which loses digits in the
# deep shells; there the window was measured to open at 1.834 and 2.822.
POTENTIAL_WINDOW = (1.82, 2.0)
ITERATED_WINDOW = (2.81, 3.0)

KNOWN_DEFECTS = {
    "potential_inf_below_threshold":
        "potential reports +-inf for a weight exponent in [1.848, 2), "
        "where the integral is finite",
    "potential_inf_from_two_node_estimate":
        "a value-only weight whose two innermost nodes fit a power d^{-s} "
        "with s >= 1.848 is reported +-inf although its exponent is below 2",
    "iterated_kernel_not_integrable_below_threshold":
        "iterated_kernel raises NotIntegrableError for beta in [2.848, 3), "
        "where the integral is finite",
    "tangency_unconverged":
        "solve_integral_equation does not converge at c = a* for q in "
        "{-2, 2, 3}",
    "improper_singular_source_inaccurate":
        "the exhaustion of an endpoint-singular source with beta >= 0.9 "
        "misses the proper potential by more than 1%",
}


def in_potential_defect_window(exponent: float) -> bool:
    """Weight exponent e (source ~ d^{-e}) where the +inf verdict is wrong."""
    return POTENTIAL_WINDOW[0] <= exponent < POTENTIAL_WINDOW[1]


def in_iterated_defect_window(beta: float) -> bool:
    return ITERATED_WINDOW[0] <= beta < ITERATED_WINDOW[1]


def two_node_exponent(w1: float, w2: float) -> float:
    """Exponent s of w ~ d^{-s} seen through the two innermost nodes, as the
    value-only boundary extrapolation estimates it."""
    if not (w1 > 0.0 and w2 > 0.0) and not (w1 < 0.0 and w2 < 0.0):
        return 0.0
    return math.log2(w1 / w2)


# ---------------------------------------------------------------------------
# exact integrals of polynomial x power sources
# ---------------------------------------------------------------------------

def _power_integral(p: float, beta: float, lo: float, hi: float) -> float:
    """∫_lo^hi t^{p-beta} dt for 0 <= lo <= hi, finite when p - beta > -1."""
    e = p + 1.0 - beta
    if hi <= lo:
        return 0.0
    if lo == 0.0:
        if e <= 0.0:
            return math.inf
        return hi ** e / e
    # lo^e * expm1(e log(hi/lo)) / e stays accurate as e -> 0
    r = math.log(hi / lo)
    if abs(e) < 1e-12:
        return r
    return lo ** e * math.expm1(e * r) / e


def poly_power_integral(coeffs, beta: float, lo: float, hi: float) -> float:
    """∫_lo^hi (Σ_k c_k t^k) t^{-beta} dt."""
    return sum(c * _power_integral(k, beta, lo, hi)
               for k, c in enumerate(coeffs) if c != 0.0)


def _shift(coeffs, s: float, sign: float):
    """Coefficients of P(s + sign * t) as a polynomial in t."""
    out = np.zeros(len(coeffs))
    for k, c in enumerate(coeffs):
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * s ** (k - j) * sign ** j
    return out


def _edge_integral(coeffs, beta: float, lo: float, hi: float,
                   side: str) -> float:
    """∫_lo^hi P(z) d_side(z)^{-beta} dz on (0,1), d_left = z, d_right = 1-z."""
    if side == "left":
        return poly_power_integral(coeffs, beta, lo, hi)
    return poly_power_integral(_shift(coeffs, 1.0, -1.0), beta, 1.0 - hi, 1.0 - lo)


def _kernel_pieces(x: float):
    """G(x, z) on (0,1) as [(lo, hi, coefficients in z)] split at the kink."""
    return [(0.0, x, (0.0, 1.0 - x)), (x, 1.0, (x, -x))]


def _split(pieces, cut: float):
    out = []
    for lo, hi, c in pieces:
        if lo < cut < hi:
            out += [(lo, cut, c), (cut, hi, c)]
        else:
            out.append((lo, hi, c))
    return out


def power_source_potential(x: float, beta: float, sided: str) -> float:
    """(G s)(x) on (0,1) for s = d^{-beta}.

    ``sided`` is "left" (s = x^{-beta}), "right" (s = (1-x)^{-beta}) or
    "two" (s = min(x, 1-x)^{-beta}).  Returns inf when beta >= 2.
    """
    if beta >= 2.0:
        return math.inf
    total = 0.0
    for lo, hi, c in _split(_kernel_pieces(x), 0.5):
        if sided == "two":
            side = "left" if hi <= 0.5 else "right"
        else:
            side = sided
        total += _edge_integral(c, beta, lo, hi, side)
    return total


def half_source_potential(x: float, beta: float, half: str) -> float:
    """(G s)(x) for s = d^{-beta} restricted to one half of (0,1)."""
    if beta >= 2.0:
        return math.inf
    lo_h, hi_h = (0.0, 0.5) if half == "left" else (0.5, 1.0)
    total = 0.0
    for lo, hi, c in _split(_kernel_pieces(x), 0.5):
        lo, hi = max(lo, lo_h), min(hi, hi_h)
        if hi > lo:
            total += _edge_integral(c, beta, lo, hi, half)
    return total


def iterated_power_kernel(x: float, y: float, beta: float) -> float:
    """∫ G(x,z) G(z,y) min(z,1-z)^{-beta} dz on (0,1); inf when beta >= 3."""
    if beta >= 3.0:
        return math.inf
    total = 0.0
    for lo, hi, c1 in _split(_kernel_pieces(x), 0.5):
        for lo2, hi2, c2 in _kernel_pieces(y):
            a, b = max(lo, lo2), min(hi, hi2)
            if b <= a:
                continue
            prod = np.polynomial.polynomial.polymul(c1, c2)
            side = "left" if b <= 0.5 else "right"
            total += _edge_integral(prod, beta, a, b, side)
    return total


# ---------------------------------------------------------------------------
# smooth potentials, bounds and scalar fixed points
# ---------------------------------------------------------------------------

def green_apply(nodes: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Split-trapezoid G g at the nodes from the two running moments.

    (G g)(x_i) = [(b-x_i) Σ_{j<=i} (y_j-a) g_j w_j
                  + (x_i-a) Σ_{j>i} (b-y_j) g_j w_j] / (b-a),
    the same quadrature as the dense kernel product, in O(n).
    """
    a, b = float(nodes[0]), float(nodes[-1])
    dx = (b - a) / (nodes.size - 1)
    w = np.full(nodes.size, dx)
    w[0] = w[-1] = dx / 2.0
    gw = g * w
    left = np.cumsum((nodes - a) * gw)
    right = np.cumsum(((b - nodes) * gw)[::-1])[::-1]
    right = np.concatenate([right[1:], [0.0]])
    out = ((b - nodes) * left + (nodes - a) * right) / (b - a)
    out[0] = out[-1] = 0.0
    return out


def regime_bound(q: float, h: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """h·φ(-ratio) per regime, nan where a required bracket is not positive."""
    bracket = 1.0 + (q - 1.0) * ratio
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if q == 1.0:
            return h * np.exp(-ratio)
        if 0.0 < q < 1.0:
            return h * np.maximum(bracket, 0.0) ** (1.0 / (1.0 - q))
        ok = bracket > 1e-12
        expo = -1.0 / (q - 1.0) if q > 1.0 else 1.0 / (1.0 - q)
        return np.where(ok, h * np.where(ok, bracket, 1.0) ** expo, np.nan)


def sharp_constants(q: float) -> tuple[float, float]:
    """(a*, x*) = ((1-1/q)^q / |1-q|, q/(q-1)) for q > 1 or q < 0."""
    return (1.0 - 1.0 / q) ** q / abs(1.0 - q), q / (q - 1.0)


def scalar_fixed_point(q: float, c: float) -> float:
    """Root of x = 1 - c x^q (q < 0, largest in (0,1]) or x = 1 + c x^q
    (q > 1, smallest >= 1), reached by monotone iteration from 1."""
    a_star, x_star = sharp_constants(q)
    if c >= a_star:
        return x_star
    # F(x) = x - 1 ± c x^q changes sign once on the bracket between 1 and
    # x*, from negative below the root to positive above it
    sign = 1.0 if q < 0.0 else -1.0
    lo, hi = (x_star, 1.0) if q < 0.0 else (1.0, x_star)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - 1.0 + sign * c * mid ** q > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# paper thresholds for the scenario families
# ---------------------------------------------------------------------------

def ex4_weight_exponent(q: float, gamma: float) -> float:
    """Boundary exponent e of h^q V ~ d^{-e} for u = λ(1-x²)^γ (γ != 1)."""
    return 2.0 - gamma * (1.0 - q) - q


def relerr(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale
