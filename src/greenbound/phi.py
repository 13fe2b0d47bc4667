"""The substitution family φ solving φ' = φ^q, φ(0) = 1.

Closed forms: φ(s) = e^s for q = 1, φ(s) = [(1-q)s + 1]^{1/(1-q)} otherwise,
on the natural domain I_q.  For 0 < q < 1 the family is extended to all of R
by truncation, φ(s) = [(1-q)s + 1]_+^{1/(1-q)}.  Endpoint values of the
closure of I_q are evaluated as limits.  q = 1 is dispatched exactly, never
as a limit of the q != 1 formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["PhiFamily", "phi_eval", "phi_inverse", "phi_derivs"]

ENDPOINT_SNAP = 1e-14


@dataclass(frozen=True)
class PhiFamily:
    """Parameter bundle for the substitution with exponent q != 0."""

    q: float

    def __post_init__(self):
        if not np.isfinite(self.q) or self.q == 0.0:
            raise DomainError(f"q must be a nonzero finite real, got {self.q}")

    @property
    def domain(self) -> tuple[float, float]:
        """Endpoints of I_q (open at finite ends, extended reals)."""
        q = self.q
        if q == 1.0:
            return (-np.inf, np.inf)
        if q > 1.0:
            return (-np.inf, 1.0 / (q - 1.0))
        return (-1.0 / (1.0 - q), np.inf)

    @property
    def regime(self) -> str:
        q = self.q
        if q < 0:
            return "q<0"
        if q < 1:
            return "0<q<1"
        if q == 1:
            return "q=1"
        return "q>1"

    @property
    def truncated(self) -> bool:
        """True when φ is extended to all of R by [.]_+ (0 < q < 1)."""
        return 0.0 < self.q < 1.0


def _snap(s: np.ndarray, fam: PhiFamily) -> np.ndarray:
    """Clamp inputs within ENDPOINT_SNAP of a finite domain endpoint."""
    lo, hi = fam.domain
    s = np.array(s, dtype=float, copy=True)
    if np.isfinite(lo):
        tol = ENDPOINT_SNAP * max(1.0, abs(lo))
        s[np.abs(s - lo) <= tol] = lo
    if np.isfinite(hi):
        tol = ENDPOINT_SNAP * max(1.0, abs(hi))
        s[np.abs(s - hi) <= tol] = hi
    return s


def _as_given(x: np.ndarray, scalar: bool):
    return float(np.asarray(x).ravel()[0]) if scalar else x


def _phi_of_bracket(fam: PhiFamily, t):
    """φ read off its bracket t = (1-q)s + 1 (q != 1): t^{1/(1-q)}.

    Truncated at t = 0 when 0 < q < 1.  Elsewhere a negative t gives nan,
    so a caller passing brackets outside the closure of I_q masks them.
    Taking t directly keeps a bracket that is small against 1 exact; it is
    never rebuilt as 1 + (1-q)s from an s near the finite end of I_q.
    """
    if fam.truncated:
        t = np.maximum(t, 0.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return t ** (1.0 / (1.0 - fam.q))


def phi_eval(fam: PhiFamily, s):
    """φ(s); accepts scalars or arrays of extended reals.

    Inputs may touch the closure of I_q (limits are returned); for
    0 < q < 1 every real s is accepted via the truncated extension.
    Anything strictly outside raises DomainError.
    """
    scalar = np.isscalar(s) or np.ndim(s) == 0
    q = fam.q
    s = _snap(np.atleast_1d(np.asarray(s, dtype=float)), fam)
    if q == 1.0:
        with np.errstate(over="ignore"):
            return _as_given(np.exp(s), scalar)
    t = (1.0 - q) * s + 1.0
    if not fam.truncated and np.any(t < 0):
        lo, hi = fam.domain
        raise DomainError(f"s outside closure of I_q=({lo},{hi}) for q={q}")
    out = _phi_of_bracket(fam, t)
    # (1-q)s+1 evaluates to nan at s = -inf (q<1) / +inf (q>1); both map to
    # the same limit as t -> +inf.
    bad = np.isnan(out) & np.isinf(s)
    if np.any(bad):
        out[bad] = 0.0 if q > 1.0 else np.inf
    return _as_given(out, scalar)


def phi_inverse(fam: PhiFamily, t):
    """φ^{-1}(t) for t > 0; t = 0 is the continuous extension when q < 1."""
    scalar = np.isscalar(t) or np.ndim(t) == 0
    q = fam.q
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t < 0):
        raise DomainError("phi_inverse needs t >= 0")
    if np.any((t == 0) & (q >= 1.0)):
        raise DomainError("phi_inverse(0) only extends continuously for q < 1")
    if q == 1.0:
        return _as_given(np.log(t), scalar)
    with np.errstate(divide="ignore"):
        out = (t ** (1.0 - q) - 1.0) / (1.0 - q)
    # t=0, q<1: t^{1-q}=0 -> -1/(1-q); t=inf: limit 1/(q-1) for q>1, inf else
    inf_t = np.isinf(t)
    if np.any(inf_t):
        out[inf_t] = 1.0 / (q - 1.0) if q > 1.0 else np.inf
    return _as_given(out, scalar)


def phi_derivs(fam: PhiFamily, s):
    """(φ'(s), φ''(s)) on the open interior of I_q.

    φ' = [(1-q)s+1]^{q/(1-q)} and φ'' = q [(1-q)s+1]^{(2q-1)/(1-q)}, so
    φ' = φ^q always and sign(φ'') = sign(q).
    """
    scalar = np.isscalar(s) or np.ndim(s) == 0
    q = fam.q
    s = np.atleast_1d(np.asarray(s, dtype=float))
    lo, hi = fam.domain
    if np.any(s <= lo) or np.any(s >= hi):
        raise DomainError(f"phi_derivs needs s strictly inside I_q=({lo},{hi})")
    if q == 1.0:
        e = np.exp(s)
        return _as_given(e, scalar), _as_given(e.copy(), scalar)
    t = (1.0 - q) * s + 1.0
    d1 = t ** (q / (1.0 - q))
    d2 = q * t ** ((2.0 * q - 1.0) / (1.0 - q))
    return _as_given(d1, scalar), _as_given(d2, scalar)
