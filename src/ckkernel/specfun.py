"""Special functions with explicit error contracts.

Bessel J of half-integer order via the ascending power series (small
arguments only, which is all the kernel series ever needs), the classical
power envelope |J_nu(x)| <= (x/2)^nu / Gamma(nu+1), and the upper
incomplete gamma function used by the completed-L sums.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import DomainError, PrecisionError
from .ntheory import ValueWithError

__all__ = [
    "HalfIntOrder",
    "bessel_j",
    "bessel_envelope",
    "upper_incomplete_gamma",
]

# 2^-52, the unit in which every module counts its roundings
_EPS = 2.220446049250313e-16
# Largest argument the ascending-series contract covers.  Beyond this the
# partial sums grow enough that the float-cancellation budget is no longer
# comfortably below the certified tail bounds.
MAX_SERIES_ARG = 16.0
# math.gamma "proved accurate to within <= 10 ulps across the entire float
# domain" in random tests (CPython, Modules/mathmodule.c): within _GAMMA_ULPS
# _EPS of Gamma(s), relatively.
_GAMMA_ULPS = 10.0


@dataclass(frozen=True)
class HalfIntOrder:
    """A half-integer Bessel order nu = twice_nu / 2 with twice_nu odd."""

    twice_nu: int

    def __post_init__(self):
        if self.twice_nu < 1 or self.twice_nu % 2 == 0:
            raise DomainError(f"twice_nu must be odd and >= 1, got {self.twice_nu}")

    @property
    def nu(self) -> float:
        return self.twice_nu / 2.0

    @classmethod
    def for_weight(cls, k: int) -> "HalfIntOrder":
        """The order (k-1)/2 attached to an even weight k."""
        return cls(k - 1)


def bessel_envelope(nu: HalfIntOrder, x: float) -> float:
    """The classical bound (x/2)^nu / Gamma(nu + 1) on |J_nu(x)|, x >= 0."""
    if x < 0:
        raise DomainError(f"bessel_envelope requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    return math.exp(nu.nu * math.log(x / 2.0) - _lgamma_order_plus_one(nu.twice_nu))


@functools.lru_cache(maxsize=128)
def _lgamma_order_plus_one(twice_nu: int) -> float:
    """ln Gamma(nu + 1) for nu = twice_nu / 2, the constant of every J_nu term."""
    return math.lgamma(twice_nu / 2.0 + 1.0)


def bessel_j(nu: HalfIntOrder, x: float) -> ValueWithError:
    """J_nu(x) by the ascending series, with a certified truncation bound.

    sum_{j>=0} (-1)^j (x/2)^(nu+2j) / (j! Gamma(nu+j+1)).  The series is
    alternating; once the term ratio drops below 1 it is also decreasing,
    so the first omitted term bounds the tail.  Truncation stops only in
    that regime, which every x <= MAX_SERIES_ARG reaches quickly.

    No partial sum exceeds the largest term, so max_abs, the scale of the
    (j + 2) _EPS max_abs charged for the float sums (each of the j additions
    is within _EPS / 2 of a |total| <= max_abs), needs only the terms.  In
    exact arithmetic: while |terms| rise, each sum lies between 0 and the
    last term, as it is that term plus a smaller amount of the other sign;
    once they fall, all later sums are nested between two consecutive ones.
    In floats: let b_i be the computed |term| and P_i the computed sum
    signed like term i.  Terms alternate exactly, so P_(i+1) =
    fl(b_(i+1) - P_i).  The computed ratio does not rise with i (rounding
    is monotone), so b rises up to a peak b_p = M and then falls, strictly,
    as fl(b r) < b for r < 1 and normal b.  While b rises, P_i is in
    [0, b_i]: b_(i+1) - P_i is in [0, b_(i+1)], whose ends are floats.
    From p on, P_i is in [L_i, M], L_i = fl(b_i - M) >= -M:
    P_(i+1) >= fl(b_(i+1) - M), and b_(i+1) - L_i <= M + U/2 -
    (b_i - b_(i+1)) < M + U/2, U the float spacing above M, which rounds to
    at most M.  A subnormal b (no strict fall) is below U/2, which keeps
    the inequality strict, unless M < 2^-969; there max_abs may miss one
    ulp of M, a second-order (j + 2) _EPS^2 M the bar, first order in
    _EPS, does not track.
    """
    if x <= 0:
        raise DomainError(f"bessel_j requires x > 0, got {x}")
    if x > MAX_SERIES_ARG:
        raise DomainError(
            f"bessel_j ascending-series contract covers x <= {MAX_SERIES_ARG}, got {x}"
        )
    v = nu.twice_nu / 2.0
    half = x / 2.0
    q = half * half
    lg0 = v * math.log(half) - _lgamma_order_plus_one(nu.twice_nu)
    term = math.exp(lg0)
    # the leading term's exp argument carries ~|lg0| ulps of rounding
    lead_err = abs(lg0) * _EPS * term
    total = term
    max_abs = abs(term)
    j = 0
    while True:
        ratio = q / ((j + 1) * (v + j + 1))
        term = -term * ratio
        tail = abs(term)  # at the break, the first omitted term
        if ratio < 1.0 and tail <= 1e-18 * abs(total) + 5e-324:
            break
        total += term
        if tail > max_abs:
            max_abs = tail
        j += 1
        if j > 500:
            raise PrecisionError("bessel_j series failed to converge")
    float_err = (j + 2) * _EPS * max_abs + lead_err
    return ValueWithError(total, tail + float_err)


def _upper_gamma_cf(s: float, x: float) -> tuple[float, float]:
    """Gamma(s, x) by the Lentz continued fraction, for x >= s + 1.

    Returns (value, abs_err).
    """
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, 400):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    else:
        raise PrecisionError("incomplete-gamma continued fraction failed to converge")
    slx = s * math.log(x)
    lg = slx - x
    value = math.exp(lg) * h if lg > -745 else 0.0
    # the exp argument carries ~(|s ln x| + x) ulps of rounding, and each of
    # the i steps up to 2 ulps (63 ulps were measured after ~90 steps near
    # x = s + 1, small s)
    return value, (20.0 + 2.0 * i + abs(slx) + x) * _EPS * abs(value) + 5e-324


def _lower_gamma_series(s: float, x: float) -> tuple[float, float]:
    """gamma(s, x) (lower) by the ascending series, for x < s + 1."""
    term = 1.0 / s
    if not math.isfinite(term):
        # s below ~5.6e-309: the stop test relative to 1/s could never hold
        raise PrecisionError(f"1/s overflows for s = {s}: Gamma(s) is past the float range")
    terms = [term]
    k = 1
    while True:
        term *= x / (s + k)
        terms.append(term)
        if term < 1e-17 * terms[0]:
            break
        k += 1
        if k > 10_000:
            raise PrecisionError("lower incomplete-gamma series failed to converge")
    slx = s * math.log(x)
    value = math.exp(slx - x) * math.fsum(terms)
    return value, (8.0 + abs(slx) + x) * _EPS * abs(value)


def upper_incomplete_gamma(s: float, x: float) -> ValueWithError:
    """Gamma(s, x) = integral_x^inf t^(s-1) e^-t dt, for 0 < s <= 60, x > 0."""
    if not (s > 0 and x > 0):
        raise DomainError("upper_incomplete_gamma requires s > 0 and x > 0")
    if s > 60:
        raise DomainError(f"upper_incomplete_gamma contract covers s <= 60, got {s}")
    if x >= s + 1.0:
        value, err = _upper_gamma_cf(s, x)
        return ValueWithError(value, err)
    lower, lerr = _lower_gamma_series(s, x)
    full = math.gamma(s)
    value = full - lower
    # cancellation is mild here (x < s+1 keeps lower/full away from 1); the
    # difference rounds once
    err = lerr + _GAMMA_ULPS * _EPS * full + _EPS * abs(value)
    return ValueWithError(value, err)
