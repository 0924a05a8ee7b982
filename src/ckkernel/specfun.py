"""Special functions with explicit error contracts.

Bessel J of half-integer order via the ascending power series (small
arguments only, which is all the kernel series ever needs), in floats and,
at the kernel's arguments n pi / m, in exact fixed point; a float at or
above the classical power envelope |J_nu(x)| <= (x/2)^nu / Gamma(nu+1);
and the upper incomplete gamma function used by the completed-L sums.
The float series and the envelope take one leading term, (x/2)**nu /
Gamma(nu + 1) by one pow and one quotient, charged 4 _EPS relatively;
the series then rises while its ratio is at least 1 and falls to one
fixed stop threshold.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .errors import DomainError, PrecisionError, _integer
from .ntheory import ValueWithError, _alternating_fixed, _pi_power_fixed, _unchecked

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
# The least Bessel argument: from it on x / 2 >= 2^-1022 is a normal float, so
# halving x is exact, which the leading terms' charges assume
_MIN_ARG = 2.0**-1021
# Gamma(nu + 1) is a finite float up to nu = 341 / 2 (Gamma(172.5) > 1.8e308)
_MAX_TWICE_NU = 341
# bessel_j's steps: at x <= MAX_SERIES_ARG its term j, (x/2)^(nu+2j) /
# (j! Gamma(nu+j+1)), is below 2^-1075 / 1.01 from j = 177 on for every nu (the
# largest at nu = 1/2), so the float term is 0 or 5e-324 there, which stops it
_BESSEL_STEPS = 192


@dataclass(frozen=True)
class HalfIntOrder:
    """A half-integer Bessel order nu = twice_nu / 2 with twice_nu odd and >= 1
    (an integral float is stored as the int), with the constants of every
    J_nu term taken once: the double factorial twice_nu!!, Gamma(nu + 1) =
    twice_nu!! sqrt(pi) / 2^((twice_nu + 1) / 2) from it, within 2 _EPS,
    and the step denominators (j + 1)(nu + j + 1), j < _BESSEL_STEPS, of
    `bessel_j`, each an exact float.  `PrecisionError` past twice_nu = 341,
    where Gamma(nu + 1) leaves the float range."""

    twice_nu: int
    double_factorial: int = field(init=False, repr=False, compare=False)
    gamma_nu_plus_one: float = field(init=False, repr=False, compare=False)
    step_denominators: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        twice_nu = _integer("twice_nu", self.twice_nu, 1, 2)
        if twice_nu > _MAX_TWICE_NU:
            bits = twice_nu.bit_length()
            raise PrecisionError(f"a Bessel order of {bits} bits is past the float range")
        object.__setattr__(self, "twice_nu", twice_nu)
        df = math.prod(range(twice_nu, 0, -2))
        object.__setattr__(self, "double_factorial", df)
        # the int quotient and the product round once each, and sqrt(math.pi)
        # is within 0.6 _EPS of sqrt(pi)
        gamma = df / (1 << (twice_nu + 1) // 2) * math.sqrt(math.pi)
        object.__setattr__(self, "gamma_nu_plus_one", gamma)
        v = twice_nu / 2.0
        steps = tuple([i * (v + i) for i in range(1, _BESSEL_STEPS + 1)])
        object.__setattr__(self, "step_denominators", steps)

    @property
    def nu(self) -> float:
        return self.twice_nu / 2.0

    @classmethod
    @functools.lru_cache(maxsize=32)
    def for_weight(cls, k: int) -> "HalfIntOrder":
        """The order (k-1)/2 attached to an even weight k, built once per k."""
        return cls(k - 1)


def bessel_envelope(nu: HalfIntOrder, x: float) -> float:
    """An upper bound on (x/2)^nu / Gamma(nu + 1), the classical bound on
    |J_nu(x)|, for x = 0 and 2^-1021 <= x <= MAX_SERIES_ARG.

    Its leading term is `bessel_j`'s, (x/2)**nu / Gamma(nu + 1) in floats,
    within 3.5 _EPS of it relatively less second-order amounts (pow's ulp,
    Gamma's 2 _EPS and the quotient's half ulp).  It is multiplied by
    1 + 6 _EPS, an exact float, and the product rounds by _EPS / 2, which
    leaves at least 1 + 2 _EPS less second-order amounts.  In the subnormal
    range those roundings are absolute instead, at most 2.2 units of 5e-324
    (pow's ulp over Gamma(nu + 1) >= 0.88, the quotient's and the product's
    half units), and three units are added.
    `DomainError` for x < 0, 0 < x < 2^-1021, where x / 2 may round, x past
    MAX_SERIES_ARG or a NaN x.
    """
    if x == 0.0:
        return 0.0
    if not _MIN_ARG <= x <= MAX_SERIES_ARG:
        raise DomainError(
            f"bessel_envelope requires x = 0 or 2^-1021 <= x <= {MAX_SERIES_ARG}, got {x}"
        )
    half = x / 2.0
    return half ** (nu.twice_nu / 2.0) / nu.gamma_nu_plus_one * (1.0 + 6.0 * _EPS) + 1.5e-323


def bessel_j(nu: HalfIntOrder, x: float) -> ValueWithError:
    """J_nu(x) by the ascending series, with a certified truncation bound,
    for 2^-1021 <= x <= MAX_SERIES_ARG, where x / 2 is exact.

    sum_{j>=0} (-1)^j (x/2)^(nu+2j) / (j! Gamma(nu+j+1)).  The leading term
    is (x/2)**nu / Gamma(nu + 1) in floats, pow within an ulp (glibc's pow,
    like its exp, log and cos, is documented below 1 ULP), Gamma(nu + 1)
    within 2 _EPS (`HalfIntOrder`) and the quotient within _EPS / 2: within
    3.5 _EPS relatively, and 4 _EPS covers the second-order parts.  Step j
    multiplies the term by the ratio (x/2)^2 / d_j, d_j = (j + 1)(nu + j + 1)
    read from nu's `step_denominators`.  The series runs in two phases.
    The rising phase, at hump arguments only, takes the steps while
    (x/2)^2 >= d_j, where the terms do not fall; it ends at the peak term,
    whose size is max_abs.  In the falling phase every later ratio is below
    1, as d_j rises with j, so the series is alternating and decreasing and
    the first omitted term bounds the tail.  It has no ratio or max_abs test:
    it stops at the first term within 1e-19 max_abs + 5e-324 of 0, one
    chained comparison per step, and charges that term in full.  Every
    x <= MAX_SERIES_ARG stops within _BESSEL_STEPS steps; a NaN x never
    does, and raises `PrecisionError`.

    No partial sum exceeds the largest term, so max_abs, the scale of the
    (j + 2) _EPS max_abs charged for the float sums (each of the j additions
    is within _EPS / 2 of a |total| <= max_abs), needs only the peak.  In
    exact arithmetic: while |terms| rise, each sum lies between 0 and the
    last term, as it is that term plus a smaller amount of the other sign;
    once they fall, all later sums are nested between two consecutive ones.
    In floats: let b_i be the computed |term| and P_i the computed sum
    signed like term i.  Terms alternate exactly, so P_(i+1) =
    fl(b_(i+1) - P_i).  The computed ratio does not rise with i (rounding
    is monotone), so b rises up to a peak b_p = M and then does not rise,
    as fl(b r) <= b for r <= 1; that peak is the last term of the rising
    phase, or the leading term, and is max_abs.  While b rises, P_i is in
    [0, b_i]: b_(i+1) - P_i is in [0, b_(i+1)], whose ends are floats.
    From p on, P_i is in [L_i, M], L_i = fl(b_i - M) >= -M:
    P_(i+1) >= fl(b_(i+1) - M), and b_(i+1) - L_i <= M + U/2 -
    (b_i - b_(i+1)) < M + U/2, U the float spacing above M, which rounds to
    at most M, as b falls strictly: fl(b r) < b for r < 1 and normal b.
    Only the first falling ratio, just below 1, can round to 1; there b_i =
    M and L_i = 0, so b_(i+1) - L_i = M.  A subnormal b (no strict fall) is
    below U/2, which keeps the inequality strict, unless M < 2^-969; there
    max_abs may miss one ulp of M, a second-order (j + 2) _EPS^2 M the bar,
    first order in _EPS, does not track.

    Below 2^-1022 roundings are absolute, in units of u = 5e-324, and the
    charges above may round to 0, so the bar adds (j + 2) u to the sums'
    charge and 2 u to the leading term's.  If the leading term is that
    small, (x/2)^nu < 2^-1022 Gamma(nu + 1) gives x/2 < 1.005 for every
    order, so each ratio is below 0.006, the terms fall from the first and
    j < 8.  The leading term is then off by pow's ulp over Gamma(nu + 1) >=
    0.88 and the quotient's half unit, 1.64 u; each of the j + 1 products,
    the omitted term's last, by u/2, carried into later terms at most
    1.006-fold; sums of subnormals and their small multiples are exact.
    That is at most 1.006 (1.64 + (j + 1)/2) u, below the (j + 2) u/2 +
    1.5 u the two added amounts keep after the two charges' own roundings:
    where the leading term underflows, as for J_39.5(1e-8) ~ 1e-375, the
    bar still holds J.  If it is normal, those charges round relatively,
    and the (j + 4) u added covers the j + 1 products.
    """
    if x < _MIN_ARG:  # x <= 0, or x / 2 may round
        raise DomainError(f"bessel_j requires x >= 2^-1021, where x / 2 is exact, got {x}")
    if x > MAX_SERIES_ARG:
        raise DomainError(
            f"bessel_j ascending-series contract covers x <= {MAX_SERIES_ARG}, got {x}"
        )
    half = x / 2.0
    q = half * half
    term = half ** (nu.twice_nu / 2.0) / nu.gamma_nu_plus_one
    lead_err = 4.0 * _EPS * term + 1e-323
    total = term  # >= 0
    steps = nu.step_denominators
    j = 0
    while q >= steps[j]:  # the rising phase
        term = -term * (q / steps[j])
        total += term
        j += 1
    max_abs = abs(term)
    hi = 1e-19 * max_abs + 5e-324
    lo = -hi
    nq = -q  # term * (-q / d) is -term * (q / d), bit for bit
    for j in range(j, _BESSEL_STEPS):
        term *= nq / steps[j]
        if lo <= term <= hi:  # at the break, the first omitted term
            break
        total += term
    else:
        raise PrecisionError("bessel_j series failed to converge")
    # the bar is finite and >= 0, so ValueWithError's check is skipped
    return _unchecked(total, abs(term) + ((j + 2) * (_EPS * max_abs + 5e-324) + lead_err))


def _bessel_factor_fixed(nu: HalfIntOrder, n: int, m: int) -> tuple[int, int]:
    """A fixed-point bracket (see `ntheory`) of sqrt(2 pi x) J_nu(x) at x = n pi / m.

    With nu = l + 1/2 and Gamma(l + 3/2) = (2l+1)!! sqrt(pi) / 2^(l+1), the
    ascending series is

        sqrt(2 pi x) J_nu(x) = 2 sum_j (-1)^j x^(l+1+2j) / ((2j)!! (2l+2j+1)!!),

    a polynomial in pi, summed by `ntheory._alternating_fixed` from its
    leading term 2 x^(l+1) / (2l+1)!! with the term ratio
    x^2 / ((2j + 2)(2l + 2j + 3)).  In integers its terms cancel without
    loss, where the float series of `bessel_j` loses up to 5 digits at
    x = 5 pi: the bracket is about 2^-95 wide at any x <= MAX_SERIES_ARG.
    """
    l = nu.twice_nu // 2
    p = l + 1
    lead = _pi_power_fixed(2 * n**p, nu.double_factorial * m**p, p)
    return _alternating_fixed(lead, _pi_power_fixed(n * n, m * m, 2), 2, 2 * l + 3)


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
