"""Central and near-central Hecke L-values via incomplete-gamma sums.

The completed value Lambda(f, s) = (2 pi)^-s Gamma(s) L(f, s) is computed
from the Mellin integral split symmetrically at t = 1:

    Lambda(f, s) = sum_n a_n [ (2 pi n)^-s Gamma(s, 2 pi n)
                               + (-1)^(k/2) (2 pi n)^(s-k) Gamma(k-s, 2 pi n) ].

The symmetric split makes the two halves exchange exactly under
s <-> k - s.  Each half is one series G(t) = sum_n a_n (2 pi n)^-t
Gamma(t, 2 pi n), summed by `gamma_series` with a certified rounding bar
and a Deligne tail from `deligne_tail`; `petersson` sums its Parseval
series with the same two.  Every s is an integer, the center k/2 and the
points within 2 of it, so each Gamma(t, x) has the closed form of
`specfun.upper_incomplete_gamma`, and the conversion (2 pi)^s / (s-1)! to
L(f, s) is one rounding of the 256-bit pi bracket of `ntheory`.

What a term takes from (s, lam, p, n) alone, x^-s and Gamma(s, x) at
x = lam n, its charge and its Deligne tail, is memoized per key
(s, lam, p) by `_gamma_row`, an `lru_cache` of 64 rows, each holding the
terms up to where the unit series stops, none past x = 708 and at most
_MAX_COUNT // 64 of them; every sum reads its terms there alone.  A row
holds the doubles a sum would make, by the same float operations, so
sharing changes no bit: all forms of weight k share (k/2, 2 pi, (k + 1)/2)
for `completed_l` at the center and (k - 1, 4 pi, k + 1) for
`petersson`'s Parseval sum.

How many coefficients are enough is one rule, `deligne_count`; at weight k
it gives `coefficient_count(k)`, within which every one of these sums stops,
and `central_values(k, eps)` builds its eigenforms with that many.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from dataclasses import dataclass

from .errors import _MAX_COUNT, DomainError, PrecisionError, _integer
from .ntheory import _FIX_BITS, ValueWithError, _pi_power_fixed
from .qexpansion import Eigenform, eigenforms
from .specfun import _EPS, _MAX_X, upper_incomplete_gamma

__all__ = [
    "LValue",
    "completed_l",
    "central_values",
    "coefficient_count",
]


@dataclass(frozen=True)
class LValue:
    """A completed and finite L-value at an integer point s."""

    k: int
    s: int
    completed: ValueWithError
    finite: ValueWithError
    terms_used: int


def deligne_tail(p: float, c: float, n0: int) -> float:
    """A bound on sum_{n >= n0} n^p e^(-c n), p >= 0: the first term over
    1 - ((n0 + 1)/n0)^p e^-c, as the term ratio falls with n.

    `DomainError` unless p >= 0 (nan included), as for p < 0 the ratio rises
    with n, so that quotient is no bound, and unless n0 is an integer >= 1.
    `PrecisionError` unless that ratio is below 1 and the whole bound, first
    term over 1 - ratio, within the float range.  Both are first tested in
    logarithms, the ratio's with c <= 700 and the first term's before either
    power, so nothing overflows whatever p and n0 are.  The float result is
    rounded up past its own error: 2 (p ln n0 + c n0) _EPS in the exponent,
    (p/2 + 4) _EPS / (1 - ratio) in 1 - ratio and 2 _EPS more, relatively,
    plus the least subnormal past underflow.
    """
    if not p >= 0.0:
        raise DomainError(f"deligne_tail needs p >= 0, got {p}")
    n0 = _integer("n0", n0, 1)
    log_t0 = p * math.log(n0) - c * n0
    fits = p * math.log1p(1.0 / n0) < c <= 700.0 and log_t0 < 709.0
    ratio = ((n0 + 1) / n0) ** p * math.exp(-c) if fits else 1.0
    if ratio < 1.0:
        rel = (2.0 * (p * math.log(n0) + c * n0) + (p + 6.0) / (1.0 - ratio)) * _EPS
        if log_t0 - math.log1p(-ratio) + math.log1p(rel) < 709.0:
            return math.exp(log_t0) / (1.0 - ratio) * (1.0 + rel) + 5e-324
    raise PrecisionError(f"n^{p} e^(-{c} n) from n = {n0} has no geometric tail bound in floats")


def deligne_count(p: float, c: float, floor: float) -> int:
    """The fewest N >= 1 from which `deligne_tail`(p, c, N + 1) holds (its term
    ratio is below 1) and is at most floor > 0; it falls with N from there.
    p must be finite and >= 0 and c in (0, 700]: otherwise no N qualifies,
    p = nan passes every test, `deligne_tail` gives no bound (p < 0, where
    the ratio rises with n), or e^c overflows.  Both tests are first taken
    in logarithms, the ratio's and the first term's against floor (the tail
    exceeds its first term), so no power overflows whatever p is;
    `PrecisionError` once N passes _MAX_COUNT: coefficient_count(k) is 28 at
    k = 60 and reaches it only past k = 64,300.
    """
    if not floor > 0.0:
        raise DomainError(f"deligne_count needs a positive floor, got {floor}")
    if not (0.0 <= p < math.inf and 0.0 < c <= 700.0):
        raise DomainError(f"deligne_count needs a finite p >= 0 and 0 < c <= 700, got {p}, {c}")
    n, log_floor = 1, math.log(floor)
    while (p * math.log1p(1.0 / (n + 1)) >= c
           or p * math.log(n + 1) - c * (n + 1) > log_floor
           or deligne_tail(p, c, n + 1) > floor):
        n += 1
        if n > _MAX_COUNT:
            raise PrecisionError(f"no Deligne tail of n^{p} e^(-{c} n) within {_MAX_COUNT} terms")
    return n


def coefficient_count(k: int) -> int:
    """N(k) = `deligne_count`((k + 1)/2, pi sqrt(3), 2^-74): the L-series of
    `completed_l` (|s - k/2| <= 2), the arc and the Parseval sum of `petersson`
    all stop within a_1..a_N(k).  Let t(n) = n^((k+1)/2) e^(-pi sqrt(3) n), the
    arc's term, and N = N(k).
    - t(N + 1) <= 2^-74, while on [1, m], m = (k + 4)/(2 pi), the concave ln t is
      at least min(-pi sqrt(3), (pi m - 3/2) ln m - pi sqrt(3) m) >= -7.8 (k >= 12).
      So N + 1 > m: `gamma_series`' lam (N + 1) >= 2s holds (2s <= k + 4, 2k - 2).
    - For n > N the L-series' and Parseval's tail terms, (1/pi) n^((k-1)/2)
      e^(-2 pi n) and (1/2 pi) n^k e^(-4 pi n), are t(n) e^(-(2 pi - pi sqrt(3)) n)
      / (pi n) and t(n) u(n) / (2 pi), u(n) = n^((k-1)/2) e^(-(4 pi - pi sqrt(3)) n)
      < 1 (at N + 1 as t(N + 1) < 1, and ln u falls past m).  Their term ratios are
      below the arc's (((n + 1)/n)^((k-1)/2) < e^pi past m), so each `deligne_tail`
      bound, rounding included, is below the arc's over pi.
    - Each sum stops at the first such n whose tail is at most one ulp of its
      mass, which holds its first term (a_1 = 1): e^(-pi sqrt(3)) > 2^-8 on the
      arc and, as Gamma(s, x) >= x^(s-1) e^-x, e^(-2 pi)/(2 pi) > 2^-12 and
      e^(-4 pi)/(4 pi) > 2^-22 for the series.  So one ulp is at least 2^-74.
    """
    k = _integer("k", k, 12, 2)
    if k > sys.float_info.max:  # (k + 1) / 2 would overflow
        raise PrecisionError(f"a weight of {k.bit_length()} bits is past the float range")
    return deligne_count((k + 1) / 2, math.pi * math.sqrt(3.0), 2.0**-74)


@functools.lru_cache(maxsize=64)
def _gamma_row(s: int, lam: float, p: float) -> tuple[array, array, array, array]:
    """What term n = 1, 2, ... of `gamma_series` takes from (s, lam, p) alone,
    in four flat arrays: x^-s and Gamma(s, x) at x = lam n, the term's
    charge per unit |c_n x^-s|, and the tail bound from n + 1, (2/lam)
    `deligne_tail`(p - 1, lam, n + 1), inf while lam (n + 1) < 2s.  The row
    ends at the first of three points: the term at which the sum of c =
    (1, 0, 0, ...) stops, the last n with x <= 708, the end of
    `upper_incomplete_gamma`'s domain, and _MAX_COUNT // 64 terms, so the
    64 rows kept hold at most _MAX_COUNT."""
    xpow, value, charge, tails = row = array("d"), array("d"), array("d"), array("d")
    for n in range(1, _MAX_COUNT // 64 + 1):
        x = lam * n
        if x > _MAX_X:
            break
        g = upper_incomplete_gamma(s, x)
        xpow.append(x ** -s)
        value.append(g.value)
        charge.append(g.abs_err + (s + x + 3.0) * _EPS * g.value)
        tails.append((2.0 / lam) * deligne_tail(p - 1.0, lam, n + 1)
                     if lam * (n + 1) >= 2.0 * s else math.inf)
        if tails[-1] <= math.ulp(xpow[0] * value[0]):
            break
    return row


def gamma_series(c, s: int, lam: float, p: float) -> tuple[ValueWithError, int]:
    """sum_n c_n (lam n)^-s Gamma(s, lam n) over c_1..c_N, for an integer s =
    1..60 (`DomainError` otherwise, before any float operation), a sequence
    c with |c_1| >= 1 (`DomainError` for an empty c or |c_1| < 1, nan
    included) and 1 <= p < 2s + 1, and the number of terms summed.

    Past them |c_n| <= n^p (Deligne) and Gamma(s, x) <= 2 x^(s-1) e^-x for
    x >= 2s bound term n by (2/lam) n^(p-1) e^(-lam n), summed by
    `deligne_tail`.  The sum stops at the first n with lam (n + 1) >= 2s
    whose tail from n + 1 is at most one ulp of sum |terms|, else after c_N;
    `PrecisionError` if it reaches the end of its row without stopping, or
    if sum |terms| passes the float range.

    Rounding: lam is exact, or a rounded 2 pi or 4 pi.  Those are 2.0 * math.pi
    and 4.0 * math.pi, exactly 2 fl(pi) and 4 fl(pi), so within _EPS/2 of
    2 pi and 4 pi relatively, as fl(pi) is of pi; x = fl(lam n) adds _EPS/2,
    so x is within _EPS (1 + _EPS/4) of lam n relatively.  As Gamma(s, x) >=
    x^(s-1) e^-x, the term's logarithmic derivative is at most s/x + 1: it
    moves by (s + x) _EPS to first order.  The power (one ulp), two products
    and the rounding of c_n add 2.5 _EPS, charged as 3; the half _EPS over
    covers the second-order terms, below ((s + x + 3) _EPS)^2 < 2^-60 as
    s <= 60 and x <= 708.  `math.fsum` adds one _EPS more.

    Every term is read off the memoized `_gamma_row`, which holds the
    doubles a sum without the memo would make, by the same float
    operations.  An integral float s is taken as the int, so both share a
    row.  A sum with |c_1| >= 1 stops within the row, if the unit series
    did: its sum |terms| is at least that series' (float products and sums
    are monotone), so is its ulp, and its tails are the same numbers.  The
    unit series of every key the program uses stops long before x = 708:
    its first term is at least e^-lam / lam, and the tail (2/lam) n^(p-1)
    e^(-lam n) falls below its ulp by x = 150.8 = 4 pi 12, the Parseval
    row of k = 60, at the rates 2 pi, 4 pi, and the modularity oracle's
    2 pi 5/4 and 2 pi / (5/4), with p <= 61.  A `deligne_tail` raise while
    the row is made cannot come after a sum's own stop, as the bound's term
    ratio is below 1 there and only falls as n grows; every sum that
    reaches that term raises too.
    """
    s = _integer("s", s, 1, 1, 60)
    if not (c and abs(c[0]) >= 1.0):
        raise DomainError("gamma_series needs a c with |c_1| >= 1")
    xpow, value, charge, tails = _gamma_row(s, lam, p)
    terms = []
    err = mass = 0.0
    for cn, xp, g, ch, tail in zip(c, xpow, value, charge, tails):
        w = cn * xp
        term = w * g
        terms.append(term)
        err += abs(w) * ch
        mass += abs(term)
        if tail <= math.ulp(mass):
            break
    else:
        if len(terms) < len(c):
            raise PrecisionError("the sum reaches the end of its incomplete-gamma row without stopping")
    if not mass < math.inf:
        raise PrecisionError("the terms' magnitudes sum past the float range")
    if tail == math.inf:
        raise PrecisionError("coefficient count too small for the tail bound")
    total = math.fsum(terms)
    return ValueWithError(total, err + _EPS * abs(total) + tail), len(terms)


def completed_l(f: Eigenform, s: int) -> LValue:
    """Lambda(f, s) with certified error, for an integer s within 2 of the
    center k/2.

    G(s) + (-1)^(k/2) G(k - s), G the `gamma_series` of the a_n at rate
    2 pi, with Deligne's |a_n| <= d(n) n^((k-1)/2) <= n^((k+1)/2).
    `DomainError` unless s is an integer from 1 to 60 in that strip and
    k - s <= 60, the incomplete gamma's contract, all tested before any
    float operation: s by `_integer`, then the strip and k - s exactly.
    """
    s = _integer("s", s, 1, 1, 60)
    k = f.weight
    if not (k - 4 <= 2 * s <= k + 4):  # exact, so no weight past the float range overflows
        raise DomainError(f"s = {s} is more than 2 from the center k/2")
    if not k - s <= 60:
        raise DomainError(f"k - s must be at most 60 for the incomplete gamma, got s = {s}")
    root = 1.0 if k % 4 == 0 else -1.0  # (-1)^(k/2)
    g1, n1 = gamma_series(f.a, s, 2.0 * math.pi, (k + 1) / 2)
    g2, n2 = (g1, n1) if k - s == s else gamma_series(f.a, k - s, 2.0 * math.pi, (k + 1) / 2)
    total = g1.value + root * g2.value
    err = g1.abs_err + g2.abs_err + _EPS * abs(total)
    completed = ValueWithError(total, err)
    # (2 pi)^s / (s-1)!: the midpoint of its 256-bit bracket is within 2^-240
    # of it relatively, and the int quotient rounds it once: conv is within
    # _EPS / 2 of it, and 2^-240 more, as `kernel.r_k`'s prefactor.  With
    # conv * total's rounding, another _EPS / 2, that charges _EPS |total|;
    # the factor 1 + 4 _EPS covers the 2^-240, conv's error in the first
    # term and the three roundings of the bar itself (_EPS |total| is exact).
    lo, hi = _pi_power_fixed(2**s, math.factorial(s - 1), s)
    conv = (lo + hi) / (2 << _FIX_BITS)
    bar = conv * (err + _EPS * abs(total)) * (1.0 + 4.0 * _EPS)
    finite = ValueWithError(conv * total, bar)
    return LValue(k=k, s=s, completed=completed, finite=finite, terms_used=max(n1, n2))


def central_values(k: int, eps: float = 1e-10) -> list[tuple[Eigenform, ValueWithError]]:
    """L(f, k/2) for every eigenform f of weight k, built with `coefficient_count(k)`
    coefficients; `DomainError` unless k is even and >= 12 (`coefficient_count`),
    `PrecisionError` unless every bar is at most eps (a nan eps included)."""
    out = []
    for f in eigenforms(k, coefficient_count(k)):
        lv = completed_l(f, k // 2)
        if not lv.finite.abs_err <= eps:
            raise PrecisionError(
                f"central value error {lv.finite.abs_err} is not within eps = {eps}"
            )
        out.append((f, lv.finite))
    return out
