"""The Cohen-Kohnen kernel coefficient engine.

Evaluates the normalized bracket

    rho_k(n) = 1 + (-1)^(k/4+n) sqrt(2 pi) sum_m g_n(m) sqrt(n pi / m) J_{(k-1)/2}(n pi / m)

where g_n(m) is the cosine sum over coprime pairs a*c = m in which, for
m > 1, the boundary pairs (1, m) and (m, 1) carry (-1)^n cos(pi n / m).
By the Chinese remainder theorem it is a product over the prime powers q
of m, g_n(m) = prod_q 2 cos(pi n rho_q / q), rho_q = (m/q)^(-1) mod q up to
a multiple of q that carries the sign (`ntheory._gamma_row`), so
|g_n(m)| <= 2^omega(m).  `ntheory.gamma_sum` gives the two boundary pairs
cos(pi n / m), so g_n(m) = gamma_n(m) + ((-1)^n - 1) 2 cos(pi n / m), and
g_n(1) = 1.  Even n is unaffected.  The coefficient is

    r_k(n) = (8 pi)^(k/2-1) n^(k/2-1) rho_k(n) / (4 (k-2)!),

and with L*(f, s) = (2 pi)^-s Gamma(s) L(f, s) over the Hecke eigenforms
of weight k it equals sum_f L*(f, k/2) a_f(n) / (16 Gamma(k/2) ||f||^2)
(Kohnen, J. Number Theory 67 (1997), after Cohen 1981; see
`petersson.kohnen_triangle`).  The module also carries a certified
truncation tail, the per-weight and global deviation bounds, and the
non-vanishing certificate for r_k(1).  The tail's majorant of
sum_{m > M} 2^omega(m) m^(-k/2) is the rational zeta(k/2)^2 / zeta(k) less
its first M terms, a table of fixed-point ints kept per weight, which the
series' cut and its charged tail both read as they are.  The bounds, the
tail and the prefactor are rationals times a power of pi, taken from the
256-bit pi bracket of `ntheory`: the bounds and the tail are the least
floats at or above their exact values, and the prefactor is rounded once.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import floordiv, lshift, neg, sub

from .errors import _MAX_COUNT, PrecisionError, _integer
from .ntheory import (_FIX_BITS, ValueWithError, _cos_pi_fixed, _gamma_fixed, _pi_power_bracket,
                      _pi_power_fixed, _pi_power_up, _prime_power_block, bernoulli, gamma_sum)
from .specfun import _EPS, HalfIntOrder, _bessel_factor_fixed, bessel_j

__all__ = [
    "KernelCoefficient",
    "Certificate",
    "r_k",
    "series_tail_bound",
    "per_k_bound",
    "global_bound",
    "certify",
]

# The largest Bessel argument n pi the series takes, so n <= 5:
# `specfun._bessel_factor_fixed`'s bracket is about 2^-95 wide up to it
MAX_SERIES_ARG = 16.0
# m < _PRIMORIALS[i] has at most i prime factors, so gamma_n(m) is a product of at most i factors
_PRIMORIALS = (2, 6, 30, 210, 2310, 30030, 510510, 9699690)


def _check_weight(k: int) -> int:
    """k as an int if it is a certified weight: k ≡ 0 (mod 4), 12 <= k <= 40."""
    return _integer("the weight k", k, 12, 4, 40)


@dataclass(frozen=True)
class KernelCoefficient:
    """r_k(n) together with its normalized bracket and truncation data."""

    k: int
    n: int
    rho: ValueWithError
    value: ValueWithError  # r_k(n) = (8 pi)^(k/2-1) n^(k/2-1) / (4 (k-2)!) * rho
    terms_used: int


@dataclass(frozen=True)
class Certificate:
    """Per-weight non-vanishing verdict for r_k(1)."""

    k: int
    rho: ValueWithError
    value: ValueWithError  # r_k(1) itself, the kernel side of `petersson.kohnen_triangle`
    per_k_bound: float
    global_bound: float
    nonvanishing: bool  # per_k_bound < 1
    sign: int  # +1: rho >= 1 - per_k_bound > 0 and the prefactor is positive


def _tail_bits(k: int) -> int:
    """F = 64 + 17 k/2, the fraction bits of weight k's tail table (`_omega_tails`)."""
    return 64 + 17 * (k // 2)


def _cut_threshold(k: int, n: int, eps: float) -> int:
    """The largest int t whose tail charged by `series_tail_bound`, with t in
    place of T(M), is below eps/4, for eps >= 1e-14; above every T(M) for an
    infinite eps.

    That charge is the least float at or above hi / 2^(256 + F), hi the
    ceiling of 2 n^h P t / (k-1)!!, h = k/2, F = `_tail_bits`(k) and P / 2^256
    the upper end of `ntheory._pi_power_bracket`(h).  It is below eps/4
    exactly when hi / 2^(256 + F) is at most e = p / q, the float below eps/4,
    that is when hi <= 2^F (p 2^256 / q), an int as q is a power of two below
    2^256: when t <= (k-1)!! 2^F (p 2^256 / q) / (2 n^h P).
    """
    h = k // 2
    p, q = math.nextafter(eps / 4, 0.0).as_integer_ratio()
    df = HalfIntOrder.for_weight(k).double_factorial
    return (p * df << _FIX_BITS + _tail_bits(k)) // (2 * q * n**h * _pi_power_bracket(h)[1])


# per weight k: the table of `_omega_tails` up to the deepest M asked so far
_TAILS: dict[int, tuple[int, ...]] = {}


def _omega_tails(k: int, top: int, t_cut: int = -1) -> tuple[int, ...]:
    """The table T(0), T(1), ... of upper bounds on sum_{m > M} 2^omega(m) m^(-s),
    s = k/2, as ints in fixed point with F = `_tail_bits`(k) = 64 + 17 s
    fraction bits, taken at least to M = top or to the first T(M) <= t_cut.

    For even s the whole sum is zeta(s)^2 / zeta(2s) = B_s^2 (2s)! / (2 (s!)^2
    |B_2s|) (Hardy and Wright, Thm 301, with Euler's zeta(2j)).  T(M) is that
    rational rounded up less the terms m <= M, each 2^omega(m) / m^s rounded
    down, so it is an upper bound, above the exact tail by less than (M + 1)
    2^-F, which is below (M + 1)^(s+1) 2^-F T(M) < 2^-53 T(M) for M <=
    _MAX_COUNT = 2^16, as T(M) > (M + 1)^-s.  omega(m) is m's count of
    prime powers in `ntheory._prime_power_block`.

    The table is kept for the next call of weight k, a tuple of ints below
    2^(F+1).  It grows in steps that double its length, each within one block
    of 256 m, so it reads no block past the one holding the M that ends it.
    A grown table is a new tuple, stored in one assignment, so a thread that
    grows it never changes a table another thread holds.
    """
    s, bits = k // 2, _tail_bits(k)
    table = _TAILS.get(k)
    if table is None:
        b, b2 = bernoulli(s), bernoulli(k)
        num = b.numerator**2 * math.factorial(k) * b2.denominator << bits
        den = 2 * math.factorial(s) ** 2 * b.denominator**2 * abs(b2.numerator)
        t = -(-num // den)  # T(0)
        table = t, t - (1 << bits)
    while len(table) <= top and table[-1] > t_cut:
        lo = len(table)
        hi = min(2 * lo, (lo | 255) + 1, _MAX_COUNT + 1)
        starts = _prime_power_block(lo >> 8)[0][lo & 255:((hi - 1) & 255) + 2]
        omegas = map(sub, starts[1:], starts)
        terms = map(floordiv, map(lshift, repeat(1 << bits), omegas),
                    map(pow, range(lo, hi), repeat(s)))
        # the sums start from T(lo - 1), the entry they replace
        table = table[:-1] + tuple(accumulate(terms, sub, initial=table[-1]))
    _TAILS[k] = table
    return table


def series_tail_bound(k: int, n: int, m_stop: int) -> float:
    """Certified bound on sqrt(2 pi) |sum_{m > m_stop} g_n(m) sqrt(n pi/m) J(n pi/m)|,
    for 1 <= m_stop <= 2^16 (`errors._MAX_COUNT`).

    g_n(m) is a sum of 2^omega(m) unit cosines, one per coprime pair, and
    |J_nu(x)| <= (x/2)^nu / Gamma(nu + 1) = envelope(nu, x), so with
    nu = (k-1)/2 the m-th term is at most
    2^omega(m) sqrt(n pi/m) envelope(nu, n pi/m) = A 2^omega(m) m^(-k/2),
    A = sqrt(n pi) envelope(nu, n pi), the leading term of
    `specfun._bessel_factor_fixed` at m = 1, and sqrt(2 pi) A = 2 (n pi)^h /
    (k-1)!!, h = k/2.  The bound is the least float at or above that times
    T(m_stop) / 2^F, T the fixed-point upper bound of `_omega_tails` on
    sum_{m > M} 2^omega(m) m^(-k/2): one `ntheory._pi_power_up` of the int
    T(m_stop) scaled by 2^-F, exactly, as the bound is a normal float.
    """
    k, n, m_stop = _check_weight(k), _integer("n", n, 1), _integer("m_stop", m_stop, 1, 1, _MAX_COUNT)
    h = k // 2
    t = _omega_tails(k, m_stop)[m_stop]
    df = HalfIntOrder.for_weight(k).double_factorial
    return math.ldexp(_pi_power_up(2 * n**h * t, df, h), -_tail_bits(k))


def _gamma_charge(omega: int, odd: int) -> float:
    """A first-order bound, in units of _EPS, on |gamma_sum(n, m) - gamma_n(m)|
    for m >= 2 with at most omega prime factors, and odd = n % 2.

    `ntheory._gamma_row` takes the angle pi (u/d) within 1.2 _EPS relatively
    (u / d and the product round once each, pi's float is within 0.18 _EPS),
    so with theta sin(theta) <= 1.82 on [0, pi] and cos within an ulp, at
    most _EPS / 2 below 1, each cosine is within (1.2 * 1.82 + 1/2) _EPS <=
    2.7 _EPS.  The product of omega factors 2 cos, each at most 2 in size and
    within 5.4 _EPS, with its omega - 1 roundings, is within
    2^omega (2.7 omega + (omega - 1)/2) _EPS.  For odd n the boundary term
    4 cos adds 10.8 _EPS, and the sum, at most 2^omega + 4 in size, rounds
    once.
    """
    top = 1 << omega
    return top * (3.2 * omega - 0.5) + odd * (10.8 + (top + 4) / 2)


def r_k(k: int, n: int, eps: float = 1e-10) -> KernelCoefficient:
    """The kernel Fourier coefficient r_k(n), with rho held to absolute error eps.

    The m-series stops at the smallest M >= 1 whose certified tail
    `series_tail_bound`(k, n, M) is below eps/4: the first M whose entry of
    weight k's table of `_omega_tails` is at most `_cut_threshold`(k, n,
    eps), which decides the same, found by one `bisect` on the table grown
    to that entry; `PrecisionError` if none up to M = 2^16 reaches it.

    Each term is g_n(m) sqrt(x) J_nu(x), x = n pi / m.  A hump term,
    x * x > k + 1, where the Bessel series rises before it falls, lies past
    `bessel_j`'s domain (the same float test on the same x), and it is
    taken exactly, as is any other term whose float charge would pass
    eps/64, where the float Bessel series cancels: g_n(m) from
    `ntheory._gamma_fixed` and `_cos_pi_fixed` and the Bessel factor from
    `specfun._bessel_factor_fixed`, in 256-bit fixed point at the exact
    angles.  Every other term takes one `gamma_sum` and one `bessel_j`, and
    is charged its Bessel bar and the roundings of x (pi's included), g,
    sqrt(x) and the products.  The exact terms are summed in fixed point
    and rounded once, and the float terms by `math.fsum`.  The whole bar on
    rho, tail, Bessel and rounding parts together, is at most eps;
    `PrecisionError` otherwise.
    """
    k, n = _check_weight(k), _integer("n", n, 1)
    if not eps >= 1e-14:
        raise PrecisionError(f"eps must be a number >= 1e-14 for double precision, got {eps}")
    if n * math.pi > MAX_SERIES_ARG:
        raise PrecisionError(
            f"n = {n} puts the Bessel argument past the ascending-series contract"
        )
    nu = HalfIntOrder.for_weight(k)
    sign = -1 if (k // 4 + n) % 2 else 1

    # series_tail_bound(k, n, M) < eps/4 exactly when T(M) <= t_cut
    t_cut = _cut_threshold(k, n, eps)
    table = _omega_tails(k, _MAX_COUNT, t_cut)
    m_stop = bisect.bisect_left(table, -t_cut, 1, key=neg)
    if m_stop == len(table):
        raise PrecisionError("could not reach the requested tail bound")
    tail = series_tail_bound(k, n, m_stop)

    sqrt_2pi = math.sqrt(2 * math.pi)
    flag = eps / (64 * sqrt_2pi)
    n_pi = n * math.pi
    odd = n % 2
    # x = n pi / m is within 1.2 _EPS of its value relatively, and
    # |d/dx sqrt(x) J_nu(x)| <= (3 nu - 1/2) env / sqrt(x), env the envelope
    # (x/2)^nu / Gamma(nu + 1): x's rounding moves the term by at most
    # cx |g| sqrt(x) env (1.25 in place of 1.2 covers the second-order
    # parts).  On bessel_j's domain, x^2 <= k + 1 = 2 (nu + 1), every ratio
    # of the Bessel series is at most 1/2, so env <= 2 |J_nu(x)| <= 2 (|jv| +
    # jerr).  sqrt(x), the two products and g's last subtraction add
    # 2 _EPS |g| sqrt(x) (|jv| + jerr).
    cx = 1.25 * (3 * (k - 1) / 2 - 0.5) * _EPS
    c1 = 2 * cx + 2 * _EPS
    m_env = 1  # the hump terms, x * x > k + 1, are those with m < m_env
    while (x := n_pi / m_env) * x > k + 1:
        m_env += 1
    cos, sqrt, gamma, bessel = math.cos, math.sqrt, gamma_sum, bessel_j
    exact = list(range(1, min(m_env, m_stop + 1)))
    terms = []
    keep = terms.append
    float_err = 0.0
    # [lo, hi) ranges of m past the hump: split at the primorials, as g's
    # error bound depends on the number of prime factors
    lo = m_env
    for hi in sorted({m_stop + 1, *(b for b in _PRIMORIALS if lo < b <= m_stop)}):
        # g is within ge of g_n(m) for m in [lo, hi), whose m have at most
        # omega prime factors: gamma_sum within `_gamma_charge`, and 4 cos(x)
        # within 4 (1.2 x + 1) _EPS; g_n(1) = 1 exactly
        omega = bisect.bisect_right(_PRIMORIALS, lo)
        boundary = odd and lo > 1
        ge = 0.0 if lo == 1 else (_gamma_charge(omega, odd) + boundary * 4 * (1.2 * n_pi / lo + 1)) * _EPS
        for m in range(lo, hi):
            x = n_pi / m
            g = gamma(n, m)
            if boundary:
                # boundary pairs (1, m), (m, 1): (-1)^n cos(pi n/m) in g_n, cos(pi n/m) in gamma_n
                g -= 4.0 * cos(x)
            j = bessel(nu, x)
            jv, jerr = j.value, j.abs_err
            w = sqrt(x)
            gs = g * w
            gw = abs(gs)
            # |J_nu(x)| is at most abs(jv) + jerr
            charge = (c1 * gw + ge * w) * (abs(jv) + jerr) + gw * jerr
            if charge > flag:
                exact.append(m)
            else:
                keep(gs * jv)
                float_err += charge
        lo = hi
    series = math.fsum(terms)  # rounds once

    s_lo = s_hi = 0
    for m in exact:
        g_lo, g_hi = _gamma_fixed(n, m)
        if odd and m > 1:
            c_lo, c_hi = _cos_pi_fixed(n, m)
            g_lo, g_hi = g_lo - 4 * c_hi, g_hi - 4 * c_lo
        b_lo, b_hi = _bessel_factor_fixed(nu, n, m)
        products = (g_lo * b_lo, g_lo * b_hi, g_hi * b_lo, g_hi * b_hi)
        s_lo += min(products)
        s_hi += max(products)
    unit = 1 << 2 * _FIX_BITS
    exact_sum = (s_lo + s_hi) / (2 * unit)  # the int quotient rounds once

    # sqrt_2pi is within 0.6 _EPS of sqrt(2 pi), and its product rounds once;
    # the three-term fsum rounds once more
    spread = sqrt_2pi * series
    value = math.fsum((1.0, sign * exact_sum, sign * spread))
    rho_err = (
        tail
        + sqrt_2pi * (float_err + 0.5 * _EPS * abs(series)) * (1.0 + _EPS)
        + 1.2 * _EPS * abs(spread)
        + (s_hi - s_lo) / unit
        + _EPS * abs(exact_sum)
        + 0.5 * _EPS * abs(value)
    ) * (1.0 + 8.0 * _EPS)  # this sum's own roundings
    if rho_err > eps:
        raise PrecisionError(f"the bar on rho_{k}({n}) is {rho_err:.3g}, above eps = {eps:.3g}")
    rho = ValueWithError(value, rho_err)

    h = k // 2 - 1
    lo, hi = _pi_power_fixed(8**h * n**h, 4 * math.factorial(k - 2), h)
    # the midpoint is within (hi - lo) / 2, below 2^-240 relatively, of the
    # prefactor, and the int quotient rounds it once: pref is within _EPS / 2
    # of it, and 2^-240 more.  With pref * rho's rounding, another _EPS / 2,
    # that charges _EPS |rho|; the factor 1 + 4 _EPS covers the 2^-240,
    # pref's error in the first term and the three roundings of the bar
    # itself (_EPS |rho| is exact).
    pref = (lo + hi) / (2 << _FIX_BITS)
    bar = pref * (rho.abs_err + _EPS * abs(rho.value)) * (1.0 + 4.0 * _EPS)
    value = ValueWithError(pref * rho.value, bar)
    return KernelCoefficient(k=k, n=n, rho=rho, value=value, terms_used=m_stop)


def per_k_bound(k: int) -> float:
    """2 (2 pi)^h (h! / k!) zeta(h)^2, h = k/2: the weight-k deviation bound.

    With zeta(h) = |B_h| (2 pi)^h / (2 h!) it is (2 pi)^(3h) B_h^2 / (2 k! h!),
    returned as the least float at or above it.
    """
    k = _check_weight(k)
    h = k // 2
    b = bernoulli(h)
    den = 2 * math.factorial(k) * math.factorial(h) * b.denominator**2
    return _pi_power_up(8**h * b.numerator**2, den, 3 * h)


def global_bound() -> float:
    """2 (2 pi / 7) (2 pi / 8)^5 zeta(6)^2 = pi^18 / (2^8 7 945^2), the
    weight-uniform deviation bound (< 1), as the least float at or above it."""
    return _pi_power_up(1, 2**8 * 7 * 945**2, 18)


def certify(k: int, eps: float = 1e-10) -> Certificate:
    """Certify that the bracket rho_k(1) (hence r_k(1), hence L(f_k, k/2)) is nonzero.

    The verdict is the paper's inequality |rho_k(1) - 1| <= per_k_bound(k) < 1,
    so rho_k(1) > 0.  The float rho of `r_k` is a cross-check: it must lie
    within per_k_bound(k) plus its bar of 1, `PrecisionError` otherwise.
    """
    coeff = r_k(k, 1, eps)
    k, rho = coeff.k, coeff.rho  # r_k's int weight
    bound = per_k_bound(k)
    if abs(rho.value - 1.0) > bound + rho.abs_err:
        raise PrecisionError(
            f"rho left the certified window 1 +- per_k_bound for k={k}; "
            "this contradicts the deviation bound"
        )
    nonvanishing = bound < 1.0
    sign = 1 if nonvanishing else 0
    return Certificate(
        k=k,
        rho=rho,
        value=coeff.value,
        per_k_bound=bound,
        global_bound=global_bound(),
        nonvanishing=nonvanishing,
        sign=sign,
    )
