"""Integer and arithmetic-function kernels.

The cosine sums gamma_n(m) over the coprime factor pairs of m and exact
Bernoulli numbers.  By the Chinese remainder theorem the cosine sum is a
product over the prime powers q of m (`_gamma_row`), so a block of 256
consecutive m lists, for each m, its prime powers q and the residues
rho_q = (m/q)^(-1) mod q, found by a small-prime sieve, in one flat tuple:
the blocks hold no object per m for the garbage collector to scan, and are
kept in a bounded memo shared across every n.  gamma_n(m) is computed for
one n and the 256 m of a block at once, omega(m) cosines and a product per
m, and kept in a bounded memo of such (n, block) rows, shared across every
weight k that asks the same n.  The even Bernoulli numbers come from the
integer tangent-number recurrence, kept in a table that at least doubles
when it grows.  The module also holds pi bracketed in 256-bit fixed point,
from which every kernel-side constant in pi is taken: rounded up to a float
for the deviation bounds and the tail scale, rounded once for r_k's
prefactor and the Kohnen triangle's scale, and, for the kernel terms that
cancel in floats, an alternating series summed between integer brackets,
and gamma_n(m) and its cosines bracketed from the exact angles.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, _integer

__all__ = [
    "ValueWithError",
    "gamma_sum",
    "bernoulli",
]


@dataclass(frozen=True)
class ValueWithError:
    """A real value with a rigorous absolute-error bound.

    The true quantity lies in [value - abs_err, value + abs_err].
    """

    value: float
    abs_err: float

    def __init__(self, value: float, abs_err: float):
        # one comparison, which nan fails, and the fields written to the
        # instance dict, as the frozen class's __setattr__ raises
        if not 0.0 <= abs_err < math.inf:
            raise ValueError(f"abs_err must be finite and >= 0, got {abs_err}")
        fields = self.__dict__
        fields["value"] = value
        fields["abs_err"] = abs_err

    def excludes_zero(self) -> bool:
        return abs(self.value) > self.abs_err


_new = object.__new__


def _unchecked(value: float, abs_err: float) -> ValueWithError:
    """ValueWithError(value, abs_err) without the check of abs_err, for a bar
    finite and >= 0 by construction: `specfun.bessel_j`'s, once per kernel
    term, where the check and __init__'s frame cost 0.12 ms over the 8,759
    terms of a 22 ms kernel sweep (timeit; Python 3.11, AMD EPYC)."""
    out = _new(ValueWithError)
    fields = out.__dict__
    fields["value"], fields["abs_err"] = value, abs_err
    return out


def gamma_sum(n: int, m: int) -> float:
    """gamma_n(m): sum of cos(pi*n*(a'/c - c'/a)) over coprime pairs a*c = m.

    a' is the inverse of a mod c and c' that of c mod a; the boundary pairs
    (1, m) and (m, 1) contribute cos(pi n / m) each, and gamma_n(1) = 1.

    The value is read off `_gamma_row`, which computes the 256 m of one
    `_prime_power_block` block for one n at once, as a product over the
    prime powers of each m, and keeps the row for every weight that asks
    the same n again.  An integral float n or m gives the int's value.

    The argument check is written out rather than `errors._integer`: it runs
    once per term of `kernel.r_k`'s series, and two gate calls would take a
    memoized call from ~150 to ~240 ns (Python 3.11, AMD EPYC), ~2% of a
    sweep of every certified weight.
    """
    if n < 1 or m < 1 or n % 1 or m % 1:
        raise DomainError(f"gamma_sum requires positive integers n and m, got {n}, {m}")
    m = int(m)
    return _gamma_row(n, m >> 8)[m & 255]


# cos(pi j / 6) for the j = 6 u / d with an exact cosine
_COS_SIXTHS = (1.0, None, 0.5, 0.0, -0.5, None, -1.0)


# 64 rows of 2 KB: a kernel sweep, k = 12..40 step 4, n = 1..5 and
# eps = 1e-13, reads 32 (n, block) rows, each by every weight asking that n.
@functools.lru_cache(maxsize=64)
def _gamma_row(n: int, b: int) -> array:
    """gamma_n(m) for each m in [256 b, 256 b + 256), 1.0 at m = 0 and m = 1.

    For m >= 2 with prime powers q and the residues rho_q of
    `_prime_power_block`(b), sum_q (m/q) rho_q = 1 + t m with t odd, and

        gamma_n(m) = prod_q 2 cos(pi n rho_q / q) + (1 - (-1)^n) 2 cos(pi n / m).

    Proof: the kernel's sum g_n(m), whose boundary pairs carry (-1)^n
    cos(pi n / m), takes each pair (a, c) at the angle pi n (2e - 1 - m) / m
    with e = a a' mod m, the idempotent that is 1 mod c and 0 mod a.  A pair
    is the set of q dividing c, and e = sum_(q | c) (m/q) rho_q mod m, so
    g_n(m) = Re[exp(-i pi n (1 + m)/m) prod_q (1 + exp(2 pi i n rho_q / q))]
    = (-1)^(n (t - 1)) prod_q 2 cos(pi n rho_q / q), as 1 + exp(2 i x) =
    2 cos(x) exp(i x) and sum_q rho_q / q = (1 + t m)/m; the sign is 1 for
    odd t.  gamma_n(m) gives the two boundary pairs cos(pi n / m), which
    adds the last term.

    n is taken as an int and each n rho_q is reduced exactly mod 2q, folded
    into u in [0, q]; the factor 2 cos(pi (u / q)) is exact when 6 u / q is
    an int, which for a prime power q puts u / q in {0, 1/3, 1/2, 2/3, 1}.
    The factors of each m are multiplied in increasing q.  For odd n the
    boundary term 4 cos(pi (u / m)), u = n mod 2m folded, is added, exact
    when 6 u / m is 0, 2, 3, 4 or 6.
    """
    n = int(n)
    cos, pi, sixths = math.cos, math.pi, _COS_SIXTHS
    odd = n % 2
    row = array("d", [1.0, 1.0] if b == 0 else [])
    g = 1.0
    flat = iter(_prime_power_block(b)[1])
    for q, r, m in zip(flat, flat, flat):
        u = n * r % (q + q)
        if u > q:
            u = q + q - u
        c = cos(pi * (u / q)) if 6 * u % q else sixths[6 * u // q]
        g *= c + c
        if m:  # q is m's last prime power
            if odd:
                two_m = m + m
                u = n % two_m
                if u > m:
                    u = two_m - u
                c = sixths[6 * u // m] if 6 * u % m == 0 else None
                g += 4.0 * (cos(pi * (u / m)) if c is None else c)
            row.append(g)
            g = 1.0
    return row


def _primes_to(n: int) -> list[int]:
    """The primes p <= n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = bytes(min(2, n + 1))
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p, prime in enumerate(sieve) if prime]


# 32 blocks hold m < 8,192, above r_k's deepest cut (4,333 at k = 12, n = 5,
# eps = 1e-14); a report's cuts, at most 91 terms, fill block 0 alone.  The
# offsets also give `kernel._omega_tails` omega(m), m's count of prime powers.
@functools.lru_cache(maxsize=32)
def _prime_power_block(b: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The prime powers q of each m in [256 b, 256 b + 256), with the residues
    rho_q of `_gamma_row`: the i-th m's q run from the i-th of 257 offsets
    to the next, and each q is the triple q, rho_q, end of one flat tuple,
    end being m at m's last q and 0 before it.  Two tuples, not one per m,
    keep a sweep's blocks from the collector.  m = 0 and m = 1 have no q.

    A sieve by the primes p <= sqrt(256 b + 255) divides each m of the block
    by its powers of p, in increasing p; what is left is 1 or one prime
    above them all, m's last q.  rho_q = (m/q)^(-1) mod q, one `pow` each,
    for every q but the last, whose rho is (1 + m - s) / (m/q) reduced mod
    2q, s the sum of the others' (m/q) rho_q: an int, as s is 1 mod each
    other q, congruent to (m/q)^(-1) mod q, and such that the sum of all
    (m/q) rho_q is 1 + t m with t odd.  rho_q enters `_gamma_row` only mod
    2q, where a step of 2q moves t by 2.
    """
    lo, hi = b << 8, (b + 1) << 8
    rest = list(range(lo, hi))
    found = [[] for _ in range(256)]
    for p in _primes_to(math.isqrt(hi - 1)):
        for i in range(max(p, -(-lo // p) * p) - lo, 256, p):
            r, q = rest[i] // p, p
            while r % p == 0:
                r //= p
                q *= p
            rest[i] = r
            found[i].append(q)
    starts, flat = [0], []
    for m, r, qs in zip(range(lo, hi), rest, found):
        if r > 1:
            qs.append(r)
        if qs:  # not m = 0 or 1
            last = qs.pop()
            s = 1 + m
            for q in qs:
                c = m // q
                rho = pow(c, -1, q)
                flat += (q, rho, 0)
                s -= c * rho
            flat += (last, s // (m // last) % (last + last), m)
        starts.append(len(flat) // 3)
    return tuple(starts), tuple(flat)


# Fixed point: an int v stands for v / 2^_FIX_BITS, and a pair (lo, hi) of such
# ints brackets a real number.  pi * 2^256 lies strictly between these two
# literals (a test checks them against 100-digit pi).
_FIX_BITS = 256
_PI_FIX_LO = 363771576891766324280234942777729862653393377328392429958772151117938894466185
_PI_FIX_HI = 363771576891766324280234942777729862653393377328392429958772151117938894466186
# an alternating sum stops at the first falling term below 2^-96
_FIX_STOP = 1 << (_FIX_BITS - 96)


@functools.lru_cache(maxsize=64)
def _pi_power_bracket(p: int) -> tuple[int, int]:
    """A fixed-point bracket of pi^p, p >= 0, by binary powering of the two
    literals, each step's product rounded down at the lower end and up at
    the upper; its relative width stays below 2^-240 for p <= 64."""
    lo, hi = _pi_power_bracket(p // 2) if p > 1 else (1 << _FIX_BITS,) * 2
    a, b = (_PI_FIX_LO, _PI_FIX_HI) if p % 2 else (1 << _FIX_BITS,) * 2
    return lo * lo * a >> 2 * _FIX_BITS, -(-hi * hi * b >> 2 * _FIX_BITS)


def _pi_power_fixed(num: int, den: int, p: int) -> tuple[int, int]:
    """A fixed-point bracket of (num / den) pi^p, for num >= 0, den > 0, p >= 1."""
    lo, hi = _pi_power_bracket(p)
    return num * lo // den, -(-num * hi // den)


def _pi_power_up(num: int, den: int, p: int) -> float:
    """The least float at or above the upper end of `_pi_power_fixed`(num,
    den, p), an upper bound of (num / den) pi^p: the int quotient rounds
    once, and one exact comparison decides a step to the next float up."""
    hi = _pi_power_fixed(num, den, p)[1]
    up = hi / (1 << _FIX_BITS)
    a, b = up.as_integer_ratio()
    return up if a << _FIX_BITS >= hi * b else math.nextafter(up, math.inf)


def _alternating_fixed(lead, y, a: int, b: int) -> tuple[int, int]:
    """A fixed-point bracket of sum_j (-1)^j t_j, where t_0 is bracketed by
    lead and t_(j+1) = t_j y / ((2j + a)(2j + b)), for brackets lead and y
    of numbers >= 0 and ints a, b >= 1.

    Each t_j is bracketed by rounding its lower end down and its upper end
    up, and the even and the odd terms are summed apart.  Once
    y <= (2j + a)(2j + b) the terms no longer rise from t_j on, so the
    alternating tail from t_j lies in [-t_j, t_j]; the sum stops at the
    first such t_j below _FIX_STOP.
    """
    t_lo, t_hi = lead
    y_lo, y_hi = y
    bits, stop = _FIX_BITS, _FIX_STOP
    y_top = (y_hi >> bits) + 1  # y <= d once d >= y_top
    lo, hi = [0, 0], [0, 0]  # the even and the odd terms' sums
    j = 0
    while True:
        d = a * b
        if d >= y_top and t_hi < stop:
            return lo[0] - hi[1] - t_hi, hi[0] - lo[1] + t_hi
        lo[j] += t_lo
        hi[j] += t_hi
        # floor(floor(u / 2^F) / d) = floor(u / (2^F d)), and so for the ceiling
        t_lo = (t_lo * y_lo >> bits) // d
        t_hi = -((-t_hi * y_hi >> bits) // d)
        a += 2
        b += 2
        j ^= 1


@functools.lru_cache(maxsize=256)
def _cos_pi_fixed(t: int, m: int) -> tuple[int, int]:
    """A fixed-point bracket of cos(pi t / m), for ints t and m >= 1, by the
    Taylor series of cos at the angle folded into [0, pi]; kept for the
    other weights that ask the same angle."""
    t %= 2 * m
    t = min(t, 2 * m - t)
    return _alternating_fixed((1 << _FIX_BITS,) * 2, _pi_power_fixed(t * t, m * m, 2), 1, 2)


def _gamma_fixed(n: int, m: int) -> tuple[int, int]:
    """A fixed-point bracket of gamma_n(m) (`gamma_sum`), from the exact angles
    of `_gamma_row`'s product: the brackets of 2 cos(pi n rho_q / q) over the
    prime powers q of `_prime_power_block`, multiplied with each product's
    ends rounded outward, plus 4 cos(pi n / m) for odd n."""
    one = 1 << _FIX_BITS
    if m == 1:
        return one, one
    starts, flat = _prime_power_block(m >> 8)
    i = m & 255
    lo = hi = one
    for j in range(3 * starts[i], 3 * starts[i + 1], 3):
        q, r = flat[j], flat[j + 1]
        c_lo, c_hi = _cos_pi_fixed(n * r, q)
        products = (lo * c_lo, lo * c_hi, hi * c_lo, hi * c_hi)
        lo, hi = 2 * min(products) >> _FIX_BITS, -(-2 * max(products) >> _FIX_BITS)
    if n % 2:
        c_lo, c_hi = _cos_pi_fixed(n, m)
        lo, hi = lo + 4 * c_lo, hi + 4 * c_hi
    return lo, hi


_bernoulli_even: list[Fraction] = [Fraction(1)]  # B_0, B_2, B_4, ...
# The first build of that table reaches B_40, the largest Bernoulli number
# the certified weights k <= 40 ask for (`kernel` reads B_k and B_(k/2)), so
# their requests build it once in any order
_BERNOULLI_FIRST_H = 20


def bernoulli(n: int) -> Fraction:
    """The Bernoulli number B_n for even n >= 0, exactly.

    Odd n is rejected: B_n = 0 there (n > 1) and a request for it is
    almost always a misuse.  An integral float n gives the int's number.
    The table of B_0, B_2, ... is first built to B_40 at least, and at
    least doubles when it grows, so requests in ascending order cost O(n^2)
    integer steps in all.  Its entries do not depend on where a build stops.
    """
    n = _integer("n", n, 0, 2)
    if n // 2 >= len(_bernoulli_even):
        h = max(n // 2, 2 * (len(_bernoulli_even) - 1), _BERNOULLI_FIRST_H)
        _bernoulli_even[:] = _even_bernoulli(h)
    return _bernoulli_even[n // 2]


def _even_bernoulli(h: int) -> list[Fraction]:
    """B_0, B_2, ..., B_2h from the tangent numbers T_1..T_h, in integers
    (Brent and Harvey, "Fast computation of Bernoulli, tangent and secant
    numbers", 2011): T_1 = 1, T_k = (k - 1) T_(k-1), then
    T_j = (j - k) T_(j-1) + (j - k + 2) T_j for 2 <= k <= j <= h, and
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).
    """
    t = [0, 1]
    for k in range(2, h + 1):
        t.append((k - 1) * t[k - 1])
    for k in range(2, h + 1):
        for j in range(k, h + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return [Fraction(1)] + [
        Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1)) for k in range(1, h + 1)
    ]
