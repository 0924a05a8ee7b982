"""Integer and arithmetic-function kernels.

The cosine sums gamma_n(m) over the coprime factor pairs of m, divisor
counts, exact Bernoulli numbers and the closed form of zeta at even
integers.  The exponents a' a - c' c of the coprime pairs of m are sieved
256 consecutive m at a time, kept in a bounded memo of such blocks and
shared across every n and weight k that asks for gamma_n(m).  The even
Bernoulli numbers come from the integer tangent-number recurrence, kept in
a table that at least doubles when it grows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, _integer

__all__ = [
    "ValueWithError",
    "gamma_sum",
    "divisor_count",
    "bernoulli",
    "zeta_even",
]


@dataclass(frozen=True)
class ValueWithError:
    """A real value with a rigorous absolute-error bound.

    The true quantity lies in [value - abs_err, value + abs_err].
    """

    value: float
    abs_err: float

    def __post_init__(self):
        if not (self.abs_err >= 0.0 and math.isfinite(self.abs_err)):
            raise ValueError(f"abs_err must be finite and >= 0, got {self.abs_err}")

    def excludes_zero(self) -> bool:
        return abs(self.value) > self.abs_err


def gamma_sum(n: int, m: int) -> float:
    """gamma_n(m): sum of cos(pi*n*(a'/c - c'/a)) over coprime pairs a*c = m.

    a' is the inverse of a mod c and c' that of c mod a; the boundary pairs
    (1, m) and (m, 1) contribute cos(pi n / m) each, and gamma_n(1) = 1.

    The angle is pi n s / m with s = a' a - c' c read from `_pair_block`,
    which sieves the exponents of 256 consecutive m at once and keeps them
    for every n (and weight) that asks.  m is taken as an int and n s is
    reduced exactly mod 2m, n first, so that for an integral float n or m
    every product is exact (m below 2^26) and gives the int's value; the
    residue is folded into t in [0, m], and the cosine is exact for t / m in
    {0, 1, 1/2, 1/3, 2/3}.  The cosines are summed in the order
    of the sorted pairs (a, c): the half with a < sqrt(m), then its mirror,
    since the pair (c, a) negates the angle of (a, c).

    The argument check is written out rather than `errors._integer`: it runs
    once per term of `kernel.r_k`'s series, where the call would cost ~3%.
    """
    if n < 1 or m < 1 or n % 1 or m % 1:
        raise DomainError(f"gamma_sum requires positive integers n and m, got {n}, {m}")
    if m == 1:
        return 1.0
    m = int(m)
    two_m = 2 * m
    n %= two_m
    half = []
    for s in _pair_block(m >> 8)[m & 255]:
        t = n * s % two_m
        if t > m:
            t = two_m - t
        if t == 0:
            half.append(1.0)
        elif t == m:
            half.append(-1.0)
        elif 2 * t == m:
            half.append(0.0)
        elif 3 * t == m:
            half.append(0.5)
        elif 3 * t == two_m:
            half.append(-0.5)
        else:
            half.append(math.cos(math.pi * (t / m)))
    return sum(half + half[::-1])


# 32 blocks hold m < 8,192, above r_k's deepest cut (5,144 at k = 12, n = 5,
# eps = 1e-14); a report's cuts, at most 112 terms, fill block 0 alone.
@functools.lru_cache(maxsize=32)
def _pair_block(b: int) -> list[tuple[int, ...]]:
    """The exponents s = a' a - c' c of `gamma_sum`, for each m in [256 b, 256 b + 256):
    one tuple per m of its coprime pairs a*c = m with a < c, in increasing a.

    One sieve over a < c with a*c in the block and gcd(a, c) = 1 fills every
    tuple, a in the outer loop, so each lists its pairs as trial division
    up to sqrt(m) would.  e = a a' is 0 mod a and 1 mod c, c c' = (1 - e)
    mod m, so s is 1 when e = 1 (a = 1) and 2e - 1 - m otherwise.  m = 0 and
    m = 1 have no such pair.
    """
    lo, hi = b << 8, (b + 1) << 8
    block = [[] for _ in range(256)]
    for a in range(1, math.isqrt(hi) + 1):
        for c in range(max(a + 1, -(-lo // a)), (hi - 1) // a + 1):
            if math.gcd(a, c) == 1:
                m = a * c
                block[m - lo].append(1 if a == 1 else 2 * a * pow(a, -1, c) - 1 - m)
    return [tuple(s) for s in block]


def divisor_count(m: int) -> int:
    """d(m), the number of positive divisors of the positive integer m.

    Each divisor a <= sqrt(m) pairs with m / a >= sqrt(m): two per pair, one
    where a = m / a.  An integral float m gives the int's count.
    """
    m = _integer("m", m, 1)
    r = math.isqrt(m)
    return 2 * sum(m % a == 0 for a in range(1, r + 1)) - (r * r == m)


_bernoulli_even: list[Fraction] = [Fraction(1)]  # B_0, B_2, B_4, ...


def bernoulli(n: int) -> Fraction:
    """The Bernoulli number B_n for even n >= 0, exactly.

    Odd n is rejected: B_n = 0 there (n > 1) and a request for it is
    almost always a misuse.  An integral float n gives the int's number.
    The table of B_0, B_2, ... at least doubles when it grows, so requests
    in ascending order cost O(n^2) integer steps in all.
    """
    n = _integer("n", n, 0, 2)
    if n // 2 >= len(_bernoulli_even):
        _bernoulli_even[:] = _even_bernoulli(max(n // 2, 2 * (len(_bernoulli_even) - 1)))
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


def zeta_even(n: int) -> float:
    """Closed form zeta(n) = |B_n| (2 pi)^n / (2 n!) for even n >= 2."""
    n = _integer("n", n, 2, 2)
    b = bernoulli(n)
    return abs(b) * (2.0 * math.pi) ** n / (2 * math.factorial(n))
