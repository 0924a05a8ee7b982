"""Integer and arithmetic-function kernels.

The cosine sums gamma_n(m) over the coprime factor pairs of m, divisor
counts, exact Bernoulli numbers and the closed form of zeta at even
integers.  The exponents a' a - c' c of the coprime pairs of m are found
once per m (a bounded memo) and shared across every n and weight k that
asks for gamma_n(m).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

__all__ = [
    "ValueWithError",
    "gamma_sum",
    "factorize",
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

    The angle is pi n s / m with s = a' a - c' c from `_pair_exponents(m)`,
    found once per m and shared across n (and across weights).  n s is
    reduced exactly mod 2m and folded into t in [0, m]; the cosine is exact
    for t / m in {0, 1, 1/2, 1/3, 2/3}.  The cosines are summed in the order
    of the sorted pairs (a, c): the half with a < sqrt(m), then its mirror,
    since the pair (c, a) negates the angle of (a, c).
    """
    if n < 1 or m < 1:
        raise DomainError("gamma_sum requires positive n and m")
    if m == 1:
        return 1.0
    two_m = 2 * m
    half = []
    for s in _pair_exponents(m):
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


@functools.lru_cache(maxsize=1 << 13)  # the deepest m_stop r_k reaches
def _pair_exponents(m: int) -> tuple[int, ...]:
    """s = a' a - c' c for the coprime pairs a*c = m > 1 with a < sqrt(m), by a.

    e = a a' is 0 mod a and 1 mod c, c c' = (1 - e) mod m, so s is 1 when
    e = 1 (a = 1) and 2e - 1 - m otherwise.
    """
    out = []
    for a in range(1, math.isqrt(m) + 1):
        if m % a:
            continue
        c = m // a
        if math.gcd(a, c) != 1:
            continue
        e = a * pow(a, -1, c)
        out.append(1 if e == 1 else 2 * e - 1 - m)
    return tuple(out)


def factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization of m >= 1 as (prime, exponent) pairs, by trial division."""
    if m < 1:
        raise DomainError("m must be a positive integer")
    out = []
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    p = 5
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 2 if p % 6 == 5 else 4  # 5, 7, 11, 13, ... (skip multiples of 3)
    if m > 1:
        out.append((m, 1))
    return out


def divisor_count(m: int) -> int:
    """d(m), the number of positive divisors of m."""
    d = 1
    for _, e in factorize(m):
        d *= e + 1
    return d


_bernoulli_cache: list[Fraction] = [Fraction(1)]  # B_0, B_1, ... (B_1 = -1/2)


def bernoulli(n: int) -> Fraction:
    """The Bernoulli number B_n for even n >= 0, exactly.

    Odd n is rejected: B_n = 0 there (n > 1) and a request for it is
    almost always a misuse.
    """
    if n < 0 or n % 2:
        raise DomainError(f"bernoulli requires even n >= 0, got {n}")
    while len(_bernoulli_cache) <= n:
        # sum_{j=0}^{m} C(m+1, j) B_j = 0  for m >= 1
        m = len(_bernoulli_cache)
        acc = Fraction(0)
        for j, bj in enumerate(_bernoulli_cache):
            acc += math.comb(m + 1, j) * bj
        _bernoulli_cache.append(-acc / (m + 1))
    return _bernoulli_cache[n]


def zeta_even(n: int) -> float:
    """Closed form zeta(n) = |B_n| (2 pi)^n / (2 n!) for even n >= 2."""
    if n < 2 or n % 2:
        raise DomainError("zeta_even requires even n >= 2")
    b = bernoulli(n)
    return abs(b) * (2.0 * math.pi) ** n / (2 * math.factorial(n))
