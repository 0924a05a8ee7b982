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

    The angle is pi n s / m with s = a' a - c' c from `_pair_exponents(m)`,
    found once per m and shared across n (and across weights).  n s is
    reduced exactly mod 2m, n first, so that for an integral float n or m
    (below 2^26) every product is exact and gives the int's value; the
    residue is folded into t in [0, m], and the cosine is exact
    for t / m in {0, 1, 1/2, 1/3, 2/3}.  The cosines are summed in the order
    of the sorted pairs (a, c): the half with a < sqrt(m), then its mirror,
    since the pair (c, a) negates the angle of (a, c).

    The argument check is written out rather than `errors._integer`: it runs
    once per term of `kernel.r_k`'s series, where the call would cost ~3%.
    """
    if n < 1 or m < 1 or n % 1 or m % 1:
        raise DomainError(f"gamma_sum requires positive integers n and m, got {n}, {m}")
    if m == 1:
        return 1.0
    two_m = 2 * m
    n %= two_m
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


@functools.lru_cache(maxsize=1 << 13)  # above r_k's deepest cut, 5,144 at (12, 5, 1e-14)
def _pair_exponents(m: int) -> tuple[int, ...]:
    """s = a' a - c' c for the coprime pairs a*c = m > 1 with a < sqrt(m), by a.

    e = a a' is 0 mod a and 1 mod c, c c' = (1 - e) mod m, so s is 1 when
    e = 1 (a = 1) and 2e - 1 - m otherwise.  An integral float m gives the
    int's exponents.
    """
    m = int(m)
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


def divisor_count(m: int) -> int:
    """d(m), the number of positive divisors of the positive integer m.

    Each divisor a <= sqrt(m) pairs with m / a >= sqrt(m): two per pair, one
    where a = m / a.  An integral float m gives the int's count.
    """
    m = _integer("m", m, 1)
    r = math.isqrt(m)
    return 2 * sum(m % a == 0 for a in range(1, r + 1)) - (r * r == m)


_bernoulli_cache: list[Fraction] = [Fraction(1)]  # B_0, B_1, ... (B_1 = -1/2)


def bernoulli(n: int) -> Fraction:
    """The Bernoulli number B_n for even n >= 0, exactly.

    Odd n is rejected: B_n = 0 there (n > 1) and a request for it is
    almost always a misuse.  An integral float n gives the int's number.
    """
    n = _integer("n", n, 0, 2)
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
    n = _integer("n", n, 2, 2)
    b = bernoulli(n)
    return abs(b) * (2.0 * math.pi) ** n / (2 * math.factorial(n))
