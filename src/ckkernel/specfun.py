"""Special functions with explicit error contracts.

Bessel J of half-integer order via the ascending power series, and the
upper incomplete gamma function used by the completed-L and Parseval sums.
The float Bessel series takes the orders nu <= 39/2, which hold the
kernel's (k - 1)/2, and the arguments 2^-16 <= x with x * x <= 2 nu + 2,
where its terms fall from the first, from one leading term (x/2)**nu /
Gamma(nu + 1), one pow and one quotient charged 4 _EPS relatively, to one
fixed stop threshold; there every term is a normal float.  At the kernel's
arguments n pi / m the series is also summed in exact fixed point, which
takes the larger arguments too, where it rises and cancels.

Every incomplete gamma the program takes has an integer order s = 1..60,
so Gamma(s, x) is taken in closed form: (s-1)! e^-x times a Horner sum of
positive terms with a derived first-order bar, for 0 < x <= 708, where e^-x
is a normal float; the program's largest x is 150.8 (4 pi 12, at k = 60).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .errors import DomainError, PrecisionError, _integer
from .ntheory import _EPS, ValueWithError, _alternating_fixed, _pi_power_fixed, _unchecked

__all__ = [
    "HalfIntOrder",
    "bessel_j",
    "upper_incomplete_gamma",
]

# The end of `upper_incomplete_gamma`'s domain: up to it e^-x is a normal float
# (e^-708 > 3.3e-308)
_MAX_X = 708.0
# The least Bessel argument, below the kernel's least pi / _MAX_COUNT: from it
# on the leading term is above 2.9e-118 (at nu = 39/2, x = 2^-16)
_MIN_ARG = 2.0**-16
# bessel_j's steps: at x * x <= 2 nu + 2 the product of its first 16 ratios
# (x/2)^2 / ((j + 1)(nu + j + 1)) is below 1e-19 / 1.01 for every nu <= 39/2
# (15 fall short from nu = 29/2 on), so its term is within the stop threshold
_BESSEL_STEPS = 16


@dataclass(frozen=True)
class HalfIntOrder:
    """A half-integer Bessel order nu = twice_nu / 2 with twice_nu odd, 1 to
    39, which holds the kernel's orders (k - 1)/2, k = 12..40 (an integral
    float is stored as the int); `DomainError` otherwise.  It carries the
    constants of every J_nu term, taken once: the double factorial
    twice_nu!!, Gamma(nu + 1) = twice_nu!! sqrt(pi) / 2^((twice_nu + 1) / 2)
    from it, within 2 _EPS, and the step denominators (j + 1)(nu + j + 1),
    j < _BESSEL_STEPS, of `bessel_j`, each an exact float."""

    twice_nu: int
    double_factorial: int = field(init=False, repr=False, compare=False)
    gamma_nu_plus_one: float = field(init=False, repr=False, compare=False)
    step_denominators: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        twice_nu = _integer("twice_nu", self.twice_nu, 1, 2, 39)
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


def bessel_j(nu: HalfIntOrder, x: float) -> ValueWithError:
    """J_nu(x) by the ascending series, with a certified truncation bound,
    for 2^-16 <= x, below the kernel's least argument pi / 2^16, and x * x
    <= 2 nu + 2, where the series falls from its first term; `DomainError`
    otherwise, a NaN x included.

    sum_{j>=0} (-1)^j (x/2)^(nu+2j) / (j! Gamma(nu+j+1)).  The leading term
    b_0 is (x/2)**nu / Gamma(nu + 1) in floats, pow within an ulp (glibc's
    pow, like its exp, log and cos, is documented below 1 ULP), Gamma(nu +
    1) within 2 _EPS (`HalfIntOrder`) and the quotient within _EPS / 2:
    within 3.5 _EPS relatively, and 4 _EPS covers the second-order parts.
    Step j multiplies the term by the ratio q / d_j, q = (x/2)^2 and d_j =
    (j + 1)(nu + j + 1) read from nu's `step_denominators`.  On the domain q
    <= (nu + 1) / 2 = d_0 / 2, and d_j rises with j, so every ratio is at
    most 1/2, in floats too, as 1/2 is a float and rounding is monotone: the
    series is alternating and decreasing from b_0, and the first omitted
    term bounds the tail.  The loop has no ratio test: it stops at the first
    term within 1e-19 b_0 of 0, one chained comparison per step, and
    charges that term in full.  The product of the first _BESSEL_STEPS
    ratios is below 1e-19 / 1.01 at the domain's end for every order, so
    the series stops within those steps; a loop that ran past them would
    raise `PrecisionError`.

    The j sums are charged (j + 2) _EPS max_abs, max_abs = b_0, a
    first-order bound on the series' rounding (Higham 2002, section 3.3).
    Let b_i be the computed |term i| and P_i the computed sum up to term i,
    signed like it.  Term i is off by at most 1.5 i _EPS relatively (q's
    rounding, taken i times, and i roundings each of q / d and the product),
    and sum i by |P_i| _EPS / 2, so the series is off by at most
    sum_i (1.5 i b_i + |P_i| / 2) _EPS over the sums i = 1..j, with the
    omitted term's 1.5 (j + 1) b_(j+1) _EPS.  Every ratio is at most 1/2, so
    b_i <= b_0 2^-i, and every |P_i| <= b_0 (below).  As sum_(i <= j+1)
    1.5 i 2^-i is below 3, and at most 1.5 for j < 2, the bound is below
    (3 + j/2) b_0 <= (j + 2) b_0 for j >= 2, and at most (1.5 + j/2) b_0 <
    (j + 2) b_0 for j < 2.  The error of b_0 scales the whole sum, at most
    b_0 in size, and 4 _EPS b_0 holds it.

    No partial sum exceeds b_0.  Terms alternate exactly, so P_(i+1) =
    fl(b_(i+1) - P_i); P_i is in [L_i, M], M = b_0 and L_i = fl(b_i - M) >=
    -M.  P_(i+1) >= fl(b_(i+1) - M), and b_(i+1) - L_i <= M + U/2 - (b_i -
    b_(i+1)) < M + U/2, U the float spacing above M, which rounds to at most
    M, as b falls strictly: fl(b r) < b for r <= 1/2 and normal b.

    Every term is normal: on the domain b_0 > 2.9e-118 (nu = 39/2 at x =
    2^-16), the last term kept is above the stop threshold 1e-19 b_0, and
    each ratio is above 2^-34 / (16 (39/2 + 16)), so the omitted term is
    above 1e-150.  So every rounding above is relative.
    """
    if not (_MIN_ARG <= x and x * x <= nu.twice_nu + 2):
        raise DomainError(
            f"bessel_j requires 2^-16 <= x and x * x <= 2 nu + 2, where its series falls, "
            f"got {x} at nu = {nu.nu}"
        )
    half = x / 2.0
    term = half ** (nu.twice_nu / 2.0) / nu.gamma_nu_plus_one
    lead_err = 4.0 * _EPS * term
    total = max_abs = term  # >= 0
    hi = 1e-19 * max_abs
    lo = -hi
    nq = -half * half  # term * (-q / d) is -term * (q / d), bit for bit
    steps = nu.step_denominators
    for j in range(_BESSEL_STEPS):
        term *= nq / steps[j]
        if lo <= term <= hi:  # at the break, the first omitted term
            break
        total += term
    else:
        raise PrecisionError("bessel_j series failed to converge")
    # the bar is finite and >= 0, so ValueWithError's check is skipped
    return _unchecked(total, abs(term) + ((j + 2) * _EPS * max_abs + lead_err))


def _bessel_factor_fixed(nu: HalfIntOrder, n: int, m: int) -> tuple[int, int]:
    """A fixed-point bracket (see `ntheory`) of sqrt(2 pi x) J_nu(x) at x = n pi / m.

    With nu = l + 1/2 and Gamma(l + 3/2) = (2l+1)!! sqrt(pi) / 2^(l+1), the
    ascending series is

        sqrt(2 pi x) J_nu(x) = 2 sum_j (-1)^j x^(l+1+2j) / ((2j)!! (2l+2j+1)!!),

    a polynomial in pi, summed by `ntheory._alternating_fixed` from its
    leading term 2 x^(l+1) / (2l+1)!! with the term ratio
    x^2 / ((2j + 2)(2l + 2j + 3)).  In integers its terms cancel without
    loss, where the float series of `bessel_j` loses up to 5 digits at
    x = 5 pi: the bracket is about 2^-95 wide at any x <= 16.
    """
    l = nu.twice_nu // 2
    p = l + 1
    lead = _pi_power_fixed(2 * n**p, nu.double_factorial * m**p, p)
    return _alternating_fixed(lead, _pi_power_fixed(n * n, m * m, 2), 2, 2 * l + 3)


def upper_incomplete_gamma(s: int, x: float) -> ValueWithError:
    """Gamma(s, x) = integral_x^inf t^(s-1) e^-t dt for an integer s = 1..60
    and 0 < x <= 708, where e^-x is a normal float; `DomainError` otherwise
    (nan included), s tested by `_integer` before any float operation (an
    integral float gives the int's result).

    Gamma(s, x) = (s-1)! e^-x b, b = sum_{i<s} x^i / i! (DLMF section 8.4), summed
    by Horner from the top, b = 1 + b x / j for j = s-1..1, every term
    positive.  Term i of b passes i products, i quotients and i + 1 sums
    (the last term one sum fewer), so b is off by at most
    sum_i (3 i + 1) u x^i / i! = u (b + 3 x sum_{i<s-1} x^i / i!), u = _EPS/2,
    to first order (Higham 2002, section 3.3): (1/2 + 3/2 m) _EPS b relatively,
    m = min(x, s - 1).  (s-1)! as a float, exp(-x) (glibc documents exp
    below 1 ULP) and the two products add 5/2 _EPS, and the charge
    (7/2 + 3/2 m) _EPS keeps 1/2 _EPS for the second-order parts and the
    bar's own roundings.  A product or quotient that underflows (x below
    2^-1022) is off by 2^-1075 at most against b >= 1, far inside that.
    On the domain e^-x, and so the value, is a normal float, so every
    product above rounds relatively.
    """
    s = _integer("s", s, 1, 1, 60)
    if not 0.0 < x <= _MAX_X:
        raise DomainError(f"upper_incomplete_gamma requires 0 < x <= 708, got {x}")
    b = 1.0
    for j in range(s - 1, 0, -1):
        b = 1.0 + b * x / j
    value = math.factorial(s - 1) * math.exp(-x) * b
    return ValueWithError(value, (3.5 + 1.5 * min(x, s - 1)) * _EPS * value)
