"""Central and near-central Hecke L-values via incomplete-gamma sums.

The completed value Lambda(f, s) = (2 pi)^-s Gamma(s) L(f, s) is computed
from the Mellin integral split symmetrically at t = 1:

    Lambda(f, s) = sum_n a_n [ (2 pi n)^-s Gamma(s, 2 pi n)
                               + (-1)^(k/2) (2 pi n)^(s-k) Gamma(k-s, 2 pi n) ].

The symmetric split makes the two halves exchange exactly under
s <-> k - s, so the functional-equation residual tests numerics only.
Each half is one series G(t) = sum_n a_n (2 pi n)^-t Gamma(t, 2 pi n),
summed by `gamma_series` with a certified rounding bar and a Deligne tail
from `deligne_tail`; `petersson` sums its Parseval series with the same two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, PrecisionError
from .ntheory import ValueWithError
from .qexpansion import Eigenform, eigenforms
from .specfun import _EPS, _GAMMA_ULPS, upper_incomplete_gamma

__all__ = [
    "LValue",
    "completed_l",
    "functional_equation_residual",
    "central_values",
]


@dataclass(frozen=True)
class LValue:
    """A completed and finite L-value at a real point s."""

    k: int
    s: float
    completed: ValueWithError
    finite: ValueWithError
    terms_used: int


def deligne_tail(p: float, c: float, n0: int) -> float:
    """A bound on sum_{n >= n0} n^p e^(-c n), p >= 0: the first term over
    1 - ((n0 + 1)/n0)^p e^-c, as the term ratio falls with n.

    `PrecisionError` if that ratio is >= 1.  The float result is rounded up
    past its own error: 2 (p ln n0 + c n0) _EPS in the exponent, (p/2 + 4)
    _EPS / (1 - ratio) in 1 - ratio and 2 _EPS more, relatively, plus the
    least subnormal past underflow.
    """
    ratio = ((n0 + 1) / n0) ** p * math.exp(-c)
    if ratio >= 1.0:
        raise PrecisionError(f"n^{p} e^(-{c} n) is not geometrically decreasing from n = {n0}")
    log_t0 = p * math.log(n0) - c * n0
    rel = (2.0 * (p * math.log(n0) + c * n0) + (p + 6.0) / (1.0 - ratio)) * _EPS
    return math.exp(log_t0) / (1.0 - ratio) * (1.0 + rel) + 5e-324


def gamma_series(c, s: float, lam: float, p: float) -> tuple[ValueWithError, int]:
    """sum_n c_n (lam n)^-s Gamma(s, lam n) over c_1..c_N, 1 <= s, 1 <= p < 2s + 1,
    and the number of terms summed.

    Past them |c_n| <= n^p (Deligne) and Gamma(s, x) <= 2 x^(s-1) e^-x for
    x >= 2s bound term n by (2/lam) n^(p-1) e^(-lam n), summed by
    `deligne_tail`.  The sum stops at the first n with lam (n + 1) >= 2s
    whose tail from n + 1 is at most one ulp of sum |terms|, else after c_N.

    Rounding: x = fl(lam n) is within 2 _EPS of lam n (also for a rounded
    lam = 2 pi or 4 pi), and as Gamma(s, x) >= x^(s-1) e^-x, the term's
    logarithmic derivative is at most s/x + 1: it moves by 2 (s + x) _EPS.
    The power (one ulp), two products and the rounding of c_n add 3 _EPS,
    and `math.fsum` one more.
    """
    if s < 1.0:
        raise DomainError(f"gamma_series requires s >= 1, got {s}")
    terms = []
    err = mass = 0.0
    tail = math.inf
    for n, cn in enumerate(c, 1):
        x = lam * n
        g = upper_incomplete_gamma(s, x)
        w = cn * x ** -s
        terms.append(w * g.value)
        err += abs(w) * (g.abs_err + (2.0 * (s + x) + 3.0) * _EPS * g.value)
        mass += abs(terms[-1])
        if lam * (n + 1) >= 2.0 * s:
            tail = (2.0 / lam) * deligne_tail(p - 1.0, lam, n + 1)
            if tail <= math.ulp(mass):
                break
    if tail == math.inf:
        raise PrecisionError("coefficient count too small for the tail bound")
    total = math.fsum(terms)
    return ValueWithError(total, err + _EPS * abs(total) + tail), len(terms)


def completed_l(f: Eigenform, s: float) -> LValue:
    """Lambda(f, s) with certified error, for s within 2 of the center k/2.

    G(s) + (-1)^(k/2) G(k - s), G the `gamma_series` of the a_n at rate
    2 pi, with Deligne's |a_n| <= d(n) n^((k-1)/2) <= n^((k+1)/2).
    """
    k = f.weight
    if not (k / 2 - 2 <= s <= k / 2 + 2):
        raise DomainError(f"s = {s} outside the supported strip around k/2 = {k / 2}")
    if f.n_coeffs < 30:
        raise PrecisionError("eigenform must carry at least 30 coefficients")
    root = 1.0 if k % 4 == 0 else -1.0  # (-1)^(k/2)
    g1, n1 = gamma_series(f.a, s, 2.0 * math.pi, (k + 1) / 2)
    g2, n2 = (g1, n1) if k - s == s else gamma_series(f.a, k - s, 2.0 * math.pi, (k + 1) / 2)
    total = g1.value + root * g2.value
    err = g1.abs_err + g2.abs_err + _EPS * abs(total)
    completed = ValueWithError(total, err)
    # (2 pi)^s / Gamma(s): s math.pi errors (each under _EPS / 4), then the
    # power (one ulp), math.gamma and the quotient; the product with total
    # rounds once more, and 1 + 2 rel covers the bar's own roundings
    conv = (2.0 * math.pi) ** s / math.gamma(s)
    rel = (s / 4 + 1.5 + _GAMMA_ULPS) * _EPS
    bar = conv * (err + (rel + _EPS) * abs(total)) * (1.0 + 2.0 * rel)
    finite = ValueWithError(conv * total, bar)
    return LValue(k=k, s=s, completed=completed, finite=finite, terms_used=max(n1, n2))


def functional_equation_residual(f: Eigenform, s: float) -> float:
    """|Lambda(f, s) - (-1)^(k/2) Lambda(f, k - s)|."""
    root = 1.0 if f.weight % 4 == 0 else -1.0
    lhs = completed_l(f, s).completed.value
    rhs = completed_l(f, f.weight - s).completed.value
    return abs(lhs - root * rhs)


def central_values(
    k: int, eps: float = 1e-10, n_coeffs: int = 60
) -> list[tuple[Eigenform, ValueWithError]]:
    """L(f, k/2) for every eigenform f of weight k."""
    if k < 12 or k % 2:
        raise DomainError(f"central_values requires even k >= 12, got {k}")
    out = []
    for f in eigenforms(k, n_coeffs):
        lv = completed_l(f, k / 2)
        if lv.finite.abs_err > eps:
            raise PrecisionError(
                f"central value error {lv.finite.abs_err} exceeds target {eps}"
            )
        out.append((f, lv.finite))
    return out
