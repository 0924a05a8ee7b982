"""Central and near-central Hecke L-values via incomplete-gamma sums.

The completed value Lambda(f, s) = (2 pi)^-s Gamma(s) L(f, s) is computed
from the Mellin integral split symmetrically at t = 1:

    Lambda(f, s) = sum_n a_n [ (2 pi n)^-s Gamma(s, 2 pi n)
                               + (-1)^(k/2) (2 pi n)^(s-k) Gamma(k-s, 2 pi n) ].

The symmetric split makes the two halves exchange exactly under
s <-> k - s, so the functional-equation residual tests numerics only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, PrecisionError
from .ntheory import ValueWithError
from .qexpansion import Eigenform, eigenforms
from .specfun import upper_incomplete_gamma

__all__ = [
    "LValue",
    "completed_l",
    "functional_equation_residual",
    "central_values",
]

_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class LValue:
    """A completed and finite L-value at a real point s."""

    k: int
    s: float
    completed: ValueWithError
    finite: ValueWithError
    terms_used: int


def _tail_bound(f: Eigenform, s: float) -> float:
    """Bound on the sum over n > N of both incomplete-gamma halves.

    Uses Gamma(t, x) <= 2 x^(t-1) e^-x for x >= 2t, which holds for every
    n past the computed range here, and Deligne's bound |a_n| <= d(n) n^((k-1)/2)
    for the normalized eigenform f (La conjecture de Weil I, 1974), so each
    half of term n is at most 2 d(n) n^((k-1)/2) e^(-2 pi n) / (2 pi n).
    """
    k = f.weight
    n0 = f.n_coeffs + 1
    if 2.0 * math.pi * n0 < 2.0 * max(s, k - s):
        raise PrecisionError("coefficient count too small for the tail bound")
    # d(n) <= n; first term of a ratio-bounded geometric sum
    log_t0 = (
        math.log(4.0)
        + ((k - 1) / 2 + 1) * math.log(n0)
        - 2.0 * math.pi * n0
        - math.log(2.0 * math.pi * n0)
    )
    ratio = ((n0 + 1) / n0) ** ((k + 1) / 2 + 1) * math.exp(-2.0 * math.pi)
    t0 = math.exp(log_t0) if log_t0 > -745 else 0.0
    return t0 / (1.0 - ratio)


def completed_l(f: Eigenform, s: float) -> LValue:
    """Lambda(f, s) with certified error, for s within 2 of the center k/2."""
    k = f.weight
    if not (k / 2 - 2 <= s <= k / 2 + 2):
        raise DomainError(f"s = {s} outside the supported strip around k/2 = {k / 2}")
    if f.n_coeffs < 30:
        raise PrecisionError("eigenform must carry at least 30 coefficients")
    root = 1.0 if k % 4 == 0 else -1.0  # (-1)^(k/2)
    total = 0.0
    err = 0.0
    abs_acc = 0.0
    for n in range(1, f.n_coeffs + 1):
        x = 2.0 * math.pi * n
        a = f.coefficient(n)
        g1 = upper_incomplete_gamma(s, x)
        g2 = upper_incomplete_gamma(k - s, x)
        w1 = x ** (-s)
        w2 = x ** (s - k)
        term = a * (w1 * g1.value + root * w2 * g2.value)
        total += term
        err += abs(a) * (w1 * g1.abs_err + w2 * g2.abs_err)
        abs_acc += abs(a) * (w1 * abs(g1.value) + w2 * abs(g2.value))
    err += _tail_bound(f, s)
    err += (f.n_coeffs + 4) * _EPS * abs_acc
    completed = ValueWithError(total, err)
    conv = math.exp(s * math.log(2.0 * math.pi) - math.lgamma(s))
    finite = ValueWithError(conv * total, conv * err + 4 * _EPS * conv * abs(total))
    return LValue(k=k, s=s, completed=completed, finite=finite, terms_used=f.n_coeffs)


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
