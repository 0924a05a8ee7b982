"""The Cohen-Kohnen kernel coefficient engine.

Evaluates the normalized bracket

    rho_k(n) = 1 + (-1)^(k/4+n) sqrt(2 pi) sum_m g_n(m) sqrt(n pi / m) J_{(k-1)/2}(n pi / m)

where g_n(m) is the cosine sum over coprime pairs a*c = m in which, for
m > 1, the boundary pairs (1, m) and (m, 1) carry (-1)^n cos(pi n / m).
`ntheory.gamma_sum` gives those two pairs cos(pi n / m), so
g_n(m) = gamma_n(m) + ((-1)^n - 1) 2 cos(pi n / m), and g_n(1) = 1.
Even n is unaffected.  The coefficient is

    r_k(n) = (8 pi)^(k/2-1) n^(k/2-1) rho_k(n) / (4 (k-2)!),

and with L*(f, s) = (2 pi)^-s Gamma(s) L(f, s) over the Hecke eigenforms
of weight k it equals sum_f L*(f, k/2) a_f(n) / (16 Gamma(k/2) ||f||^2)
(Kohnen, J. Number Theory 67 (1997), after Cohen 1981; see
`petersson.triangle_check`).  The module also carries a certified
truncation tail, the per-weight and global deviation bounds, and the
non-vanishing certificate for r_k(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, PrecisionError
from .ntheory import ValueWithError, gamma_sum, zeta_even
from .specfun import _EPS, MAX_SERIES_ARG, HalfIntOrder, bessel_envelope, bessel_j

__all__ = [
    "KernelCoefficient",
    "Certificate",
    "r_k",
    "series_tail_bound",
    "per_k_bound",
    "global_bound",
    "certify",
]

# 16 / 210^(1/3) = 2.69182538518..., rounded up: 2^omega(m) <= _OMEGA_C m^(1/3)
_OMEGA_C = 2.69183


def _check_weight(k: int) -> None:
    if k % 4 != 0 or k < 12:
        raise DomainError(f"weight must satisfy k ≡ 0 (mod 4) and k >= 12, got {k}")


@dataclass(frozen=True)
class KernelCoefficient:
    """r_k(n) together with its normalized bracket and truncation data."""

    k: int
    n: int
    rho: ValueWithError
    log_prefactor: float  # ln[(8 pi)^(k/2-1) / (4 (k-2)!) * n^(k/2-1)]
    value: ValueWithError  # r_k(n) = exp(log_prefactor) * rho
    terms_used: int


@dataclass(frozen=True)
class Certificate:
    """Per-weight non-vanishing verdict for r_k(1)."""

    k: int
    rho: ValueWithError
    per_k_bound: float
    global_bound: float
    nonvanishing: bool
    sign: int  # +1 / -1, 0 when undetermined


def series_tail_bound(k: int, n: int, m_stop: int) -> float:
    """Certified bound on sqrt(2 pi) |sum_{m > m_stop} g_n(m) sqrt(n pi/m) J(n pi/m)|.

    g_n(m) is a sum of 2^omega(m) unit cosines, one per coprime pair, and
    |J_nu(x)| <= (x/2)^nu / Gamma(nu + 1) = envelope(nu, x), so with
    nu = (k-1)/2 the m-th term is at most
    2^omega(m) sqrt(n pi/m) envelope(nu, n pi/m) = A 2^omega(m) m^(-k/2),
    A = sqrt(n pi) envelope(nu, n pi).

    2^omega(m) <= C m^(1/3) with C = prod_{p in {2,3,5,7}} 2/p^(1/3)
    = 16/210^(1/3): 2^omega(m) / m^(1/3) = prod_{p^e || m} 2/p^(e/3) is at
    most prod_{p | m} 2/p^(1/3), and 2/p^(1/3) > 1 only for p < 8.  The
    term is then at most A C m^(1/3-k/2), which decreases in m, so the
    tail is at most the integral from m_stop,
    A C m_stop^(4/3-k/2) / (k/2 - 4/3).  _OMEGA_C is C rounded up by
    1.7e-6 relative, which covers the few roundings of this evaluation.
    """
    x = n * math.pi
    a = math.sqrt(x) * bessel_envelope(HalfIntOrder.for_weight(k), x)
    return math.sqrt(2 * math.pi) * a * _OMEGA_C * m_stop ** (4 / 3 - k / 2) / (k / 2 - 4 / 3)


def r_k(k: int, n: int, eps: float = 1e-10) -> KernelCoefficient:
    """The kernel Fourier coefficient r_k(n) with certified absolute error on rho.

    The m-series is truncated once the certified tail drops below eps/2.
    Only that tail is held to eps: the Bessel and float-rounding parts of
    the bar grow with n pi and are not (r_k(12, 5, 1e-10) has a 4.1e-9 bar).
    """
    _check_weight(k)
    if k > 40:
        raise DomainError(f"weights above 40 are out of certified scope, got {k}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not eps >= 1e-14:
        raise PrecisionError(f"eps below 1e-14 is not achievable in double precision")
    if n * math.pi > MAX_SERIES_ARG:
        raise PrecisionError(
            f"n = {n} puts the Bessel argument past the ascending-series contract"
        )
    nu = HalfIntOrder.for_weight(k)
    sqrt_2pi = math.sqrt(2 * math.pi)
    sign = -1 if (k // 4 + n) % 2 else 1

    m_stop = 8
    while series_tail_bound(k, n, m_stop) >= eps / 2 and m_stop < 1 << 22:
        m_stop *= 2
    tail = series_tail_bound(k, n, m_stop)
    if tail >= eps / 2:
        raise PrecisionError("could not reach the requested tail bound")

    series = 0.0
    bessel_err = 0.0
    abs_acc = 0.0
    n_pi = n * math.pi
    odd = n % 2
    for m in range(1, m_stop + 1):
        x = n_pi / m
        g = gamma_sum(n, m)
        if odd and m > 1:
            # boundary pairs (1, m), (m, 1): (-1)^n cos(pi n/m) in g_n, cos(pi n/m) in gamma_n
            g -= 4.0 * math.cos(x)
        j = bessel_j(nu, x)
        w = math.sqrt(x)
        gw = abs(g) * w
        series += g * w * j.value
        bessel_err += gw * j.abs_err
        abs_acc += gw * abs(j.value)

    deviation = sign * sqrt_2pi * series
    float_err = (m_stop + 4) * _EPS * (sqrt_2pi * abs_acc + 1.0)
    rho_err = sqrt_2pi * bessel_err + tail + float_err
    rho = ValueWithError(1.0 + deviation, rho_err)

    h = k // 2 - 1
    # h math.pi errors in the power, then the power, the correctly rounded int
    # quotient and the product round once each: pref is within rel of exact
    pref = (8.0 * math.pi) ** h * (n**h / (4 * math.factorial(k - 2)))
    rel = (h / 4 + 3) * _EPS
    # pref * rho rounds once more; the factor 1 + 2 rel covers pref's error in
    # the first term and the four roundings of the bar itself
    bar = pref * (rho.abs_err + (rel + _EPS) * abs(rho.value)) * (1.0 + 2.0 * rel)
    value = ValueWithError(pref * rho.value, bar)
    return KernelCoefficient(k=k, n=n, rho=rho, log_prefactor=math.log(pref),
                             value=value, terms_used=m_stop)


def _deviation_bound(scale: float, scale_ulps: float, n: int) -> float:
    """2 scale zeta(n)^2 for even n, rounded up into a true upper bound.

    scale is within scale_ulps _EPS of its exact value, relatively.  In
    `zeta_even` the power (2 pi)^n carries n times math.pi's relative error
    (under _EPS / 4), and float(B_n), the power, the product, float(2 n!)
    and the quotient round once each: zeta(n) is within (n / 4 + 3) _EPS.
    The four roundings below add 2 _EPS.
    """
    z = zeta_even(n)
    rel = (scale_ulps + 2 * (n / 4 + 3) + 2) * _EPS
    return 2.0 * scale * z * z * (1.0 + rel)


def per_k_bound(k: int) -> float:
    """2 (2 pi)^(k/2) ((k/2)! / k!) zeta(k/2)^2: the weight-k deviation bound."""
    _check_weight(k)
    if k > 40:
        raise DomainError(f"weights above 40 are out of certified scope, got {k}")
    h = k // 2
    # h math.pi errors in the power, then the power, quotient and product round once each
    scale = (2.0 * math.pi) ** h * (math.factorial(h) / math.factorial(k))
    return _deviation_bound(scale, h / 4 + 2, h)


def global_bound() -> float:
    """2 (2 pi / 7) (2 pi / 8)^5 zeta(6)^2, the weight-uniform deviation bound (< 1)."""
    # 6 math.pi errors, then the quotient by 7, the power and the product round once each
    return _deviation_bound((2 * math.pi / 7.0) * (2 * math.pi / 8.0) ** 5, 4, 6)


def certify(k: int, eps: float = 1e-10) -> Certificate:
    """Certify that the bracket rho_k(1) (hence r_k(1), hence L(f_k, k/2)) is nonzero."""
    coeff = r_k(k, 1, eps)
    rho = coeff.rho
    bound = per_k_bound(k)
    if rho.value < 1.0 - bound - rho.abs_err:
        raise PrecisionError(
            f"rho fell below the certified window 1 - per_k_bound for k={k}; "
            "this contradicts the deviation bound"
        )
    nonvanishing = rho.excludes_zero()
    sign = 0
    if nonvanishing:
        sign = 1 if rho.value > 0 else -1
    return Certificate(
        k=k,
        rho=rho,
        per_k_bound=bound,
        global_bound=global_bound(),
        nonvanishing=nonvanishing,
        sign=sign,
    )
