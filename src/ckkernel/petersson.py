"""Petersson inner products over the fundamental domain.

The domain {|x| <= 1/2, |tau| >= 1} is split at y = 1.  Over a full period
the x integral of e^(2 pi i (m - n) x) is delta_mn, so the region y >= 1 is
in closed form (Parseval)

    sum_n a_n b_n (4 pi n)^(1-k) Gamma(k-1, 4 pi n),

summed over the computed coefficients with a Deligne bound past them.
Only the arc strip sqrt(1 - x^2) <= y <= 1, of area 1 - pi/6 - sqrt(3)/4
~ 0.043, is left to tensor-product Gauss-Legendre nodes.  The measure is
the unnormalized y^k dx dy / y^2; no volume factor is applied.

In this normalization the kernel coefficient of `kernel.r_k` satisfies

    r_k(n) = sum_f L*(f, k/2) a_f(n) / (16 Gamma(k/2) ||f||^2),

with L*(f, s) = (2 pi)^-s Gamma(s) L(f, s), the sum running over the
normalized Hecke eigenforms of weight k (Kohnen's identity, see
`triangle_check`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PrecisionError
from .kernel import r_k
from .lfunction import central_values
from .ntheory import ValueWithError
from .qexpansion import Eigenform
from .specfun import upper_incomplete_gamma

__all__ = [
    "QuadratureSpec",
    "default_spec",
    "petersson_inner",
    "petersson_norm_sq",
    "TriangleCheck",
    "triangle_check",
]

_MIN_Y = math.sqrt(3.0) / 2.0
_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre node counts in x and y for the arc strip below y = 1."""

    x_nodes: int = 40
    y_nodes: int = 48

    def __post_init__(self):
        if self.x_nodes < 8 or self.y_nodes < 8:
            raise DomainError("x_nodes and y_nodes must be >= 8")


def default_spec(k: int) -> QuadratureSpec:
    """The spec `petersson_inner` uses when given none: `QuadratureSpec()` for every k.

    The quadrature covers only the arc strip, where sqrt(3)/2 <= y <= 1, so
    no node count depends on the weight.
    """
    return QuadratureSpec()


def _series_truncation(f: Eigenform, y: float) -> float:
    """Bound on |sum_{n > N} a_n q^n| at height y, via Deligne's bound
    |a_n| <= d(n) n^((k-1)/2) <= n^((k+1)/2) for the normalized eigenform f."""
    k = f.weight
    n0 = f.n_coeffs + 1
    log_t0 = ((k + 1) / 2) * math.log(n0) - 2.0 * math.pi * y * n0
    ratio = ((n0 + 1) / n0) ** ((k + 1) / 2) * math.exp(-2.0 * math.pi * y)
    if ratio >= 1.0:
        raise PrecisionError("q-series does not decay at the requested height")
    t0 = math.exp(log_t0) if log_t0 > -745 else 0.0
    return t0 / (1.0 - ratio)


def _parseval(f: Eigenform, g: Eigenform, k: int) -> ValueWithError:
    """The region y >= 1: sum_n a_n b_n (4 pi n)^(1-k) Gamma(k-1, 4 pi n).

    x = fl(4 pi n) is within 2 _EPS of 4 pi n, and since Gamma(s, x) >=
    x^(s-1) e^-x for s >= 1, x^(1-k) Gamma(k-1, x) has logarithmic
    derivative at most (k - 1)/x + 1: the term moves by at most
    2 (k - 1 + x) _EPS.  The power (one ulp) and three products add 2.5 _EPS
    beside Gamma's own bar, and `math.fsum` rounds once.  Past N, Deligne
    gives |a_n b_n| <= (d(n) n^((k-1)/2))^2 <= n^(k+1), and Gamma(k-1, x) <=
    2 x^(k-2) e^-x for x >= 2(k-1): term n is at most 2 n^(k+1) e^(-4 pi n) /
    (4 pi n), at least geometrically decreasing.
    """
    n_max = min(f.n_coeffs, g.n_coeffs)
    n0 = n_max + 1
    ratio = ((n0 + 1) / n0) ** k * math.exp(-4.0 * math.pi)
    if 4.0 * math.pi * n0 < 2.0 * (k - 1) or ratio >= 1.0:
        raise PrecisionError("coefficient count too small for the Parseval tail bound")
    terms = []
    err = 0.0
    for n in range(1, n_max + 1):
        x = 4.0 * math.pi * n
        gi = upper_incomplete_gamma(k - 1, x)
        w = f.a[n - 1] * g.a[n - 1] * x ** (1 - k)
        terms.append(w * gi.value)
        err += abs(w) * (gi.abs_err + (2.0 * (k + x) + 1.0) * _EPS * gi.value)
    total = math.fsum(terms)
    log_t0 = math.log(2.0 / (4.0 * math.pi * n0)) + (k + 1) * math.log(n0) - 4.0 * math.pi * n0
    tail = math.exp(log_t0) / (1.0 - ratio) if log_t0 > -745 else 0.0
    return ValueWithError(total, err + _EPS * abs(total) + tail)


def _eval_grid(f: Eigenform, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f(x + iy) and sum_n |a_n| |q|^n on broadcastable arrays, by Horner summation."""
    q = np.exp(2j * np.pi * x - 2.0 * np.pi * y)
    r = np.abs(q)
    acc = np.full(q.shape, f.a[-1], dtype=complex)
    acc_abs = np.full(r.shape, abs(f.a[-1]))
    for n in range(f.n_coeffs - 1, 0, -1):
        acc = acc * q + f.a[n - 1]
        acc_abs = acc_abs * r + abs(f.a[n - 1])
    return acc * q, acc_abs * r


@functools.lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], built once per n.

    The arrays are read-only, so no caller can alter the memoized rule.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _arc_value(
    f: Eigenform, g: Eigenform, k: int, spec: QuadratureSpec
) -> tuple[complex, float]:
    """The quadrature sum of f conj(g) y^(k-2) over the arc strip, y from
    sqrt(1 - x^2) to 1 per x node, and a bound on its float rounding.

    The node arguments carry an absolute error of at most (4 pi y + 2 pi) u,
    so |q| is off by a relative (4 pi y + 10) u after exp; a Horner step
    adds at most (sqrt 5 + 1) u < 6 u relative to the absolute series.  The
    term a_n q^n passes through n of each, so with y <= 1 |f - fl(f)| is at
    most n_coeffs (4 pi + 16) u F_abs, likewise for g.  The product with
    y^(k-2) and the weights adds 10 u, and summing the x_nodes y_nodes
    nonnegative-weight terms at most one u per node; all of it is relative
    to the mass sum w F_abs G_abs y^(k-2).
    """
    xn, xw = _gauss_legendre(spec.x_nodes)
    yn, yw = _gauss_legendre(spec.y_nodes)
    xs = 0.5 * xn  # [-1/2, 1/2]
    lo = np.sqrt(1.0 - xs**2)
    halfs = 0.5 * (1.0 - lo)  # (nx,)
    ya = lo[:, None] + halfs[:, None] * (yn[None, :] + 1.0)  # (nx, ny)
    wa = (0.5 * xw * halfs)[:, None] * yw[None, :]
    fv, fa = _eval_grid(f, xs[:, None], ya)
    gv, ga = (fv, fa) if g is f else _eval_grid(g, xs[:, None], ya)
    wyk = wa * ya ** (k - 2)
    per_term = (f.n_coeffs + g.n_coeffs) * (4.0 * math.pi + 16.0) + 10.0
    rounding = (spec.x_nodes * spec.y_nodes + per_term) * _EPS * float(np.sum(fa * ga * wyk))
    return complex(np.sum(fv * np.conj(gv) * wyk)), rounding


def petersson_inner(
    f: Eigenform, g: Eigenform, spec: QuadratureSpec | None = None
) -> ValueWithError:
    """(f, g) over the fundamental domain, unnormalized measure."""
    if f.weight != g.weight:
        raise DomainError("inner product requires equal weights")
    k = f.weight
    spec = spec or default_spec(k)

    trunc_f = _series_truncation(f, _MIN_Y)
    trunc_g = _series_truncation(g, _MIN_Y)
    fmax = sum(abs(a) * math.exp(-2.0 * math.pi * n * _MIN_Y) for n, a in enumerate(f.a, 1))
    gmax = sum(abs(a) * math.exp(-2.0 * math.pi * n * _MIN_Y) for n, a in enumerate(g.a, 1))
    if trunc_f > 1e-12 * max(1.0, fmax) or trunc_g > 1e-12 * max(1.0, gmax):
        raise PrecisionError("not enough coefficients for the q-decay requirement")
    # the arc strip has area 1 - pi/6 - sqrt(3)/4 < 1, and y^(k-2) <= 1 on it
    trunc_err = trunc_f * gmax + trunc_g * fmax + trunc_f * trunc_g

    upper = _parseval(f, g, k)
    full, r_full = _arc_value(f, g, k, spec)
    coarse, r_coarse = _arc_value(
        f, g, k, QuadratureSpec(max(8, 2 * spec.x_nodes // 3), max(8, 2 * spec.y_nodes // 3))
    )
    # estimate: the exact full-grid sum is within 2 |full - coarse| of the integral;
    # the float sums are off from the exact ones by at most r_full and r_coarse,
    # once in the value itself and twice each through the estimate
    quad_err = 2.0 * abs(full - coarse) + 3.0 * r_full + 2.0 * r_coarse

    value = upper.value + full.real
    err = upper.abs_err + quad_err + trunc_err + abs(full.imag) + _EPS * abs(value)
    return ValueWithError(value, err)


def petersson_norm_sq(f: Eigenform, spec: QuadratureSpec | None = None) -> ValueWithError:
    """The squared Petersson norm of f."""
    return petersson_inner(f, f, spec)


@dataclass(frozen=True)
class TriangleCheck:
    """Kernel coefficient vs. spectral sum for r_k(1), with their ratio."""

    k: int
    lhs: ValueWithError  # r_k(1) from the kernel series
    rhs: ValueWithError  # sum_f L*(f, k/2) / (16 Gamma(k/2) ||f||^2), Kohnen's identity at n = 1
    ratio: float


def triangle_check(k: int, eps: float = 1e-10, spec: QuadratureSpec | None = None) -> TriangleCheck:
    """Compare r_k(1) against the spectral sum that Kohnen's identity equates it to.

    Kohnen (J. Number Theory 67 (1997), after Cohen 1981) states, for the
    normalized Hecke eigenforms f of weight k and this module's Petersson
    norm,

        2 (2 pi)^(k/2) Gamma(k/2) n^(k/2-1) rho_k(n)
            = c_k sum_f L*(f, k/2) a_f(n) / ||f||^2,
        c_k = (-1)^(k/2) pi (k-2)! / 2^(k-2),  L*(f, s) = (2 pi)^-s Gamma(s) L(f, s).

    With r_k(n) = (8 pi)^(k/2-1) n^(k/2-1) rho_k(n) / (4 (k-2)!) and
    (-1)^(k/2) = 1 for k ≡ 0 (mod 4), the powers of 2 and pi cancel to

        r_k(n) = sum_f L*(f, k/2) a_f(n) / (16 Gamma(k/2) ||f||^2),

    and at n = 1, where a_f(1) = 1 and L*(f, k/2) / Gamma(k/2) =
    (2 pi)^(-k/2) L(f, k/2), the right side is
    sum_f L(f, k/2) / ||f||^2 / (16 (2 pi)^(k/2)).  Both sides are carried
    with explicit error bounds.  The ratio is reported as measured; no
    constant is fitted to it.
    """
    if k % 4 != 0 or not (12 <= k <= 40):
        raise DomainError(f"triangle_check covers k ≡ 0 (mod 4), 12 <= k <= 40, got {k}")
    lhs = r_k(k, 1, eps).value
    scale = 1.0 / (16.0 * (2.0 * math.pi) ** (k / 2))
    rhs_val = 0.0
    rhs_err = 0.0
    for f, lv in central_values(k, eps):
        norm = petersson_norm_sq(f, spec)
        rhs_val += scale * lv.value / norm.value
        rhs_err += scale * (
            lv.abs_err / abs(norm.value)
            + abs(lv.value) * norm.abs_err / norm.value**2
        )
    rhs = ValueWithError(rhs_val, rhs_err + 4 * _EPS * abs(rhs_val))
    return TriangleCheck(k=k, lhs=lhs, rhs=rhs, ratio=lhs.value / rhs.value)
