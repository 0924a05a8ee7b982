"""Petersson inner products over the fundamental domain.

The domain {|x| <= 1/2, |tau| >= 1} is split at y = 1.  Over a full period
the x integral of e^(2 pi i (m - n) x) is delta_mn, so the region y >= 1 is
in closed form (Parseval)

    sum_n a_n b_n (4 pi n)^(1-k) Gamma(k-1, 4 pi n),

summed by `lfunction.gamma_series` with a Deligne tail past the coefficients.
What is left is the arc strip {sqrt(3)/2 <= y <= 1, sqrt(1 - y^2) <= |x| <= 1/2},
of area 1 - pi/6 - sqrt(3)/4 ~ 0.043.  Across it the x integral of each
Fourier term is in closed form too, and y = cos theta turns the strip into
one entire integrand on theta in [0, pi/6]: one Gauss-Legendre rule in pure
Python (`_arc_value`), whose remainder is proven by the Bernstein-ellipse
theorem rather than estimated.  The measure is the unnormalized
y^k dx dy / y^2; no volume factor is applied.

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
from itertools import accumulate, repeat
from operator import mul
from typing import NamedTuple

from .errors import DomainError, PrecisionError
from .kernel import r_k
from .lfunction import central_values, deligne_tail, gamma_series
from .ntheory import ValueWithError
from .qexpansion import Eigenform
from .specfun import _EPS

__all__ = [
    "QuadratureSpec",
    "default_spec",
    "petersson_inner",
    "petersson_norm_sq",
    "TriangleCheck",
    "triangle_check",
]

_MIN_Y = math.sqrt(3.0) / 2.0
_H = math.pi / 12.0  # theta = _H (1 + t) maps t in [-1, 1] onto [0, pi/6]
_ARC_AREA = 0.0434  # 1 - pi/6 - sqrt(3)/4 = 0.04338..., rounded up
# Bernstein-ellipse parameters tried; each keeps _H (1 + (rho + 1/rho)/2) < pi/2
_RHO = tuple(2.0 ** (j / 4) for j in range(1, 14))
# `_gauss_legendre`'s charge: nodes within _NODE_ULPS _EPS, weights within
# _WEIGHT_ULPS n^2 _EPS relatively
_NODE_ULPS = 1.0
_WEIGHT_ULPS = 4.0


@dataclass(frozen=True)
class QuadratureSpec:
    """The Gauss-Legendre node count of the arc strip, in theta with y = cos theta."""

    y_nodes: int = 30

    def __post_init__(self):
        if self.y_nodes < 8:
            raise DomainError("y_nodes must be >= 8")

    @property
    def x_nodes(self) -> int:
        """1, as the x integral is in closed form.  Read-only; it exists only
        for perfbench's grid-point counter, which still reads both counts."""
        return 1


def default_spec(k: int) -> QuadratureSpec:
    """The spec `petersson_inner` uses when given none: 10 + k // 2 nodes, at
    which the proven remainder of `_arc_value` is <= 1e-14 of the norm for
    every eigenform of weight k <= 40 (the spec's own default is k = 40's)."""
    return QuadratureSpec(y_nodes=10 + k // 2)


def _parseval(f: Eigenform, g: Eigenform, k: int) -> ValueWithError:
    """The region y >= 1: sum_n a_n b_n (4 pi n)^(1-k) Gamma(k-1, 4 pi n), with
    Deligne's |a_n b_n| <= (d(n) n^((k-1)/2))^2 <= n^(k+1) past the coefficients."""
    return gamma_series([a * b for a, b in zip(f.a, g.a)], k - 1, 4.0 * math.pi, k + 1)[0]


def _legendre(n: int, x: float) -> tuple[float, float, float]:
    """P_n(x), P_(n-1)(x) and P_(n-2)(x) by the three-term recurrence, n >= 2."""
    p2, p1, p0 = 0.0, 1.0, x
    for j in range(2, n + 1):
        p2, p1, p0 = p1, p0, ((2 * j - 1) * x * p0 - (j - 1) * p1) / j
    return p0, p1, p2


@functools.lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], ascending, built once per n.

    Newton's method on the recurrence for P_n, from cos(pi (i + 3/4) / (n + 1/2)),
    stops once a step is below one ulp of 1; the rule is mirrored, so it is
    exactly symmetric.  The weight 2 (1 - x^2) / (n P_(n-1)(x))^2 is taken at
    the true root x* = x - d, d = P_n(x) / P_n'(x) being the step not taken:
    1 - x*^2 = (1 - x)(1 + x) + 2 x d and P_(n-1)(x*) = P_(n-1)(x) - P_(n-1)'(x) d,
    to first order.  Charge: each node is within _NODE_ULPS _EPS of the true one;
    each weight within _WEIGHT_ULPS n^2 _EPS of it, relatively, as the
    recurrence's O(n) ulps of rounding are relative to |P_(n-1)(x*)| >= ~1/n at
    the outermost nodes.  The rule's tests check both charges against 50-digit
    rules, and against an independent float construction of the rule, whose
    outermost weights are themselves off by up to ~2.5 n^2 ulps.  Tuples, so
    no caller can alter the memoized rule.
    """
    half = []
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, q, _r = _legendre(n, x)
            step = p * (x * x - 1.0) / (n * (x * p - q))
            x -= step
            if abs(step) <= _EPS:
                break
        else:
            raise PrecisionError(f"Newton's method for the {n}-point Gauss rule did not settle")
        p, q, r = _legendre(n, x)
        one_minus = (1.0 - x) * (1.0 + x)
        d = -p * one_minus / (n * (x * p - q))
        dq = -(n - 1) * (x * q - r) / one_minus
        half.append((x, 2.0 * (one_minus + 2.0 * x * d) / (n * (q - dq * d)) ** 2))
    mid = [(0.0, 2.0 / (n * _legendre(n - 1, 0.0)[0]) ** 2)] if n % 2 else []
    rule = [(-x, w) for x, w in half] + mid + half[::-1]
    return tuple(x for x, _ in rule), tuple(w for _, w in rule)


def _majorant(fm, gm, t: float) -> float:
    """A(t) B(t), where A(t) = sum_n fm_n e^(-2 pi n t) over magnitudes
    fm_n = |a_n| and B likewise over gm, by Horner summation in e^(-2 pi t);
    A^2 when gm is fm."""
    r = math.exp(-math.tau * t)
    a = 0.0
    for c in reversed(fm):
        a = a * r + c
    if gm is fm:
        return (a * r) ** 2
    b = 0.0
    for c in reversed(gm):
        b = b * r + c
    return a * r * b * r


def _gauss_remainder(m: float, rho: float, n: int) -> float:
    """Trefethen, Approximation Theory and Approximation Practice, Thm 19.3:
    the n-point Gauss rule on [-1, 1] misses the integral of a function
    analytic in the Bernstein ellipse E_rho, and bounded there by m, by at
    most 64 m / (15 (rho^2 - 1) rho^(2n)); inf if m is."""
    if m == math.inf:
        return m
    return 64.0 * m / (15.0 * (rho * rho - 1.0)) * rho ** (-2 * n)


def _kept_terms(f, k: int) -> tuple[float, ...]:
    """|a_1| .. |a_(N_t)|: the fewest leading coefficient magnitudes whose
    Deligne tail at y = sqrt(3)/2, T(N_t) = sum_(n > N_t) n^((k+1)/2)
    e^(-2 pi n sqrt(3)/2), is at most one ulp of the form's sup on the arc,
    S = sum |a_n| e^(-2 pi n sqrt(3)/2); all of them if none is.

    `PrecisionError` if the tail past all of f's coefficients exceeds
    1e-12 max(1, S).
    """
    p, c = (k + 1) / 2, math.tau * _MIN_Y
    mags = tuple(abs(a) for a in f.a)
    sup = math.sqrt(_majorant(mags, mags, _MIN_Y))
    if deligne_tail(p, c, len(mags) + 1) > 1e-12 * max(1.0, sup):
        raise PrecisionError("not enough coefficients for the q-decay requirement")
    ulp, decay = math.ulp(sup), math.exp(-c)
    for n in range(1, len(mags)):
        # deligne_tail needs a falling term ratio from n + 1 on
        if ((n + 2) / (n + 1)) ** p * decay < 1.0 and deligne_tail(p, c, n + 1) <= ulp:
            return mags[:n]
    return mags


class _ArcValue(NamedTuple):
    """The arc strip's quadrature value and the parts of its bar."""

    value: float
    rem: float  # Gauss remainder, proven
    rounding: float  # float rounding, the rule's own included
    trunc: float  # the coefficients past N_t


def _arc_value(f, g, k: int, spec: QuadratureSpec) -> _ArcValue:
    """The integral of f conj(g) y^(k-2) over the arc strip, with a proven bar.

    Rule.  At height y = cos theta the strip is sin theta <= |x| <= 1/2, and
    the coefficients are real, so the x integral of e^(2 pi i d x) there is
    2 S_d(w) = 2 int_(sin theta)^(1/2) cos(2 pi d x) dx, w = 1/2 - sin theta:
    2 S_0 = 2 w and 2 S_d = (-1)^d sin(2 pi |d| w) / (pi |d|).  With
    dy = -sin theta d theta the strip is int_0^(pi/6) I d theta, where

        I = sin theta cos^(k-2) theta P,   P = sum_(m,n) v_m u_n 2 S_(m-n)(w),

    v_m = a_m r^m, u_n = b_n r^n and r = e^(-2 pi cos theta).  theta = H (1 + t),
    H = pi/12, makes it H int_(-1)^1 I dt, summed by the rule (t_i, w_i) of
    `_gauss_legendre`.  Per node 2 S_d is formed once for |d| < N_t, and P
    as sum_m v_m (sum_n u_n 2 S_(m-n)); w is taken as
    2 sin(pi (1 - t)/24) cos(pi (3 + t)/24), free of cancellation.

    Truncation.  Only the first N_t coefficients of each form are summed
    (`_kept_terms`).  Past them Deligne's |a_n| <= n^((k+1)/2) bounds
    |f - f_N| by T_f = T(N_t) on the arc, where y >= sqrt(3)/2.  With
    |f_N| <= S_f and |g| <= S_g + T_g there, y^(k-2) <= 1 and the strip's
    area 1 - pi/6 - sqrt(3)/4 < 0.0434, the truncated integral is off by at
    most 0.0434 (T_f S_g + T_g S_f + T_f T_g).  All below is about f_N, g_N.

    Remainder.  I is entire in theta, so Trefethen's Thm 19.3
    (`_gauss_remainder`) holds on every Bernstein ellipse E_rho in t, the
    rule carrying H.  On E_rho, theta = a + ib with H (1 - A) <= a <= H (1 + A)
    and |b| <= beta = H B, A = (rho + 1/rho)/2, B = (rho - 1/rho)/2; `_RHO`
    keeps H (1 + A) < pi/2, so cos a >= c = cos(H (1 + A)) > 0.  There
    - |cos theta| <= cosh beta, and Re cos theta = cos a cosh b;
    - |sin theta| <= s = (sin^2(H (1 + A)) + sinh^2 beta)^(1/2);
    - 2 S_d is 2 int cos(2 pi d x) dx along the segment from sin theta to 1/2,
      on which |Im x| <= |Im sin theta| = cos a |sinh b|, so |2 S_d| <=
      |1 - 2 sin theta| e^(2 pi |d| cos a |sinh b|) <= (1 + 2 s) e^(...);
    - as |m - n| <= m + n and cosh b - |sinh b| = e^(-|b|), the term (m, n)
      of P is at most (1 + 2 s) |a_m b_n| e^(-2 pi (m + n) c e^(-beta)).
    So |I| <= s (1 + 2 s) cosh^(k-2) beta `_majorant`(c e^(-beta)) on E_rho.
    The rho of `_RHO` that minimizes H times the Thm 19.3 bound is charged,
    so a caller's spec is charged its own remainder.

    Rounding, relative to the mass H w_i sin theta y^(k-2) 2 w V U of each
    node (V = sum |v_m|, U = sum |u_n|; |2 S_d| <= 2 w), to first order in
    _EPS, each rounding counted as one _EPS (twice the unit roundoff):
    - theta is within 3 _EPS relatively (H, 1 + t, the product), sin theta
      within 4, y = cos theta within 3 (the node's error included, as
      y >= 0.86) and y^(k-2) within 3 (k - 2) + 1;
    - 2 pi y is within 5 _EPS relatively and below 2 pi, so r is within 33,
      and v_m (m - 1 products, one with a_m) within 34 m; likewise u_n;
    - w is within 7: 3 in the sine's argument, at most 0.3 from the
      cosine's (b tan b <= 0.07 for b <= pi/12), one per sin, cos and
      product.  So 2 pi d w is within 10, sin(2 pi d w) within 11 _EPS
      2 pi d w, and 2 S_d, divided by pi d (3 more), within 14 _EPS 2 w;
    - v_m u_n 2 S_(m-n) passes two products and at most N_t(f) + N_t(g) - 2
      sums: N_t(f) + N_t(g);
    - the weight is within _WEIGHT_ULPS n^2 _EPS; three products form the
      term, and `math.fsum`, H and the product with it add three.
    The node's own error, _NODE_ULPS _EPS, is absolute: it moves sin theta
    and w by at most H _NODE_ULPS _EPS, and 2 S_d (derivative in w at most
    2) by twice that.  As 2 w + 2 sin theta = 1, node i moves by at most
    H^2 w_i y^(k-2) V U _NODE_ULPS _EPS; with sum w_i = 2, y <= 1 and
    V U <= S_f S_g, all nodes by 2 H^2 S_f S_g _NODE_ULPS _EPS.
    """
    fm, gm = _kept_terms(f, k), _kept_terms(g, k)
    nf, ng = len(fm), len(gm)
    n_t, n = max(nf, ng), spec.y_nodes
    ts, ws = _gauss_legendre(n)
    power = k - 2
    terms = []
    mass = 0.0
    for t, wt in zip(ts, ws):
        theta = _H * (1.0 + t)
        y = math.cos(theta)
        w = 2.0 * math.sin(0.5 * _H * (1.0 - t)) * math.cos(0.5 * _H * (3.0 + t))
        r = math.exp(-math.tau * y)
        v = list(map(mul, f.a[:nf], accumulate(repeat(r, nf), mul)))
        u = list(map(mul, g.a[:ng], accumulate(repeat(r, ng), mul)))
        tw = math.tau * w
        s_d = [2.0 * w] + [(-1) ** d * math.sin(d * tw) / (d * math.pi) for d in range(1, n_t)]
        band = s_d[:0:-1] + s_d  # band[n_t - 1 + d] = 2 S_d = band[n_t - 1 - d]
        corr = sum(map(mul, v, [sum(map(mul, u, band[n_t - 1 - m:])) for m in range(nf)]))
        node = wt * math.sin(theta) * y**power
        terms.append(node * corr)
        mass += node * 2.0 * w * sum(map(abs, v)) * sum(map(abs, u))

    rem = math.inf
    for rho in _RHO:
        a = _H * (1.0 + (rho + 1.0 / rho) / 2.0)
        beta = _H * (rho - 1.0 / rho) / 2.0
        s = math.hypot(math.sin(a), math.sinh(beta))
        bound = s * (1.0 + 2.0 * s) * math.cosh(beta) ** power * _majorant(
            fm, gm, math.cos(a) * math.exp(-beta))
        rem = min(rem, _H * _gauss_remainder(bound, rho, n))
    ulps = 35.0 * (nf + ng) + 3.0 * power + 25.0 + _WEIGHT_ULPS * n * n
    p, c = (k + 1) / 2, math.tau * _MIN_Y
    tf, tg = deligne_tail(p, c, nf + 1), deligne_tail(p, c, ng + 1)
    sf, sg = math.sqrt(_majorant(fm, fm, _MIN_Y)), math.sqrt(_majorant(gm, gm, _MIN_Y))
    return _ArcValue(
        value=_H * math.fsum(terms),
        rem=rem,
        rounding=(ulps * _H * mass + 2.0 * _H * _H * sf * sg * _NODE_ULPS) * _EPS,
        trunc=_ARC_AREA * (tf * sg + tg * sf + tf * tg),
    )


def petersson_inner(
    f: Eigenform, g: Eigenform, spec: QuadratureSpec | None = None
) -> ValueWithError:
    """(f, g) over the fundamental domain, unnormalized measure.

    The bar is the Parseval bar, the arc's proven remainder, its
    rounding (the rule's included) and its truncation at N_t coefficients
    (`_arc_value`), and one rounding of the sum.  `PrecisionError` if f or g
    carries too few coefficients (`_kept_terms`).
    """
    if f.weight != g.weight:
        raise DomainError("inner product requires equal weights")
    k = f.weight
    arc = _arc_value(f, g, k, spec or default_spec(k))
    upper = _parseval(f, g, k)
    value = upper.value + arc.value
    err = upper.abs_err + arc.rem + arc.rounding + arc.trunc + _EPS * abs(value)
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
