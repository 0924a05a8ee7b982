"""Petersson inner products over the fundamental domain.

The domain {|x| <= 1/2, |tau| >= 1} is split at y = 1.  Over a full period
the x integral of e^(2 pi i (m - n) x) is delta_mn, so the region y >= 1 is
in closed form (Parseval)

    sum_n a_n b_n (4 pi n)^(1-k) Gamma(k-1, 4 pi n),

summed by `lfunction.gamma_series` with a Deligne tail past the coefficients.
Only the arc strip sqrt(1 - x^2) <= y <= 1, of area 1 - pi/6 - sqrt(3)/4
~ 0.043, is left to quadrature.  The coefficients are real, so
f(-x + iy) = conj f(x + iy): the real part of f conj(g) is even in x and
the imaginary part odd, and the strip is twice its half x in [0, 1/2].
That half is one tensor Gauss-Legendre grid in pure Python (`_arc_value`),
whose remainder in x and in y is proven by the Bernstein-ellipse theorem
rather than estimated.  The measure is the unnormalized y^k dx dy / y^2;
no volume factor is applied.

In this normalization the kernel coefficient of `kernel.r_k` satisfies

    r_k(n) = sum_f L*(f, k/2) a_f(n) / (16 Gamma(k/2) ||f||^2),

with L*(f, s) = (2 pi)^-s Gamma(s) L(f, s), the sum running over the
normalized Hecke eigenforms of weight k (Kohnen's identity, see
`triangle_check`).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, PrecisionError
from .kernel import r_k
from .lfunction import central_values, deligne_tail, gamma_series
from .ntheory import ValueWithError
from .qexpansion import Eigenform

__all__ = [
    "QuadratureSpec",
    "default_spec",
    "petersson_inner",
    "petersson_norm_sq",
    "TriangleCheck",
    "triangle_check",
]

_MIN_Y = math.sqrt(3.0) / 2.0
_H_MAX = (1.0 - _MIN_Y) / 2.0  # the largest half-height of an arc column
_ARC_AREA = 0.0434  # 1 - pi/6 - sqrt(3)/4 = 0.04338..., rounded up
_EPS = 2.220446049250313e-16
# Bernstein-ellipse parameters tried per direction; rho_x stays below
# 3 + sqrt(8), where the x-ellipse would reach the branch point x = 1
_RHO_X = tuple(2.0 ** (j / 4) for j in range(1, 11))
_RHO_Y = tuple(2.0 ** (j / 4) for j in range(1, 25))
# `_gauss_legendre`'s charge: nodes within _NODE_ULPS _EPS, weights within
# _WEIGHT_ULPS n^2 _EPS relatively
_NODE_ULPS = 1.0
_WEIGHT_ULPS = 4.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre node counts in x and y for the half arc strip, x in [0, 1/2]."""

    x_nodes: int = 32
    y_nodes: int = 14

    def __post_init__(self):
        if self.x_nodes < 8 or self.y_nodes < 8:
            raise DomainError("x_nodes and y_nodes must be >= 8")


def default_spec(k: int) -> QuadratureSpec:
    """The spec `petersson_inner` uses when given none: 12 + k/2 x nodes and
    6 + k/5 y nodes, rounded down.

    Sized on the proven bounds of `_arc_value`: its x and y remainders are each
    <= 1e-14 of the norm for every eigenform of weight k <= 40.  The spec's
    own defaults are those of k = 40.
    """
    return QuadratureSpec(x_nodes=12 + k // 2, y_nodes=6 + k // 5)


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
    x_rem: float  # Gauss remainder in x, proven
    y_rem: float  # Gauss remainder in y, proven
    rounding: float  # float rounding, the rule's own included
    trunc: float  # the coefficients past N_t


def _x_bound(fm, gm, k: int, rho: float) -> float:
    """A bound on |F| over the t-ellipse E_rho, for the column integral F of
    `_arc_value` continued to complex x = (1 + t)/4."""
    a = (rho + 1.0 / rho) / 2.0
    big_x = (1.0 + a) / 4.0  # |x| and Re x are at most this
    big_y = (rho - 1.0 / rho) / 8.0  # |Im x| is at most this
    low = math.sqrt(1.0 - big_x * big_x)  # Re lo(x) is at least this
    up = ((1.0 + big_y * big_y) ** 2 + 4.0 * (big_x * big_y) ** 2) ** 0.25  # |lo(x)| at most
    return (
        big_x * big_x / (1.0 + low) * math.exp(-2.0 * math.tau * big_y)
        * _majorant(fm, gm, low - big_y) * up ** (k - 2)
    )


def _y_bound(fm, gm, k: int, rho: float) -> float:
    """A bound on |P(x, lo + h (1 + s))| over the s-ellipse E_rho, uniform in
    the real column x in [0, 1/2]."""
    a = (rho + 1.0 / rho) / 2.0
    up = _MIN_Y + _H_MAX * (1.0 + a)
    return _majorant(fm, gm, _MIN_Y + _H_MAX * (1.0 - a)) * up ** (k - 2)


def _arc_value(f, g, k: int, spec: QuadratureSpec) -> _ArcValue:
    """The integral of f conj(g) y^(k-2) over the arc strip, with a proven bar.

    Grid.  With x = (1 + t)/4 on the half x in [0, 1/2] and, per column,
    y = lo + h (1 + s), lo = sqrt(1 - x^2), h = (1 - lo)/2 = x^2 / (2 (1 + lo))
    (no cancellation), the whole strip is (1/2) int_(-1)^1 F(x) dt with
    F(x) = h int_(-1)^1 P(x, y) ds and P = Re(f conj g) y^(k-2).  The value is
    sum_i (w_i / 2) h_i sum_j v_j P(x_i, y_ij) over the Gauss rules (t_i, w_i)
    and (s_j, v_j) of `_gauss_legendre`.  Per column, c_n = a_n e^(2 pi i n x)
    is formed once, and f is a Horner sum in the real r = e^(-2 pi y) per
    node; for a norm (g is f), f is evaluated once.

    Truncation.  Only the first N_t coefficients of each form are summed
    (`_kept_terms`).  Past them Deligne's |a_n| <= n^((k+1)/2) bounds
    |f - f_N| by T_f = T(N_t) on the arc, where y >= sqrt(3)/2.  With
    |f_N| <= S_f and |g| <= S_g + T_g there, y^(k-2) <= 1 and the strip's
    area 1 - pi/6 - sqrt(3)/4 < 0.0434, the truncated integral is off by at
    most 0.0434 (T_f S_g + T_g S_f + T_f T_g).  All below is about f_N, g_N.

    Remainders.  Let A(t) = sum_(n <= N_t) |a_n| e^(-2 pi n t), B likewise.
    Continued to complex x and y, P = sum a_m b_n cos(2 pi (m - n) x)
    e^(-2 pi (m + n) y) y^(k-2) is entire in y, and |m - n| <= m + n - 2
    gives |P| <= e^(-4 pi |Im x|) A(Re y - |Im x|) B(Re y - |Im x|) |y|^(k-2)
    = sum |a_m b_n| e^(2 pi (m + n - 2) |Im x| - 2 pi (m + n) Re y) |y|^(k-2),
    which grows with |Im x| and falls with Re y.
    Thm 19.3 (`_gauss_remainder`) applies in each direction:
    - y, per real column (Im x = 0): on E_rho in s, with a = (rho + 1/rho)/2,
      Re y >= sqrt(3)/2 + H (1 - a) and |y| <= sqrt(3)/2 + H (1 + a), H =
      (1 - sqrt(3)/2)/2 the largest h (both are monotone in lo, so the worst
      column is x = 1/2).  Column i misses F(x_i) by h_i times the remainder
      of that bound m_y, and sum_i (w_i / 2) h_i <= H.
    - x, for F on E_rho in t: |x| <= (1 + a)/4 =: X < 1 (so rho < 3 + sqrt 8
      keeps x = 1, the branch point of lo, outside; x = -1 is farther) and
      |Im x| <= (rho - 1/rho)/8 =: Y.  Re(1 - x^2) >= 1 - X^2 gives
      Re lo >= L = sqrt(1 - X^2), and |1 - x^2| <= ((1 + Y^2)^2 +
      4 X^2 Y^2)^(1/2) gives |lo| <= U; on the segment from lo to 1,
      Re y >= L and |y| <= U.  As |1 - lo| = |x|^2 / |1 + lo| <= X^2 / (1 + L),
      |F| <= m_x = X^2 / (1 + L) e^(-4 pi Y) A(L - Y) B(L - Y) U^(k-2), and
      the x rule carries 1/2.
    Each direction takes the rho of `_RHO_X` / `_RHO_Y` that minimizes its
    bound, so a caller's spec is charged its own remainder.

    Rounding, relative to the mass W_ij F_abs G_abs y^(k-2) of each term
    (W_ij = (w_i / 2) h_i v_j, F_abs = sum |a_n| r^n) and to first order in
    _EPS; each rounding counts one _EPS, twice the unit roundoff.  The
    rule's own node errors are argument errors like the others:
    - the weights are off by _WEIGHT_ULPS n^2 _EPS relatively, in x and y;
    - x is off by (_NODE_ULPS + 1) _EPS / 4 <= _EPS / 2 (the node, then
      (1 + t)/4), lo by 0.58 of that plus 1.1 _EPS, h relatively by
      2 |dx| / x <= _EPS / x plus 3.1 _EPS, and y, the y node's
      0.067 _NODE_ULPS _EPS included, by 4 _EPS;
    - the phase n (2 pi x) is off by 2 pi n |dx| plus 2.25 pi n _EPS (2 pi
      and two products), at most 3.25 pi n _EPS, and cos, sin and the
      product with a_n add 3 _EPS: c_n is within (3.25 pi n + 3) _EPS |a_n|;
    - 2 pi y is within 2 pi (4 + 1.25) _EPS, so r is within 34 _EPS
      relatively and r^n within 34 n _EPS;
    - Horner in the real r rounds each component once per step, over 2 N_t
      steps (the last being the shared r^2): sqrt(2) 2 N_t _EPS of F_abs.
    So f is within ((3.25 pi + 34 + 2 sqrt 2) N_t + 3) _EPS <= (50 N_t + 3)
    _EPS of F_abs, likewise g.  Re(f conj g) adds 3 _EPS; y^(k-2) adds
    (k - 2) 4 _EPS / y <= 4.7 (k - 2) _EPS plus one; the six products of
    W_ij, r^2, y^(k-2) and P add six, h itself 5 + 1/x_i; `math.fsum`
    rounds once.  Each term of F_abs falls at least as e^(-2 pi (y - lo))
    up a column, so column i's mass is at most its sum of W_ij A(lo_i)
    B(lo_i) e^(4 pi lo_i) r_ij^2 y_ij^(k-2), summed beside the value.
    """
    fm = _kept_terms(f, k)
    gm = fm if g is f else _kept_terms(g, k)
    nf, ng = len(fm), len(gm)
    xt, xw = _gauss_legendre(spec.x_nodes)
    ys, yw = _gauss_legendre(spec.y_nodes)
    power = k - 2
    terms = []
    mass = mass_by_x = 0.0
    for t, w in zip(xt, xw):
        x = 0.25 * (1.0 + t)
        lo = math.sqrt(1.0 - x * x)
        h = 0.5 * x * x / (1.0 + lo)
        col = 0.5 * w * h
        theta = math.tau * x
        # c_N .. c_1, so that the Horner loops run in list order
        cf = [cmath.rect(f.a[n - 1], n * theta) for n in range(nf, 0, -1)]
        cg = cf if g is f else [cmath.rect(g.a[n - 1], n * theta) for n in range(ng, 0, -1)]
        shape = 0.0
        for s, v in zip(ys, yw):
            y = lo + h * (1.0 + s)
            r = math.exp(-math.tau * y)
            fv = 0j
            for c in cf:
                fv = fv * r + c
            if cg is cf:
                prod = fv.real * fv.real + fv.imag * fv.imag
            else:
                gv = 0j
                for c in cg:
                    gv = gv * r + c
                prod = fv.real * gv.real + fv.imag * gv.imag
            wr = v * (r * r) * y**power
            shape += wr
            terms.append(col * wr * prod)
        col_mass = col * shape * _majorant(fm, gm, lo) * math.exp(2.0 * math.tau * lo)
        mass += col_mass
        mass_by_x += col_mass / x

    x_rem = min(0.5 * _gauss_remainder(_x_bound(fm, gm, k, rho), rho, spec.x_nodes)
                for rho in _RHO_X)
    y_rem = min(_H_MAX * _gauss_remainder(_y_bound(fm, gm, k, rho), rho, spec.y_nodes)
                for rho in _RHO_Y)
    ulps = (
        50.0 * (nf + ng) + 6.0 + 3.0 + 4.7 * power + 1.0 + 6.0 + 5.0 + 1.0
        + _WEIGHT_ULPS * (spec.x_nodes**2 + spec.y_nodes**2)
    )
    p, c = (k + 1) / 2, math.tau * _MIN_Y
    tf, tg = deligne_tail(p, c, nf + 1), deligne_tail(p, c, ng + 1)
    sf, sg = math.sqrt(_majorant(fm, fm, _MIN_Y)), math.sqrt(_majorant(gm, gm, _MIN_Y))
    return _ArcValue(
        value=math.fsum(terms),
        x_rem=x_rem,
        y_rem=y_rem,
        rounding=(ulps * mass + mass_by_x) * _EPS,
        trunc=_ARC_AREA * (tf * sg + tg * sf + tf * tg),
    )


def petersson_inner(
    f: Eigenform, g: Eigenform, spec: QuadratureSpec | None = None
) -> ValueWithError:
    """(f, g) over the fundamental domain, unnormalized measure.

    The bar is the Parseval bar, the arc's proven x and y remainders, its
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
    err = (
        upper.abs_err + arc.x_rem + arc.y_rem + arc.rounding + arc.trunc + _EPS * abs(value)
    )
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
