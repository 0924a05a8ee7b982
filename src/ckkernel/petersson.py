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

What depends on the weight and rule alone is memoized, and every form of a
weight shares it: `lfunction`'s incomplete-gamma row (k - 1, 4 pi, k + 1)
for the Parseval sum, and `_arc_nodes`, an `lru_cache` of 16 entries keyed
by (k, nodes), for the arc: the rule applied to each monomial a_m b_j, so
that a form's arc value is a bilinear form in its coefficients.  Each holds
the doubles a single call would make, by the same float operations, so
sharing changes no bit.  An arc entry holds N^2 moments and 2 N masses, N
the most terms a form keeps at weight k, at most 675 doubles, as
`petersson_inner` refuses a weight past 60, so the 16 kept hold under
_MAX_COUNT (`errors`).

In this normalization the kernel coefficient of `kernel.r_k` satisfies

    r_k(n) = sum_f L*(f, k/2) a_f(n) / (16 Gamma(k/2) ||f||^2),

with L*(f, s) = (2 pi)^-s Gamma(s) L(f, s), the sum running over the
normalized Hecke eigenforms of weight k (Kohnen's identity, see
`kohnen_triangle`).
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul
from typing import NamedTuple

from .errors import DomainError, PrecisionError, _integer, _shown
from .kernel import _check_weight, r_k
from .lfunction import central_values, deligne_count, deligne_tail, gamma_series
from .ntheory import _FIX_BITS, ValueWithError, _pi_power_fixed
from .qexpansion import Eigenform, dim_cusp
from .specfun import _EPS

__all__ = [
    "QuadratureSpec",
    "default_spec",
    "petersson_inner",
    "petersson_norm_sq",
    "TriangleCheck",
    "kohnen_triangle",
    "triangle_check",
]

_MIN_Y = math.sqrt(3.0) / 2.0
_H = math.pi / 12.0  # theta = _H (1 + t) maps t in [-1, 1] onto [0, pi/6]
_ARC_AREA = 0.0434  # 1 - pi/6 - sqrt(3)/4 = 0.04338..., rounded up
# `_kept_terms`' least floor: for a_1 = 1 the sup on the arc is >= e^(-pi sqrt(3)) > 2^-8
_ARC_FLOOR = math.ulp(2.0**-8)
# Bernstein-ellipse parameters tried; each keeps _H (1 + (rho + 1/rho)/2) < pi/2
_RHO = tuple(2.0 ** (j / 4) for j in range(1, 14))
_CELLS = 8  # cells of |Im theta| on which the chosen ellipse's bound is refined
# The most nodes a `QuadratureSpec` takes; `default_spec` asks for 13-20 up to
# k = 40, and every reachable rule is one the tests check against 50 digits.
_MAX_NODES = 64
# `_gauss_legendre`'s charge: nodes within _NODE_ULPS _EPS, weights within
# _WEIGHT_ULPS n^2 _EPS relatively.  Against 50-digit rules at every n = 8..64
# the nodes are within 0.51 _EPS and the weights within 0.128 n^2 _EPS (n = 11)
_NODE_ULPS = 1.0
_WEIGHT_ULPS = 0.25


@dataclass(frozen=True)
class QuadratureSpec:
    """The Gauss-Legendre node count of the arc strip, in theta with y = cos theta:
    an integer from 8 to _MAX_NODES = 64 (an integral float is stored as the
    int), 20 by default, `default_spec(40)`'s count."""

    y_nodes: int = 20

    def __post_init__(self):
        object.__setattr__(self, "y_nodes", _integer("y_nodes", self.y_nodes, 8, 1, _MAX_NODES))

    @property
    def x_nodes(self) -> int:
        """1, as the x integral is in closed form.  Read-only; it exists only
        for perfbench's grid-point counter, which still reads both counts."""
        return 1


def default_spec(k: int) -> QuadratureSpec:
    """The spec `petersson_inner` uses when given none: 10 + (k + 2) // 4 nodes,
    13 at k = 12 and 20 at k = 40, at which the proven remainder of `_arc_value`
    is <= 1e-14 of the norm for every eigenform of weight k <= 40 (the spec's
    own default is k = 40's); `DomainError` unless k is even and >= 12, or
    past k = 216, where the count would pass _MAX_NODES."""
    return QuadratureSpec(y_nodes=10 + (_integer("k", k, 12, 2) + 2) // 4)


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


def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], ascending.

    Newton's method on the recurrence for P_n, from cos(pi (i + 3/4) / (n + 1/2)),
    stops once a step is below one ulp of 1; the rule is mirrored, so it is
    exactly symmetric.  The weight 2 (1 - x^2) / (n P_(n-1)(x))^2 is taken at
    the true root x* = x - d, d = P_n(x) / P_n'(x) being the step not taken:
    1 - x*^2 = (1 - x)(1 + x) + 2 x d and P_(n-1)(x*) = P_(n-1)(x) - P_(n-1)'(x) d,
    to first order.  Charge: each node is within _NODE_ULPS _EPS of the true one;
    each weight within _WEIGHT_ULPS n^2 _EPS of it, relatively, as the
    recurrence's O(n) ulps of rounding are relative to |P_(n-1)(x*)| >= ~1/n at
    the outermost nodes.  Both charges are proven by enumeration: the rule's
    tests check every n a `QuadratureSpec` admits against 50-digit rules.
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


def _form_sum(mags, tau: float) -> float:
    """A(tau) = sum_n mags_n e^(-2 pi n tau) over magnitudes mags_n = |a_n|, by
    Horner summation in e^(-2 pi tau); it falls as tau grows."""
    r = math.exp(-math.tau * tau)
    a = 0.0
    for c in reversed(mags):
        a = a * r + c
    return a * r


def _gauss_remainder(m: float, rho: float, n: int) -> float:
    """Trefethen, Approximation Theory and Approximation Practice, Thm 19.3:
    the n-point Gauss rule on [-1, 1] misses the integral of a function
    analytic in the Bernstein ellipse E_rho, and bounded there by m, by at
    most 64 m / (15 (rho^2 - 1) rho^(2n)); inf if m is, as rho^(-2n) >= 1e-126
    for every rho of `_RHO` and n <= _MAX_NODES."""
    return 64.0 * m / (15.0 * (rho * rho - 1.0)) * rho ** (-2 * n)


def _kept_terms(f, k: int) -> tuple[float, ...]:
    """|a_1| .. |a_(N_t)|: the fewest leading coefficient magnitudes whose
    Deligne tail at y = sqrt(3)/2, T(N_t) = sum_(n > N_t) n^((k+1)/2)
    e^(-2 pi n sqrt(3)/2), is at most one ulp of the form's sup on the arc,
    S = sum |a_n| e^(-2 pi n sqrt(3)/2), or _ARC_FLOOR = ulp(2^-8) if that
    is larger (`deligne_count`); all of them if f carries fewer.  The floor
    binds no normalized form, whose S > 2^-8, and caps every form at the
    N of `_arc_nodes`, the count at _ARC_FLOOR; `_arc_value` charges
    the tail past the kept terms.
    """
    p, c = (k + 1) / 2, math.tau * _MIN_Y
    mags = tuple(map(abs, f.a))
    return mags[:deligne_count(p, c, max(math.ulp(_form_sum(mags, _MIN_Y)), _ARC_FLOOR))]


def _ellipse_bound(fm, gm, k: int, rho: float, cells: int) -> list[float]:
    """Bounds on |I| over the Bernstein ellipse E_rho of `_arc_value`, from the
    magnitudes fm and gm of the kept coefficients: the split majorant's on each
    of `cells` equal cells of |Im theta| in [0, beta], in order;
    `_arc_value`'s docstring proves them."""
    a = _H * (1.0 + (rho + 1.0 / rho) / 2.0)
    beta = _H * (rho - 1.0 / rho) / 2.0
    c, sin_a = math.cos(a), math.sin(a)
    ends = [beta * j / cells for j in range(cells + 1)]
    lows = [c * math.exp(t) for t in ends[:-1]]  # c e^t0 for each cell [t0, t1]
    highs = [c * math.exp(-t) for t in ends[1:]]  # c e^-t1
    f_lo, f_hi = [_form_sum(fm, x) for x in lows], [_form_sum(fm, x) for x in highs]
    g_lo, g_hi = (f_lo, f_hi) if gm is fm else (
        [_form_sum(gm, x) for x in lows], [_form_sum(gm, x) for x in highs])
    split = []
    for t, fl, fh, gl, gh in zip(ends[1:], f_lo, f_hi, g_lo, g_hi):
        s = math.hypot(sin_a, math.sinh(t))
        scale = s * (1.0 + 2.0 * s) * math.cosh(t) ** (k - 2)
        split.append(scale * (fl * gh + fh * gl))
    return split


@functools.lru_cache(maxsize=16)
def _arc_nodes(k: int, n: int) -> tuple[array, array]:
    """The n-node rule of `_arc_value` at weight k applied to each monomial
    a_m b_j, shared by every form and pair: with node_i = w_i sin theta_i
    y_i^(k-2) and N the most terms `_kept_terms` keeps at weight k, the
    moments Q[m][j] = fsum_i node_i r_i^(m+j) 2 S_|m-j|(w_i), m, j = 1..N,
    row by row, and the masses W[s] = fsum_i node_i 2 w_i r_i^s, s = 1..2N.
    node_i r_i^s is s products onto node_i, and Q is symmetric, so each pair
    m <= j is summed once.  An entry holds N^2 + 2 N doubles, at most 675,
    so the 16 kept hold under _MAX_COUNT: N <= 25, its value at k = 60, as
    `petersson_inner` refuses k > 60."""
    n_t = deligne_count((k + 1) / 2, math.tau * _MIN_Y, _ARC_FLOOR)
    powers, s_ds = [], []  # per node: node_i r_i^s for s = 0..2N; 2 S_d(w_i) for d < N
    for t, wt in zip(*_gauss_legendre(n)):
        theta = _H * (1.0 + t)
        y = math.cos(theta)
        w = 2.0 * math.sin(0.5 * _H * (1.0 - t)) * math.cos(0.5 * _H * (3.0 + t))
        node = wt * math.sin(theta) * y ** (k - 2)
        powers.append(accumulate(repeat(math.exp(-math.tau * y), 2 * n_t), mul, initial=node))
        tw = math.tau * w
        s_ds.append([2.0 * w, *((-1) ** d * math.sin(d * tw) / (d * math.pi) for d in range(1, n_t))])
    by_s, by_d = list(zip(*powers))[1:], list(zip(*s_ds))
    moments = array("d", bytes(8 * n_t * n_t))
    for m in range(n_t):
        for j in range(m, n_t):
            q = math.fsum(map(mul, by_s[m + j + 1], by_d[j - m]))
            moments[m * n_t + j] = moments[j * n_t + m] = q
    return moments, array("d", (math.fsum(map(mul, p, by_d[0])) for p in by_s))


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

        I = sin theta cos^(k-2) theta P,   P = sum_(m,n) a_m b_n r^(m+n) 2 S_(m-n)(w),

    r = e^(-2 pi cos theta).  theta = H (1 + t), H = pi/12, makes it
    H int_(-1)^1 I dt, summed by the rule (t_i, w_i) of `_gauss_legendre`.
    Summed over the nodes first, the rule is a bilinear form in the
    coefficients, H sum_(m,j) a_m b_j Q[m][j], whose moments

        Q[m][j] = sum_i node_i r_i^(m+j) 2 S_(m-j)(w_i),  node_i = w_i sin theta_i y_i^(k-2),

    depend on k and the rule alone: `_arc_nodes` holds them, shared by every
    form and pair, and the value is H fsum_m a_m fsum_j b_j Q[m][j], one path
    for f = g and f != g alike.  w is taken as 2 sin(pi (1 - t)/24)
    cos(pi (3 + t)/24), free of cancellation.  The table is made by the same
    float operations whatever was asked before it, so every value and bar is
    bit-identical to one made afresh.

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
    keeps H (1 + A) < pi/2, so cos a >= c = cos(H (1 + A)) > 0.  With t = |b|
    - |cos theta| <= cosh t, and Re cos theta = cos a cosh b;
    - |sin theta| <= s(t) = (sin^2(H (1 + A)) + sinh^2 t)^(1/2);
    - 2 S_d is 2 int cos(2 pi d x) dx along the segment from sin theta to 1/2,
      on which |Im x| <= |Im sin theta| = cos a sinh t, so |2 S_d| <=
      |1 - 2 sin theta| e^(2 pi |d| cos a sinh t) <= (1 + 2 s) e^(...);
    - so the term (m, n) of P is at most (1 + 2 s) |a_m b_n|
      e^(-2 pi cos a [(m + n) cosh t - |m - n| sinh t]), whose bracket is
      min(m e^t + n e^-t, m e^-t + n e^t) > 0.  With cos a >= c, and the larger
      of the two exponentials bounded by their sum, the pairs sum to at most
      (1 + 2 s) [A_f(c e^t) A_g(c e^-t) + A_f(c e^-t) A_g(c e^t)], where
      A_f(tau) = sum |a_m| e^(-2 pi m tau) (`_form_sum`) and A_g likewise.
    Each A falls as tau grows, while s and cosh t rise with t, so on a cell
    t0 <= t <= t1 of [0, beta], |I| <= s (1 + 2 s) cosh^(k-2) t1
    [A_f(c e^t0) A_g(c e^-t1) + A_f(c e^-t1) A_g(c e^t0)], s = s(t1)
    (`_ellipse_bound`).  Every rho gives a proven bound, so choosing it by a
    cheaper one is sound: the rho of `_RHO` whose bound over the one cell
    [0, beta] has the least Thm 19.3 remainder is refined on _CELLS equal
    cells, and H times that refined bound's remainder is charged.  A
    caller's spec is charged its own remainder.

    Rounding, relative to the mass H sum_(m,j) |a_m b_j| W[m+j], with
    W[s] = sum_i node_i 2 w_i r_i^s the masses of `_arc_nodes` (|Q[m][j]| <=
    W[m+j] termwise, as |2 S_d| <= 2 w and node_i > 0), to first order in
    _EPS, each rounding counted as one _EPS (twice the unit roundoff):
    - theta is within 3 _EPS relatively (H, 1 + t, the product), sin theta
      within 4, y = cos theta within 3 (the node's error included, as
      y >= 0.86), y^(k-2) within 3 (k - 2) + 1 and the weight within
      _WEIGHT_ULPS n^2, so node_i, two products, is within
      3 (k - 2) + 7 + _WEIGHT_ULPS n^2;
    - 2 pi y is within 5 _EPS relatively and below 2 pi, so r is within 33,
      and node_i r^s, s products onto node_i, adds 34 s, at most
      34 (nf + ng) for s = m + j, nf and ng the kept terms of f and g;
    - w is within 7: 3 in the sine's argument, at most 0.3 from the
      cosine's (b tan b <= 0.07 for b <= pi/12), one per sin, cos and
      product.  So 2 pi d w is within 10, sin(2 pi d w) within 11 _EPS
      2 pi d w, and 2 S_d, divided by pi d (3 more), within 14 _EPS 2 w,
      and the product with it adds 15;
    - three correctly rounded `math.fsum`s, over the nodes, over j and over
      m, add one each, but none over a single term; three products, by b_j,
      a_m and H, add three, and H itself one.
    The count, 34 (nf + ng) + 3 (k - 2) + 27 + _WEIGHT_ULPS n^2 + [nf > 1]
    + [ng > 1], is at most the charged 35 (nf + ng) + 3 (k - 2) + 25 +
    _WEIGHT_ULPS n^2 for every nf, ng >= 1, as [nf > 1] + [ng > 1] + 2 <=
    nf + ng, with equality only where nf, ng <= 2.
    The node's own error, _NODE_ULPS _EPS, is absolute: it moves sin theta
    and w by at most H _NODE_ULPS _EPS, and 2 S_d (derivative in w at most
    2) by twice that.  As 2 w + 2 sin theta = 1, node i moves by at most
    H^2 w_i y^(k-2) V_i U_i _NODE_ULPS _EPS, V_i = sum |a_m| r_i^m and U_i
    likewise; with sum w_i = 2, y <= 1 and V_i U_i <= S_f S_g, all nodes by
    2 H^2 S_f S_g _NODE_ULPS _EPS.
    """
    fm = _kept_terms(f, k)
    gm = fm if g is f else _kept_terms(g, k)
    nf, ng = len(fm), len(gm)
    n = spec.y_nodes
    moments, masses = _arc_nodes(k, n)
    stride = len(masses) // 2
    gb = g.a[:ng]
    value = math.fsum(a * math.fsum(map(mul, gb, moments[m * stride : m * stride + ng]))
                      for m, a in enumerate(f.a[:nf]))
    mass = sum(a * sum(map(mul, gm, masses[m + 1 : m + 1 + ng])) for m, a in enumerate(fm))

    rho = min(_RHO, key=lambda r: _gauss_remainder(_ellipse_bound(fm, gm, k, r, 1)[0], r, n))
    rem = _H * _gauss_remainder(max(_ellipse_bound(fm, gm, k, rho, _CELLS)), rho, n)
    ulps = 35.0 * (nf + ng) + 3.0 * (k - 2) + 25.0 + _WEIGHT_ULPS * n * n
    p, c = (k + 1) / 2, math.tau * _MIN_Y
    tf, tg = deligne_tail(p, c, nf + 1), deligne_tail(p, c, ng + 1)
    sf, sg = _form_sum(fm, _MIN_Y), _form_sum(gm, _MIN_Y)
    return _ArcValue(
        value=_H * value,
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
    (`_arc_value`), and one rounding of the sum.  `DomainError` for unequal
    weights or a weight past 60, before any float operation: the Parseval
    sum's s = k - 1 must be within the incomplete gamma's 60.
    `PrecisionError` if no Deligne tail holds past the coefficients f and g
    carry, or if the value or its bar passes the float range.
    """
    if f.weight != g.weight:
        raise DomainError("inner product requires equal weights")
    k = f.weight
    if k > 60:
        raise DomainError(f"weight {_shown(k)} puts the Parseval sum past Gamma(s, x)'s s <= 60")
    arc = _arc_value(f, g, k, spec or default_spec(k))
    upper = _parseval(f, g, k)
    value = upper.value + arc.value
    err = upper.abs_err + arc.rem + arc.rounding + arc.trunc + _EPS * abs(value)
    if not abs(value) + err < math.inf:  # nan fails too
        raise PrecisionError(f"the inner product of weight {k} passes the float range")
    return ValueWithError(value, err)


def petersson_norm_sq(f: Eigenform) -> ValueWithError:
    """The squared Petersson norm of f, at `default_spec`."""
    return petersson_inner(f, f)


@dataclass(frozen=True)
class TriangleCheck:
    """Kernel coefficient vs. spectral sum for r_k(1), with their ratio."""

    k: int
    lhs: ValueWithError  # r_k(1) from the kernel series
    rhs: ValueWithError  # sum_f L*(f, k/2) / (16 Gamma(k/2) ||f||^2), Kohnen's identity at n = 1
    ratio: float


def kohnen_triangle(
    k: int, lhs: ValueWithError, values: list[tuple[Eigenform, ValueWithError]]
) -> TriangleCheck:
    """Compare r_k(1) = lhs against the spectral sum that Kohnen's identity
    equates it to, built from the central values (f, L(f, k/2)) of the weight-k
    eigenforms as `lfunction.central_values` returns them.  `DomainError`
    unless k is one of `kernel.r_k`'s weights and values holds dim S_k forms,
    each of weight k.

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
    k = _check_weight(k)
    if len(values) != dim_cusp(k) or any(f.weight != k for f, _ in values):
        raise DomainError(f"kohnen_triangle needs the {dim_cusp(k)} forms of weight {k}")
    # 16 (2 pi)^(k/2) lies in a bracket [lo, hi] / 2^256 less than 2^-240
    # wide relatively; the int quotient rounds 2^256 / mid, mid = (lo + hi) / 2, once
    scale = (2 << _FIX_BITS) / sum(_pi_power_fixed(16 * 2 ** (k // 2), 1, k // 2))
    rhs_val = rhs_err = mass = 0.0
    for f, lv in values:
        norm = petersson_norm_sq(f)
        if not norm.excludes_zero():
            raise PrecisionError(f"a norm of weight {k} does not exclude zero")
        term = scale * lv.value / norm.value
        rhs_val += term
        mass += abs(term)
        # |L/N - L~/N~| <= (e_L + |L~| e_N / |N~|) / (|N~| - e_N), as |N| >= |N~| - e_N
        rhs_err += scale * (lv.abs_err + abs(lv.value) * norm.abs_err / abs(norm.value)) / (
            abs(norm.value) - norm.abs_err)
    # Rounding, each step counted as one _EPS, twice the unit roundoff, which
    # covers the second-order terms: scale is within one of its exact value
    # (half an ulp and the bracket's half width), and each term's product and
    # quotient add 2 and the sum d - 1, relative to sum |term|; rhs_err
    # carries scale's one and at most d + 6 roundings of its own.
    d = len(values)
    bar = rhs_err * (1.0 + (d + 7) * _EPS) + (d + 2) * _EPS * mass
    rhs = ValueWithError(rhs_val, bar)
    return TriangleCheck(k=k, lhs=lhs, rhs=rhs, ratio=lhs.value / rhs.value)


def triangle_check(k: int, eps: float = 1e-10) -> TriangleCheck:
    """`kohnen_triangle` of r_k(1) and the central values of weight k, each to eps."""
    return kohnen_triangle(k, r_k(k, 1, eps).value, central_values(k, eps))
