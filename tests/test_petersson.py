import math
import random
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from ckkernel import lfunction, petersson
from ckkernel.errors import DomainError, PrecisionError
from ckkernel.kernel import r_k
from ckkernel.lfunction import central_values, coefficient_count, completed_l
from ckkernel.ntheory import _FIX_BITS, ValueWithError, _pi_power_fixed
from ckkernel.petersson import (
    QuadratureSpec,
    default_spec,
    kohnen_triangle,
    petersson_inner,
    petersson_norm_sq,
    triangle_check,
)
from ckkernel.qexpansion import Eigenform, dim_cusp, eigenforms

EPS = 2.220446049250313e-16
# (Delta, Delta) in the unnormalized measure: at 40 digits with the exact tau(n),
# n <= 60, the region y >= 1 by Parseval (mpmath.gammainc) plus mp.quad on the arc
# gives 1.035362056804320922347817e-6, within 4.8e-26 of this constant
DELTA_NORM_SQ = 1.0353620568043209223e-6


@dataclass(frozen=True)
class ScaledForm:
    """A cusp form given by raw coefficients, without the a_1 = 1 normalization."""

    weight: int
    a: tuple

    @property
    def n_coeffs(self) -> int:
        return len(self.a)

    def coefficient(self, n: int) -> float:
        return self.a[n - 1]


class TestQuadratureSpec:
    def test_invariants(self):
        with pytest.raises(DomainError):
            QuadratureSpec(y_nodes=7)
        with pytest.raises(DomainError):
            QuadratureSpec(y_nodes=2)

    def test_x_integral_is_closed_form(self):
        # one rule in theta; x_nodes is a read-only 1
        assert QuadratureSpec().y_nodes == 20 == default_spec(40).y_nodes
        assert QuadratureSpec(y_nodes=8).x_nodes == 1
        with pytest.raises(AttributeError):
            QuadratureSpec().x_nodes = 2


class TestGaussLegendre:
    def test_rule_is_within_its_charge_of_leggauss_and_moments(self):
        # the charge petersson._gauss_legendre states: nodes within _NODE_ULPS EPS,
        # weights within _WEIGHT_ULPS n^2 EPS relatively; numpy's own weights are
        # off by up to 3.1 n^2 EPS from 50-digit rules (n = 41), so the comparison
        # with them allows 4 n^2 EPS
        node_err = petersson._NODE_ULPS * EPS
        for n in (8, 12, 26, 40, 48, 80, 96):
            nodes, weights = petersson._gauss_legendre(n)
            ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
            assert len(nodes) == len(weights) == n
            assert np.max(np.abs(np.array(nodes) - ref_nodes)) <= node_err, n
            assert np.max(np.abs(np.array(weights) / ref_weights - 1.0)) <= 4.0 * n * n * EPS, n
            # x^j on [-1, 1], j <= 2n - 1: the rule's charge plus the power, the
            # product with the weight and the sum, one EPS each
            for j in range(2 * n):
                exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
                got = math.fsum(w * t**j for t, w in zip(nodes, weights))
                assert abs(got - exact) <= 2.0 * (n * n * petersson._WEIGHT_ULPS
                                                  + j * petersson._NODE_ULPS + 3.0) * EPS, (n, j)
            assert type(nodes) is tuple and type(weights) is tuple

    def test_rule_is_within_its_charge_of_50_digit_rules(self):
        # every node count a QuadratureSpec admits, so the charge is proven by
        # enumeration, not sampled
        with mpmath.workdps(50):
            for n in range(8, petersson._MAX_NODES + 1):
                nodes, weights = petersson._gauss_legendre(n)
                for t, w in zip(nodes, weights):
                    # Newton's method at 50 digits from the float node, with
                    # (z^2 - 1) P_n'(z) = n (z P_n(z) - P_(n-1)(z))
                    z = mpmath.mpf(t)
                    for _ in range(4):
                        p, q = mpmath.legendre(n, z), mpmath.legendre(n - 1, z)
                        z -= p * (z * z - 1) / (n * (z * p - q))
                    ref_w = 2 * (1 - z * z) / (n * mpmath.legendre(n - 1, z)) ** 2
                    assert abs(t - z) <= petersson._NODE_ULPS * EPS, (n, t)
                    assert abs(w / ref_w - 1) <= petersson._WEIGHT_ULPS * n * n * EPS, (n, t)

    def test_repeated_norm_is_identical(self):
        for k in (12, 40):
            for f in eigenforms(k, 120):
                assert petersson_norm_sq(f) == petersson_norm_sq(f)


def box_quadrature(f: ScaledForm, nodes: tuple[int, int]) -> tuple[float, float]:
    """The box [-1/2, 1/2] x [1, Y], Y = max(6, 0.35 k) + 6, by tensor Gauss-Legendre:
    the value and sum w F_abs^2 y^(k-2) over the nodes."""
    k = f.weight
    top = max(6.0, 0.35 * k) + 6.0
    xn, xw = np.polynomial.legendre.leggauss(nodes[0])
    yn, yw = np.polynomial.legendre.leggauss(nodes[1])
    x = 0.5 * xn[:, None]
    y = 1.0 + 0.5 * (top - 1.0) * (yn[None, :] + 1.0)
    w = 0.25 * (top - 1.0) * xw[:, None] * yw[None, :]
    q = np.exp(2j * np.pi * x - 2.0 * np.pi * y)
    coeffs = np.array((0.0,) + tuple(f.a))
    fv = np.polynomial.polynomial.polyval(q, coeffs)
    fa = np.polynomial.polynomial.polyval(np.abs(q), np.abs(coeffs))
    yk = y ** (k - 2)
    return float(np.sum(w * (fv * np.conj(fv)).real * yk)), float(np.sum(w * fa * fa * yk))


def box_oracle(f: ScaledForm) -> tuple[float, float]:
    """The region y >= 1 as a box quadrature at 80 x 96 nodes, with its bar.

    The bar adds twice the gap to a 53 x 64 grid, the rounding of both sums
    (the quadrature's nodes plus n_coeffs (4 pi Y + 16) ulps per factor),
    and the cusp above Y, sum_{m,n} |a_m a_n| (4 pi)^(1-k) Gamma(k-1, 4 pi Y)
    e^(-2 pi (m+n-2) Y).
    """
    k = f.weight
    top = max(6.0, 0.35 * k) + 6.0
    fine, fine_mass = box_quadrature(f, (80, 96))
    coarse, coarse_mass = box_quadrature(f, (53, 64))
    per_term = 2 * f.n_coeffs * (4.0 * math.pi * top + 16.0) + 10.0
    r_fine = (80 * 96 + per_term) * EPS * fine_mass
    r_coarse = (53 * 64 + per_term) * EPS * coarse_mass
    s = sum(abs(a) * math.exp(-2.0 * math.pi * (n - 1) * top) for n, a in enumerate(f.a, 1))
    cusp = s * s * float((4 * mpmath.pi) ** (1 - k) * mpmath.gammainc(k - 1, 4 * mpmath.pi * top))
    return fine, 2.0 * abs(fine - coarse) + 3.0 * r_fine + 2.0 * r_coarse + cusp


def mp_norm_sq(f) -> mpmath.mpf:
    """(f, f) at the working precision for the float coefficients of f: the
    region y >= 1 by Parseval (mpmath.gammainc), the arc strip by mp.quad on
    its half x in [0, 1/2], doubled.  On the arc, y >= sqrt(3)/2 and terms
    past n = 40 are below 1e-60 of the value.  At 40 digits this agrees with
    55 digits and 60 arc coefficients within 3e-41 for the first form at
    k = 28 and 40."""
    k = f.weight
    mp = mpmath.mp
    a = [mp.mpf(c) for c in f.a]
    upper = mp.fsum(c * c * (4 * mp.pi * n) ** (1 - k) * mp.gammainc(k - 1, 4 * mp.pi * n)
                    for n, c in enumerate(a, 1))
    arc_coeffs = a[:40][::-1] + [0]

    def column(x):
        phase = mp.expjpi(2 * x)

        def integrand(y):
            fv = mp.polyval(arc_coeffs, phase * mp.exp(-2 * mp.pi * y))
            return abs(fv) ** 2 * y ** (k - 2)

        return mp.quad(integrand, [mp.sqrt(1 - x * x), 1], method="gauss-legendre")

    return upper + 2 * mp.quad(column, [0, mp.mpf(1) / 2], method="gauss-legendre")


class TestParseval:
    @pytest.mark.parametrize("k", [12, 28, 40])
    def test_matches_box_quadrature(self, k):
        for f in eigenforms(k, 60):
            box, box_err = box_oracle(f)
            upper = petersson._parseval(f, f, k)
            assert abs(upper.value - box) <= upper.abs_err + box_err, k
            assert upper.abs_err <= 1e-12 * upper.value


class TestPeterssonInner:
    def test_norm_positive(self):
        for k in (12, 16, 24):
            for f in eigenforms(k, 60):
                norm = petersson_norm_sq(f)
                assert norm.value > 0
                assert norm.value > norm.abs_err

    def test_delta_norm_regression(self):
        (f,) = eigenforms(12, 60)
        norm = petersson_norm_sq(f)
        assert norm.value == pytest.approx(1.0353620568043209e-06, rel=1e-9)

    def test_scaling_is_bilinear(self):
        (f,) = eigenforms(12, 60)
        doubled = ScaledForm(12, tuple(2.0 * a for a in f.a))
        base = petersson_norm_sq(f)
        scaled = petersson_norm_sq(doubled)
        assert scaled.value == pytest.approx(4.0 * base.value, rel=1e-10)

    def test_doubling_nodes_stays_within_error(self):
        (f,) = eigenforms(12, 60)
        spec = QuadratureSpec(y_nodes=32)
        fine = QuadratureSpec(y_nodes=64)  # the most nodes a spec takes
        a = petersson_inner(f, f, spec)
        b = petersson_inner(f, f, fine)
        assert abs(a.value - b.value) <= a.abs_err

    def test_delta_norm_bar_contains_reference(self):
        (f,) = eigenforms(12, 60)
        for spec in (default_spec(12), QuadratureSpec(y_nodes=64)):
            norm = petersson_inner(f, f, spec)
            assert abs(norm.value - DELTA_NORM_SQ) <= norm.abs_err

    def test_norm_bar_is_small_at_every_weight(self):
        for n_coeffs in (60, 120):
            for k in range(12, 42, 2):
                for f in eigenforms(k, n_coeffs):
                    norm = petersson_norm_sq(f)
                    assert norm.abs_err <= 1e-11 * norm.value, (k, n_coeffs)

    def test_arc_remainders_are_small_at_default_spec(self):
        # the proven Gauss remainder default_spec(k) was sized on
        for n_coeffs in (60, 120):
            for k in range(12, 41, 4):
                for f in eigenforms(k, n_coeffs):
                    norm = petersson_norm_sq(f).value
                    arc = petersson._arc_value(f, f, k, default_spec(k))
                    assert arc.rem <= 1e-14 * norm, (k, n_coeffs)

    def test_split_remainder_bounds_the_unconverged_rule(self):
        # from 8 nodes up to default_spec(k) the rule is far from converged, so
        # a majorant that undercut the true remainder would show against a
        # 64-node rule; both rules keep the same coefficients, so the
        # truncation is common to them
        for k in range(12, 41, 4):
            for n_coeffs in (coefficient_count(k), 120):
                f = eigenforms(k, n_coeffs)[0]
                ref = petersson._arc_value(f, f, k, QuadratureSpec(y_nodes=64))
                for n in range(8, default_spec(k).y_nodes + 1):
                    arc = petersson._arc_value(f, f, k, QuadratureSpec(y_nodes=n))
                    slack = arc.rem + arc.rounding + ref.rem + ref.rounding
                    assert abs(arc.value - ref.value) <= slack, (k, n_coeffs, n)

    def test_split_bound_covers_the_pair_majorant_on_every_cell(self):
        # on each cell [t0, t1] of |Im theta| the split bound must be at least
        # s (1 + 2 s) cosh^(k-2) t sum_(m,n) |a_m b_n| e^(-2 pi c min(m e^t + n e^-t,
        # m e^-t + n e^t)), s = s(t), summed pair by pair at t sampled in the cell
        cells = petersson._CELLS
        for k in range(12, 41, 4):
            forms = eigenforms(k, coefficient_count(k))
            # the first form with itself, and with the second where there is one
            for f, g in [(forms[0], forms[0]), *[(forms[0], g) for g in forms[1:2]]]:
                fm = petersson._kept_terms(f, k)
                gm = fm if g is f else petersson._kept_terms(g, k)
                for rho in petersson._RHO:
                    a = petersson._H * (1.0 + (rho + 1.0 / rho) / 2.0)
                    beta = petersson._H * (rho - 1.0 / rho) / 2.0
                    c = math.cos(a)
                    bounds = petersson._ellipse_bound(fm, gm, k, rho, cells)
                    assert len(bounds) == cells
                    for j, bound in enumerate(bounds):
                        for t in np.linspace(beta * j / cells, beta * (j + 1) / cells, 5):
                            s = math.hypot(math.sin(a), math.sinh(t))
                            up, down = math.exp(t), math.exp(-t)
                            total = math.fsum(
                                am * bn * math.exp(-math.tau * c * min(m * up + n * down,
                                                                       m * down + n * up))
                                for m, am in enumerate(fm, 1) for n, bn in enumerate(gm, 1))
                            majorant = s * (1.0 + 2.0 * s) * math.cosh(t) ** (k - 2) * total
                            assert bound >= majorant, (k, f is g, rho, j, t)

    def test_an_infinite_majorant_gives_an_infinite_remainder(self):
        # a sup that overflows to inf must never be charged as a finite remainder
        for rho in petersson._RHO:
            for n in range(8, petersson._MAX_NODES + 1):
                assert petersson._gauss_remainder(math.inf, rho, n) == math.inf, (rho, n)

    def test_symmetric_sum_agrees_with_the_general_path(self):
        # a copy of f is another object; one path sums (f, f) and (f, copy)
        for k in range(12, 41, 2):
            for n_coeffs in (coefficient_count(k), 120):
                for f in eigenforms(k, n_coeffs):
                    norm = petersson_inner(f, f)
                    general = petersson_inner(f, Eigenform(f.weight, f.a))
                    assert hexes(norm) == hexes(general), k

    @pytest.mark.parametrize("k", [28, 40])
    def test_norm_bar_contains_40_digit_value(self, k):
        f = eigenforms(k, 60)[0]
        with mpmath.workdps(40):
            ref = mp_norm_sq(f)
        # the default spec, and a coarse one charged its own (larger) remainder
        for spec in (None, QuadratureSpec(y_nodes=8)):
            norm = petersson_inner(f, f, spec)
            assert abs(norm.value - ref) <= norm.abs_err, (k, spec)
        assert norm.abs_err > 1e-6 * norm.value

    def test_eigenforms_nearly_orthogonal(self):
        f1, f2 = eigenforms(24, 60)
        inner = petersson_inner(f1, f2)
        n1 = petersson_norm_sq(f1)
        n2 = petersson_norm_sq(f2)
        assert abs(inner.value) / math.sqrt(n1.value * n2.value) < 1e-3

    def test_distinct_eigenforms_are_orthogonal_within_the_bar(self):
        # Hecke eigenforms of distinct eigenvalues are exactly orthogonal, so
        # every inner product of two of them is 0: an exact oracle for f != g
        for n_coeffs in (60, 120):
            for k in range(24, 42, 2):
                forms = eigenforms(k, n_coeffs)
                for i, f in enumerate(forms):
                    for g in forms[i + 1:]:
                        for inner in (petersson_inner(f, g), petersson_inner(g, f)):
                            assert abs(inner.value) <= inner.abs_err, (k, n_coeffs)

    def test_mixed_weights_rejected(self):
        (f,) = eigenforms(12, 60)
        (g,) = eigenforms(16, 60)
        with pytest.raises(DomainError):
            petersson_inner(f, g)


class TestKohnenIdentity:
    """r_k(n) = sum_f L*(f, k/2) a_f(n) / (16 Gamma(k/2) ||f||^2) for n = 1..5.

    One constant derived from Kohnen's identity has to hold at every n, so it
    cannot have been fitted at n = 1; odd n pins the sign of the kernel bracket.
    """

    @pytest.mark.parametrize("k", [12, 16, 20, 28, 40])
    def test_kernel_matches_spectral_sum(self, k):
        scale = 1.0 / (16.0 * math.gamma(k / 2))
        sides = [
            (f, completed_l(f, k / 2).completed, petersson_norm_sq(f))
            for f in eigenforms(k, 60)
        ]
        for n in range(1, 6):
            lhs = r_k(k, n).value
            terms = [scale * lv.value * f.coefficient(n) / nm.value for f, lv, nm in sides]
            rhs = math.fsum(terms)
            rhs_err = sum(
                scale * abs(f.coefficient(n))
                * (lv.abs_err / nm.value + abs(lv.value) * nm.abs_err / nm.value**2)
                for f, lv, nm in sides
            ) + 8 * EPS * sum(abs(t) for t in terms)
            assert abs(lhs.value - rhs) <= lhs.abs_err + rhs_err, (k, n)


def _running_triangle(k, values):
    """kohnen_triangle's loop written plainly, with a running error bound
    (Higham 2002, section 3.3) carried in exact rationals beside each
    computed float: every operation adds u |y| of its computed result y (u =
    EPS / 2, the model fl(x op y) = (x op y) / (1 + delta)), and its
    operands' bounds propagate through it exactly, second-order terms
    included.  The scale's bound is its distance from the far end of the
    exact bracket of 1 / (16 (2 pi)^(k/2)).  Returns the computed rhs_val
    and rhs_err, and the bounds on their distance from the exact spectral
    sum at the L-values' and norms' centres and from the exact propagated
    error the loop's formula states."""
    u = Fraction(EPS) / 2
    lo, hi = _pi_power_fixed(16 * 2 ** (k // 2), 1, k // 2)
    scale = (2 << _FIX_BITS) / (lo + hi)
    s = Fraction(scale)
    e_s = max(abs(s - Fraction(1 << _FIX_BITS, end)) for end in (lo, hi))

    def rounded(y):  # a computed float and the bound u |y| on the rounding that made it
        return y, u * abs(Fraction(y))

    rhs_val = rhs_err = 0.0
    mu_val = mu_err = Fraction(0)
    for f, lv in values:
        norm = petersson_norm_sq(f)
        big_l, big_n = Fraction(lv.value), Fraction(norm.value)
        p, e_p = rounded(scale * lv.value)
        e_p += abs(big_l) * e_s
        term, e_t = rounded(p / norm.value)
        e_t += e_p / abs(big_n)
        rhs_val, e = rounded(rhs_val + term)
        mu_val += e_t + e
        a, e_a = rounded(abs(lv.value) * norm.abs_err)
        b, e_b = rounded(a / abs(norm.value))
        e_b += e_a / abs(big_n)
        c, e_c = rounded(lv.abs_err + b)
        e_c += e_b
        den, e_den = rounded(abs(norm.value) - norm.abs_err)
        t, e_t = rounded(scale * c)
        e_t += abs(s) * e_c + abs(Fraction(c)) * e_s + e_s * e_c
        g, e_g = rounded(t / den)
        e_g += (e_t + abs(Fraction(t) / Fraction(den)) * e_den) / (Fraction(den) - e_den)
        rhs_err, e = rounded(rhs_err + g)
        mu_err += e_g + e
    return rhs_val, rhs_err, mu_val, mu_err


class TestTriangleCheck:
    def test_both_sides_positive(self):
        for k in (12, 16):
            tri = triangle_check(k, 1e-9)
            assert tri.lhs.value > 0
            assert tri.rhs.value > 0
            assert tri.ratio > 0

    def test_ratio_is_one(self):
        for k in (12, 16, 20, 24, 28, 32, 36, 40):
            tri = triangle_check(k, 1e-9)
            assert abs(tri.ratio - 1.0) <= 1e-9
            assert abs(tri.lhs.value - tri.rhs.value) <= tri.lhs.abs_err + tri.rhs.abs_err

    def test_rhs_bar_covers_the_propagated_error_and_the_rounding(self):
        # at 40 digits, from the same L-values and norms: the exact spectral sum
        # at their centres, and how far the corners of their boxes move it
        for k in range(12, 41, 4):
            tri = triangle_check(k, 1e-9)
            with mpmath.workdps(40):
                scale = 1 / (16 * (2 * mpmath.pi) ** (k // 2))
                centre = prop = mpmath.mpf(0)
                for f, lv in central_values(k, 1e-9):
                    nm = petersson_norm_sq(f)
                    q = mpmath.mpf(lv.value) / nm.value
                    centre += scale * q
                    prop += scale * max(abs((mpmath.mpf(lv.value) + a) / (nm.value + b) - q)
                                        for a in (-lv.abs_err, lv.abs_err)
                                        for b in (-nm.abs_err, nm.abs_err))
                assert abs(tri.rhs.value - centre) + prop <= tri.rhs.abs_err, k

    @pytest.mark.parametrize("k", [12, 16, 20, 24, 28, 36, 40])
    def test_bar_charges_hold_the_running_error_bound(self, k):
        # the weights the report's triangle takes, k = 12..28, and the
        # spectral weights 28, 36 and 40: (d + 7) EPS rhs_err is at least the
        # running bound on rhs_err's own rounding (at most 0.46 of it), and
        # the whole bar holds rhs_err, that bound and the value's bound
        values = central_values(k)
        rhs = kohnen_triangle(k, ValueWithError(1.0, 0.0), values).rhs
        rhs_val, rhs_err, mu_val, mu_err = _running_triangle(k, values)
        d = len(values)
        assert rhs_val == rhs.value
        assert mu_err <= (d + 7) * Fraction(EPS) * Fraction(rhs_err)
        assert Fraction(rhs_err) + mu_err + mu_val <= Fraction(rhs.abs_err)

    def test_ratio_reported_as_measured(self):
        tri = triangle_check(12, 1e-9)
        assert tri.ratio == pytest.approx(tri.lhs.value / tri.rhs.value, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            triangle_check(14)
        with pytest.raises(DomainError):
            triangle_check(44)

    def test_scale_is_the_rounded_50_digit_value_charged_once(self, monkeypatch):
        # with unit norms and one unit central value the spectral sum is the
        # scale 1 / (16 (2 pi)^(k/2)) itself: correctly rounded from the pi
        # bracket, and charged (d + 2) _EPS, one of them the scale's
        monkeypatch.setattr(petersson, "petersson_norm_sq", lambda f: ValueWithError(1.0, 0.0))
        for k in range(12, 41, 4):
            d = dim_cusp(k)
            values = [(Eigenform(k, (1.0,)), ValueWithError(float(i == 0), 0.0)) for i in range(d)]
            rhs = kohnen_triangle(k, ValueWithError(1.0, 0.0), values).rhs
            with mpmath.workdps(50):
                exact = 1 / (16 * (2 * mpmath.pi) ** (k // 2))
                assert rhs.value == float(exact), k
                assert abs(rhs.value - exact) <= EPS / 2 * exact, k
            assert rhs.abs_err == (d + 2) * EPS * rhs.value, k

    def test_kohnen_triangle_rejects_a_mismatched_weight_or_form_set(self):
        # the identity holds only for all the eigenforms of one certified weight
        lhs = r_k(24, 1).value
        values = central_values(24)  # dim S_24 = 2
        for k, vals in ((12, values), (14, values), (44, values), (24, values[:1]), (24, [])):
            with pytest.raises(DomainError):
                kohnen_triangle(k, lhs, vals)
        assert kohnen_triangle(24, lhs, values).ratio == pytest.approx(1.0)


def empty_float_tables():
    """Empty the memoized incomplete-gamma rows and arc node tables every form shares."""
    lfunction._gamma_row.cache_clear()
    petersson._arc_nodes.cache_clear()


def hexes(*values: ValueWithError) -> tuple[str, ...]:
    return tuple(x.hex() for v in values for x in (v.value, v.abs_err))


def spectral_requests(weights, counts=None) -> list[tuple]:
    """(kind, args) for completed_l at four points of the strip, petersson_inner
    of every pair at three specs and petersson_norm_sq, for every eigenform of
    each weight at coefficient_count(k) and 120 coefficients (or `counts`)."""
    requests = []
    for k in weights:
        for n in counts or (coefficient_count(k), 120):
            forms = eigenforms(k, n)
            for f in forms:
                requests += [("L", f, s) for s in (k // 2 - 2, k // 2, k // 2 + 1, k // 2 + 2)]
                requests += [("P", f, g, spec) for g in forms for spec in (None, 8, 64)]
                requests.append(("N", f))
    return requests


def answer(request) -> tuple[str, ...]:
    """The hex dump of one request's value and bar."""
    kind, f, *rest = request
    if kind == "L":
        lv = completed_l(f, *rest)
        return hexes(lv.completed, lv.finite) + (str(lv.terms_used),)
    if kind == "P":
        g, spec = rest
        return hexes(petersson_inner(f, g, spec and QuadratureSpec(spec)))
    return hexes(petersson_norm_sq(f))


class TestSharedTables:
    """completed_l and the Petersson sums share their form-independent terms
    through two memos (lfunction._gamma_row, petersson._arc_nodes); every
    answer must be the one made from emptied memos, whatever was asked
    before it."""

    def test_call_order_does_not_matter(self):
        requests = spectral_requests(range(12, 61, 2))
        fresh = []
        for r in requests:
            empty_float_tables()
            fresh.append(answer(r))
        empty_float_tables()
        for seed in (1, 2):  # the first pass starts from emptied memos, the second from full ones
            order = random.Random(seed).sample(range(len(requests)), len(requests))
            got = {i: answer(requests[i]) for i in order}
            assert [got[i] for i in range(len(requests))] == fresh, seed

    def test_threads_share_the_tables_safely(self):
        # four threads ask in different orders, from emptied memos, while the
        # interpreter switches threads every microsecond
        requests = spectral_requests(range(12, 41, 4), (120,))
        expected = []
        for r in requests:
            empty_float_tables()
            expected.append(answer(r))
        empty_float_tables()
        results = {}

        def work(seed):
            order = random.Random(seed).sample(range(len(requests)), len(requests))
            got = {i: answer(requests[i]) for i in order}
            results[seed] = [got[i] for i in range(len(requests))]

        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [results.get(seed) for seed in range(4)] == [expected] * 4
        for memo in (lfunction._gamma_row, petersson._arc_nodes):
            info = memo.cache_info()
            assert 0 < info.currsize <= info.maxsize

    def test_an_int_and_a_float_s_share_one_row(self):
        # 20 == 20.0 and both hash alike, so they read one row; every
        # operation on either gives the same double
        f = eigenforms(40, 120)[0]
        for first, second in ((20, 20.0), (20.0, 20)):
            empty_float_tables()
            a = completed_l(f, first)
            assert lfunction._gamma_row.cache_info()[:2] == (0, 1)  # (hits, misses)
            b = completed_l(f, second)
            assert hexes(a.completed, a.finite) == hexes(b.completed, b.finite)
            assert lfunction._gamma_row.cache_info()[:2] == (1, 1)

    def test_tables_stay_within_their_bound(self, monkeypatch):
        # more arc keys than the memo keeps: every answer is unchanged
        requests = spectral_requests(range(12, 61, 6), (120,))
        fresh = []
        for r in requests:
            empty_float_tables()
            fresh.append(answer(r))
        assert lfunction._gamma_row.cache_info().maxsize == 64
        assert petersson._arc_nodes.cache_info().maxsize == 16
        empty_float_tables()
        for i in random.Random(3).sample(range(len(requests)), len(requests)):
            assert answer(requests[i]) == fresh[i], requests[i][0]
        info = petersson._arc_nodes.cache_info()
        assert info.currsize == 16 and info.misses > 16
        # the largest entry, N = 25 at k = 60: N^2 moments and 2 N masses
        assert sum(map(len, petersson._arc_nodes(60, 64))) <= 25 * 25 + 2 * 25 == 675
        # rows of at most 4 terms: a sum that has not stopped by a row's end
        # raises rather than make terms past it
        f = eigenforms(40, 120)[0]
        used = completed_l(f, 20).terms_used
        monkeypatch.setattr(lfunction, "_MAX_COUNT", 64 * 4)
        empty_float_tables()
        assert len(lfunction._gamma_row(20, 2.0 * math.pi, 20.5)[0]) == 4 < used
        for call in (lambda: completed_l(f, 20), lambda: petersson_norm_sq(f)):
            with pytest.raises(PrecisionError, match="end of its incomplete-gamma row"):
                call()

    def test_a_refused_s_leaves_no_row(self):
        # Gamma(63, x) is past the incomplete gamma's s <= 60
        empty_float_tables()
        with pytest.raises(DomainError):
            lfunction.gamma_series([1.0] * 40, 63.0, 4.0 * math.pi, 65)
        assert lfunction._gamma_row.cache_info().currsize == 0

    def test_every_normalized_sum_stops_within_its_row(self):
        # a_1 = 1 (and a_1 b_1 = 1): the sum's mass is at least the unit
        # series', so it stops within the row that series fills; every row
        # ends at that series' stop, never at x = 708 or at the count cap,
        # and the last x is 150.8 = 4 pi 12 (Parseval at k = 60)
        top = 0.0
        for k in range(12, 61, 2):
            p = (k + 1) / 2
            for n in (coefficient_count(k), 120):
                forms = eigenforms(k, n)
                sums = [([a * b for a, b in zip(f.a, g.a)], k - 1, 4.0 * math.pi, k + 1)
                        for f in forms for g in forms]
                for f in forms:
                    for s in (k // 2 - 2, k // 2 - 1, k // 2, k // 2 + 1, k // 2 + 2):
                        sums += [(f.a, s, math.tau, p), (f.a, k - s, math.tau, p),
                                 (f.a, k - s, math.tau * 1.25, p), (f.a, s, math.tau / 1.25, p)]
                for c, s, lam, q in sums:
                    used = lfunction.gamma_series(c, s, lam, q)[1]
                    xpow, value, _, tails = lfunction._gamma_row(s, lam, q)
                    size = len(value)
                    assert used <= size < lfunction._MAX_COUNT // 64, (k, n, s, lam)
                    assert tails[-1] <= math.ulp(xpow[0] * value[0]), (k, n, s, lam)
                    assert lam * size < 708.0, (k, n, s, lam)
                    top = max(top, lam * size)
        assert top == 4.0 * math.pi * 12

    def test_one_arc_entry_per_weight_and_rule(self):
        # weight 40's forms keep 16, 15 and 15 terms and still share one entry,
        # so the norms of weights 28, 36 and 40 at two lengths keep three; the
        # entry's N, 18 at k = 40, caps every form's kept terms
        kept = sorted(len(petersson._kept_terms(f, 40)) for f in eigenforms(40, 120))
        assert kept == [15, 15, 16]
        empty_float_tables()
        for k in (28, 36, 40):
            for n in (coefficient_count(k), 120):
                for f in eigenforms(k, n):
                    petersson_norm_sq(f)
        assert petersson._arc_nodes.cache_info().currsize == 3
        moments, masses = petersson._arc_nodes(40, 20)
        assert (len(moments), len(masses)) == (18 * 18, 2 * 18)
        tiny = ScaledForm(40, (2.0**-100,) * 40)
        assert len(petersson._kept_terms(tiny, 40)) == 18

    def test_the_weight_gate_comes_before_any_memo(self):
        f = eigenforms(62, 40)[0]
        empty_float_tables()
        for call in (lambda: petersson_norm_sq(f),
                     lambda: petersson_inner(f, f, QuadratureSpec(20))):
            with pytest.raises(DomainError):
                call()
        assert lfunction._gamma_row.cache_info().currsize == 0
        assert petersson._arc_nodes.cache_info().currsize == 0
