import math
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest

from ckkernel import petersson
from ckkernel.errors import DomainError
from ckkernel.kernel import r_k
from ckkernel.lfunction import completed_l
from ckkernel.petersson import (
    QuadratureSpec,
    default_spec,
    petersson_inner,
    petersson_norm_sq,
    triangle_check,
)
from ckkernel.qexpansion import eigenforms

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
        assert QuadratureSpec().y_nodes == 30 == default_spec(40).y_nodes
        assert QuadratureSpec(y_nodes=8).x_nodes == 1
        with pytest.raises(AttributeError):
            QuadratureSpec().x_nodes = 2


class TestGaussLegendre:
    def test_memoized_rule_is_within_its_charge(self):
        # the charge petersson._gauss_legendre states: nodes within _NODE_ULPS EPS,
        # weights within _WEIGHT_ULPS n^2 EPS relatively
        node_err = petersson._NODE_ULPS * EPS
        for n in (8, 12, 26, 40, 48, 80, 96):
            nodes, weights = petersson._gauss_legendre(n)
            weight_err = petersson._WEIGHT_ULPS * n * n * EPS
            ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
            assert len(nodes) == len(weights) == n
            assert np.max(np.abs(np.array(nodes) - ref_nodes)) <= node_err, n
            assert np.max(np.abs(np.array(weights) / ref_weights - 1.0)) <= weight_err, n
            # x^j on [-1, 1], j <= 2n - 1: the rule's charge plus the power, the
            # product with the weight and the sum, one EPS each
            for j in range(2 * n):
                exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
                got = math.fsum(w * t**j for t, w in zip(nodes, weights))
                assert abs(got - exact) <= 2.0 * (n * n * petersson._WEIGHT_ULPS
                                                  + j * petersson._NODE_ULPS + 3.0) * EPS, (n, j)
            assert petersson._gauss_legendre(n) is petersson._gauss_legendre(n)
            assert type(nodes) is tuple and type(weights) is tuple

    def test_rule_is_within_its_charge_of_50_digit_rules(self):
        with mpmath.workdps(50):
            for n in (8, 13, 26, 40):
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
        spec = QuadratureSpec(y_nodes=48)
        fine = QuadratureSpec(y_nodes=96)
        a = petersson_norm_sq(f, spec)
        b = petersson_norm_sq(f, fine)
        assert abs(a.value - b.value) <= a.abs_err

    def test_delta_norm_bar_contains_reference(self):
        (f,) = eigenforms(12, 60)
        for spec in (default_spec(12), QuadratureSpec(y_nodes=96)):
            norm = petersson_norm_sq(f, spec)
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

    @pytest.mark.parametrize("k", [28, 40])
    def test_norm_bar_contains_40_digit_value(self, k):
        f = eigenforms(k, 60)[0]
        with mpmath.workdps(40):
            ref = mp_norm_sq(f)
        # the default spec, and a coarse one charged its own (larger) remainder
        for spec in (None, QuadratureSpec(y_nodes=8)):
            norm = petersson_norm_sq(f, spec)
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

    def test_ratio_reported_as_measured(self):
        tri = triangle_check(12, 1e-9)
        assert tri.ratio == pytest.approx(tri.lhs.value / tri.rhs.value, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            triangle_check(14)
        with pytest.raises(DomainError):
            triangle_check(44)
