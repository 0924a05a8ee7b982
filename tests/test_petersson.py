import math
from dataclasses import dataclass

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
# (Delta, Delta) in the unnormalized measure: a 40-digit mpmath evaluation at the
# default nodes, converged to 9e-27 between the 40x48 and 80x96 grids
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
            QuadratureSpec(x_nodes=4)
        with pytest.raises(DomainError):
            QuadratureSpec(y_nodes=2)
        with pytest.raises(DomainError):
            QuadratureSpec(y_cutoff=1.5)

    def test_default_cutoff_grows_with_weight(self):
        assert default_spec(12).y_cutoff == 6.0
        assert default_spec(40).y_cutoff == pytest.approx(14.0)


class TestGaussLegendre:
    def test_memoized_rule_is_leggauss_and_read_only(self):
        for n in (8, 26, 32, 40, 48, 80, 96):
            nodes, weights = petersson._gauss_legendre(n)
            ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
            assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)
            assert petersson._gauss_legendre(n)[0] is nodes
            for arr in (nodes, weights):
                with pytest.raises(ValueError):
                    arr[0] = 0.0
                with pytest.raises(ValueError):
                    arr *= 2.0

    def test_repeated_norm_is_identical(self):
        for k in (12, 40):
            for f in eigenforms(k, 120):
                assert petersson_norm_sq(f) == petersson_norm_sq(f)


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
        spec = QuadratureSpec(x_nodes=40, y_nodes=48, y_cutoff=6.0)
        fine = QuadratureSpec(x_nodes=80, y_nodes=96, y_cutoff=6.0)
        a = petersson_norm_sq(f, spec)
        b = petersson_norm_sq(f, fine)
        assert abs(a.value - b.value) <= a.abs_err

    def test_delta_norm_bar_contains_reference(self):
        (f,) = eigenforms(12, 60)
        for spec in (default_spec(12), QuadratureSpec(x_nodes=80, y_nodes=96, y_cutoff=6.0)):
            norm = petersson_norm_sq(f, spec)
            assert abs(norm.value - DELTA_NORM_SQ) <= norm.abs_err

    def test_raising_cutoff_stays_within_error(self):
        # the cusp-tail bound at cutoff 4 must cover the mass found up to 7
        (f,) = eigenforms(12, 60)
        low = petersson_norm_sq(f, QuadratureSpec(y_cutoff=4.0))
        high = petersson_norm_sq(f, QuadratureSpec(y_cutoff=7.0))
        assert abs(low.value - high.value) <= low.abs_err

    def test_eigenforms_nearly_orthogonal(self):
        f1, f2 = eigenforms(24, 60)
        inner = petersson_inner(f1, f2)
        n1 = petersson_norm_sq(f1)
        n2 = petersson_norm_sq(f2)
        assert abs(inner.value) / math.sqrt(n1.value * n2.value) < 1e-3

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

    @pytest.mark.parametrize("k", [12, 16, 20])
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
        for k in (12, 16, 20, 24, 28):
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
            triangle_check(32)
