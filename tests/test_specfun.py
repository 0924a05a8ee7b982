import math

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from ckkernel.errors import DomainError, PrecisionError
from ckkernel.specfun import (
    MAX_SERIES_ARG,
    HalfIntOrder,
    bessel_envelope,
    bessel_j,
    upper_incomplete_gamma,
)

EPS = 2.220446049250313e-16


def _reference_bessel_j(nu, x):
    """bessel_j's ascending series as first written: exp(lgamma) per call, max() per step."""
    v = nu.nu
    half = x / 2.0
    q = half * half
    lg0 = v * math.log(half) - math.lgamma(v + 1.0)
    term = math.exp(lg0)
    lead_err = abs(lg0) * EPS * term
    total = term
    max_abs = abs(term)
    j = 0
    while True:
        ratio = q / ((j + 1) * (v + j + 1))
        next_term = -term * ratio
        if ratio < 1.0 and abs(next_term) <= 1e-18 * abs(total) + 5e-324:
            tail = abs(next_term)
            break
        term = next_term
        total += term
        max_abs = max(max_abs, abs(term), abs(total))
        j += 1
    return total, tail + ((j + 2) * EPS * max_abs + lead_err)


def _reference_envelope(nu, x):
    v = nu.nu
    return math.exp(v * math.log(x / 2.0) - math.lgamma(v + 1.0))


class TestHalfIntOrder:
    def test_nu(self):
        assert HalfIntOrder(11).nu == 5.5
        assert HalfIntOrder.for_weight(12).twice_nu == 11

    def test_even_rejected(self):
        with pytest.raises(DomainError):
            HalfIntOrder(4)
        with pytest.raises(DomainError):
            HalfIntOrder(-1)


class TestBesselJ:
    def test_half_order_closed_form(self):
        nu = HalfIntOrder(1)
        for x in (0.01, 0.3, 1.0, 2.0, math.pi / 2, math.pi):
            closed = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
            assert bessel_j(nu, x).value == pytest.approx(closed, abs=1e-12)

    def test_three_halves_closed_form(self):
        nu = HalfIntOrder(3)
        for x in (0.05, 0.5, 1.5, 3.0, math.pi):
            closed = math.sqrt(2.0 / (math.pi * x)) * (math.sin(x) / x - math.cos(x))
            assert bessel_j(nu, x).value == pytest.approx(closed, abs=1e-12)

    def test_zero_of_sine_at_pi(self):
        j = bessel_j(HalfIntOrder(1), math.pi)
        assert abs(j.value) <= 1e-15 + j.abs_err

    def test_value_at_half_pi(self):
        j = bessel_j(HalfIntOrder(1), math.pi / 2)
        assert j.value == pytest.approx(2.0 / math.pi, abs=1e-14)

    def test_long_series_oracle_high_order(self):
        # 50-term reference summation at doubled precision
        with mp.workdps(40):
            ref = float(mp.besselj(mp.mpf(11) / 2, mp.pi))
        assert bessel_j(HalfIntOrder(11), math.pi).value == pytest.approx(ref, abs=1e-14)

    def test_error_bound_honest_against_mpmath(self):
        for twice_nu in (1, 5, 11, 27, 79):
            for x in (0.01, 0.5, 1.0, math.pi, 4.0):
                j = bessel_j(HalfIntOrder(twice_nu), x)
                with mp.workdps(40):
                    ref = float(mp.besselj(mp.mpf(twice_nu) / 2, x))
                assert abs(j.value - ref) <= j.abs_err + 1e-300

    def test_envelope_inequality(self):
        for twice_nu in range(1, 80, 2):
            nu = HalfIntOrder(twice_nu)
            for x in (0.01, 0.1, 0.5, 1.0, 2.0, math.pi):
                j = bessel_j(nu, x)
                assert abs(j.value) <= bessel_envelope(nu, x) + j.abs_err

    def test_recurrence_residual(self):
        for twice_nu in range(5, 22, 2):
            for x in (0.5, 1.0, math.pi):
                lo = bessel_j(HalfIntOrder(twice_nu - 2), x)
                mid = bessel_j(HalfIntOrder(twice_nu), x)
                hi = bessel_j(HalfIntOrder(twice_nu + 2), x)
                coef = twice_nu / x
                resid = abs(lo.value + hi.value - coef * mid.value)
                allowed = (
                    lo.abs_err
                    + hi.abs_err
                    + coef * mid.abs_err
                    + 4e-16 * (abs(lo.value) + abs(hi.value) + abs(coef * mid.value))
                )
                assert resid <= allowed

    def test_matches_parent_loop_bit_for_bit(self):
        # the memoized ln Gamma(nu + 1) and the two comparisons in place of
        # max() change no bit of the value or the bar, nor of the envelope
        xs = [n * math.pi / m for n in range(1, 6) for m in range(1, 257)]
        xs += [MAX_SERIES_ARG * i / 1024 for i in range(1, 1025)]
        for k in range(12, 41, 4):
            nu = HalfIntOrder.for_weight(k)
            for x in xs:
                j = bessel_j(nu, x)
                assert (j.value, j.abs_err) == _reference_bessel_j(nu, x), (k, x)
                assert bessel_envelope(nu, x) == _reference_envelope(nu, x), (k, x)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 39), st.floats(0.01, MAX_SERIES_ARG))
    @example(0, MAX_SERIES_ARG)
    @example(39, 0.01)
    def test_no_partial_sum_exceeds_the_largest_term(self, i, x):
        # the reference loop also takes every |total| into max_abs; nu <= 79/2
        # and x >= 0.01 keep the largest term above 1e-140, where the proof
        # in bessel_j's docstring is exact
        nu = HalfIntOrder(2 * i + 1)
        j = bessel_j(nu, x)
        assert (j.value, j.abs_err) == _reference_bessel_j(nu, x)

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_j(HalfIntOrder(1), 0.0)
        with pytest.raises(DomainError):
            bessel_j(HalfIntOrder(1), -1.0)


class TestBesselEnvelope:
    def test_zero(self):
        assert bessel_envelope(HalfIntOrder(1), 0.0) == 0.0

    def test_half_order_value(self):
        # Gamma(3/2) = sqrt(pi)/2
        assert bessel_envelope(HalfIntOrder(1), 2.0) == pytest.approx(
            2.0 / math.sqrt(math.pi), rel=1e-14
        )

    def test_two_closed_forms_agree(self):
        # the exp-lgamma form against (x/2)^nu / Gamma(nu + 1) at 40 digits
        for k in (12, 16, 24, 40, 80):
            nu = HalfIntOrder.for_weight(k)
            for x in (0.1, 1.0, math.pi, 2 * math.pi):
                with mp.workdps(40):
                    v = mp.mpf(k - 1) / 2
                    ref = float((mp.mpf(x) / 2) ** v / mp.gamma(v + 1))
                assert bessel_envelope(nu, x) == pytest.approx(ref, rel=1e-12)


class TestUpperIncompleteGamma:
    def test_s_one(self):
        g = upper_incomplete_gamma(1.0, 1.0)
        assert g.value == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_integer_closed_form(self):
        g = upper_incomplete_gamma(3.0, 2.0)
        assert g.value == pytest.approx(10.0 * math.exp(-2.0), rel=1e-13)
        for s in (2, 4, 7, 12):
            for x in (0.5, 3.0, 20.0):
                closed = (
                    math.factorial(s - 1)
                    * math.exp(-x)
                    * sum(x**j / math.factorial(j) for j in range(s))
                )
                assert upper_incomplete_gamma(float(s), x).value == pytest.approx(
                    closed, rel=1e-12
                )

    def test_quadrature_oracle(self):
        s, x = 6.0, 2 * math.pi
        ref, quad_err = integrate.quad(
            lambda t: t ** (s - 1) * math.exp(-t), x, math.inf
        )
        assert upper_incomplete_gamma(s, x).value == pytest.approx(ref, rel=1e-12)

    def test_recursion_residual(self):
        for s in (0.7, 2.5, 6.0, 19.5, 40.0):
            for x in (0.3, 2.0, 6.28, 30.0):
                a = upper_incomplete_gamma(s + 1.0, x).value
                b = upper_incomplete_gamma(s, x).value
                rhs = s * b + x**s * math.exp(-x)
                assert a == pytest.approx(rhs, rel=1e-12)

    def test_error_bound_honest_against_mpmath(self):
        with mp.workdps(40):
            for s in (1.0, 3.5, 6.0, 20.0, 59.0):
                for x in (0.5, 2.0, 6.28, 25.0, 80.0):
                    g = upper_incomplete_gamma(s, x)
                    ref = float(mp.gammainc(s, x))
                    assert abs(g.value - ref) <= g.abs_err + 1e-300

    @settings(max_examples=400, deadline=None)
    @given(s=st.floats(0.0, 60.0, exclude_min=True), x=st.floats(0.0, 1e6, exclude_min=True))
    @example(s=55.0, x=4 * math.pi * 3)  # the Parseval sum at k = 56, n = 3
    @example(s=17.954459688131454, x=2 * math.pi)  # completed_l's strip, n = 1
    def test_bar_contains_50_digit_value(self, s, x):
        try:
            g = upper_incomplete_gamma(s, x)
        except PrecisionError:
            assert 1.0 / s == math.inf  # Gamma(s) ~ 1/s is past the float range
            return
        with mp.workdps(50):
            ref = mp.gammainc(s, x)
            assert abs(g.value - ref) <= g.abs_err, (s, x)

    def test_overflowing_reciprocal_raises_before_the_series(self):
        # 1/s = inf: the series' stop test relative to 1/s could never hold,
        # so the check raises up front rather than after 10,000 steps
        for s in (5e-324, 1e-310):
            with pytest.raises(PrecisionError, match="1/s overflows"):
                upper_incomplete_gamma(s, 0.5)

    def test_error_bound_stays_small_at_moderate_arguments(self):
        # the reported error tracks (|s ln x| + x) ulps, so stay within a
        # 100-ulp relative budget across the moderate-argument box
        for s in (1.0, 3.5, 6.0, 12.0):
            for x in (0.5, 2.0, 6.28, 15.0):
                g = upper_incomplete_gamma(s, x)
                assert g.abs_err <= 100 * 2.3e-16 * abs(g.value) + 1e-300

    def test_domain(self):
        with pytest.raises(DomainError):
            upper_incomplete_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            upper_incomplete_gamma(2.0, 0.0)
        with pytest.raises(DomainError):
            upper_incomplete_gamma(61.0, 1.0)
