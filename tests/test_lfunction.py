import math
import random

import mpmath as mp
import pytest

from ckkernel.errors import DomainError, PrecisionError
from ckkernel.lfunction import (
    central_values,
    completed_l,
    deligne_tail,
    functional_equation_residual,
    gamma_series,
)
from ckkernel.qexpansion import eigenforms


def mpmath_l_value(f, s: float, terms: int = 120) -> float:
    """Independent oracle: the same Mellin split at much higher precision."""
    with mp.workdps(50):
        k = f.weight
        root = 1 if k % 4 == 0 else -1
        total = mp.mpf(0)
        for n in range(1, terms + 1):
            x = 2 * mp.pi * n
            a = mp.mpf(f.coefficient(n)) if n <= f.n_coeffs else None
            if a is None:
                break
            total += a * (
                x ** (-s) * mp.gammainc(mp.mpf(s), x)
                + root * x ** (s - k) * mp.gammainc(mp.mpf(k - s), x)
            )
        return float(total * (2 * mp.pi) ** s / mp.gamma(s))


def power_exp_sum(p: float, c: float, n0: int) -> mp.mpf:
    """sum_{n >= n0} n^p e^(-c n) at 50 digits, to a relative 1e-60 (the terms
    fall geometrically past n0, so the neglected rest is far below that)."""
    with mp.workdps(50):
        total, n = mp.mpf(0), n0
        while True:
            term = mp.mpf(n) ** p * mp.exp(-mp.mpf(c) * n)
            total += term
            if term < total * mp.mpf(10) ** -60:
                return total
            n += 1


class TestDeligneTail:
    RATES = (math.pi * math.sqrt(3.0), 2.0 * math.pi, 4.0 * math.pi)

    @pytest.mark.parametrize("k", [12, 26, 40])
    def test_bounds_the_50_digit_sum(self, k):
        # the callers' exponents: (k-1)/2 in completed_l, (k+1)/2 on the arc, k in Parseval
        for p in ((k - 1) / 2, (k + 1) / 2, k):
            for c in self.RATES:
                checked = 0
                for n0 in range(1, 122):
                    with mp.workdps(50):
                        ratio = (mp.mpf(n0 + 1) / n0) ** p * mp.exp(-mp.mpf(c))
                    if ratio >= 1:
                        with pytest.raises(PrecisionError):
                            deligne_tail(p, c, n0)
                        continue
                    assert deligne_tail(p, c, n0) >= power_exp_sum(p, c, n0), (p, c, n0)
                    checked += 1
                assert checked >= 100


def gamma_series_oracle(c, s: float, lam: float) -> mp.mpf:
    """sum_n c_n (lam n)^-s Gamma(s, lam n) at 40 digits, over every given c_n."""
    with mp.workdps(40):
        total = mp.mpf(0)
        for n, cn in enumerate(c, 1):
            x = mp.mpf(lam) * n
            total += mp.mpf(cn) * x ** -s * mp.gammainc(s, x)
        return total


class TestGammaSeries:
    @pytest.mark.parametrize("seed", range(12))
    def test_bar_contains_the_40_digit_sum(self, seed):
        # c_1..c_N are given; c_n past N, |c_n| <= n^p, must lie inside the tail
        rng = random.Random(seed)
        s = 55.0 if seed < 3 else rng.uniform(1.0, 60.0)
        lam = rng.choice((2.0 * math.pi, 4.0 * math.pi))
        p = rng.uniform(1.0, min(2.0 * s, 45.0))
        n_min = math.ceil(2.0 * s / lam)
        n_given = rng.randint(n_min, n_min + 25)
        extremes = seed % 2 == 0  # |c_n| = n^p exactly, the tail's worst case
        c = [n**p * (rng.choice((-1.0, 1.0)) if extremes else rng.uniform(-1.0, 1.0))
             for n in range(1, n_given + 25)]
        value, used = gamma_series(c[:n_given], s, lam, p)
        assert used <= n_given
        assert abs(value.value - gamma_series_oracle(c, s, lam)) <= value.abs_err, (s, lam, p)

    def test_stops_once_the_tail_is_below_an_ulp(self):
        (f,) = eigenforms(12, 120)
        value, used = gamma_series(f.a, 6.0, 2.0 * math.pi, 6.5)
        assert used < 30
        assert value == gamma_series(f.a[:used], 6.0, 2.0 * math.pi, 6.5)[0]

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_series([1.0] * 10, 0.5, 2.0 * math.pi, 1.0)
        with pytest.raises(PrecisionError):  # 2 pi (N + 1) < 2 s: no certified tail
            gamma_series([1.0] * 10, 40.0, 2.0 * math.pi, 1.0)


class TestCompletedL:
    def test_delta_near_central_value(self):
        (f,) = eigenforms(12, 60)
        lv = completed_l(f, 6.0)
        assert lv.finite.value == pytest.approx(0.7921228386460317, abs=1e-10)
        assert lv.finite.value > 0

    def test_finite_is_completed_times_conversion(self):
        (f,) = eigenforms(12, 60)
        lv = completed_l(f, 6.5)
        conv = (2 * math.pi) ** 6.5 / math.gamma(6.5)
        assert lv.finite.value == pytest.approx(conv * lv.completed.value, rel=1e-12)

    def test_against_high_precision_oracle(self):
        for k in (12, 16):
            for f in eigenforms(k, 60):
                for s in (k / 2, k / 2 - 1.0, k / 2 + 0.7):
                    lv = completed_l(f, s)
                    ref = mpmath_l_value(f, s)
                    assert abs(lv.finite.value - ref) <= lv.finite.abs_err + 1e-12 * abs(ref)

    def test_doubling_coefficients_stays_within_error(self):
        for k in (12, 24):
            short = {f.a[:30]: completed_l(f, k / 2 + 0.5) for f in eigenforms(k, 30)}
            for f in eigenforms(k, 60):
                lv30 = short[f.a[:30]]
                lv60 = completed_l(f, k / 2 + 0.5)
                assert abs(lv30.completed.value - lv60.completed.value) <= lv30.completed.abs_err

    def test_strip_enforced(self):
        (f,) = eigenforms(12, 60)
        with pytest.raises(DomainError):
            completed_l(f, 2.0)


class TestFunctionalEquation:
    def test_residual_small_near_center(self):
        for k in (12, 16, 20, 24, 28):
            for f in eigenforms(k, 60):
                for s in (k / 2 - 1.0, k / 2 - 0.5, k / 2 + 0.7):
                    assert functional_equation_residual(f, s) < 1e-9

    def test_residual_odd_root_number_weights(self):
        # k ≡ 2 (mod 4): the sign is -1 and the center itself must cancel
        for f in eigenforms(18, 60):
            assert functional_equation_residual(f, 9.0) < 1e-9


class TestCentralValues:
    def test_vanishing_for_odd_root_number(self):
        # k ≡ 2 (mod 4) forces L(f, k/2) = 0
        for k in (18, 22, 26):
            vals = central_values(k, 1e-9)
            assert len(vals) >= 1
            for _, lv in vals:
                assert abs(lv.value) < 1e-9

    def test_weight_14_has_no_cusp_forms(self):
        assert central_values(14) == []

    def test_positive_for_even_root_number(self):
        for k in (12, 16, 20):
            for _, lv in central_values(k, 1e-9):
                assert lv.value > 0
                assert lv.abs_err <= 1e-9

    def test_count_matches_eigenform_count(self):
        for k in (12, 24, 28):
            assert len(central_values(k)) == len(eigenforms(k, 60))

    def test_domain(self):
        with pytest.raises(DomainError):
            central_values(11)
