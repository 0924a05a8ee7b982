import hashlib
import math
import platform
import random
import signal
import sys
from fractions import Fraction

import mpmath as mp
import pytest

from ckkernel import lfunction, ntheory, petersson
from ckkernel.errors import DomainError, PrecisionError
from ckkernel.lfunction import (
    central_values,
    coefficient_count,
    completed_l,
    deligne_count,
    deligne_tail,
    gamma_series,
)
from ckkernel.qexpansion import Eigenform, eigenforms
from ckkernel.specfun import upper_incomplete_gamma

from modularity import functional_equation_residual

EPS = 2.220446049250313e-16


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

    def test_overflow_is_a_precision_error(self):
        # the first term n0^p e^(-c n0), then the ratio ((n0 + 1)/n0)^p, leave the
        # float range; 9189 is the first n0 whose ratio is below 1 at p = 5e4
        c = math.pi * math.sqrt(3.0)
        for p, n0 in ((5e4, 9189), (1e6, 2)):
            with pytest.raises(PrecisionError):
                deligne_tail(p, c, n0)
        # each power fits, but the first term e^701 over 1 - ratio ~ 1e-6 does not
        with pytest.raises(PrecisionError):
            deligne_tail(200, 200 * math.log1p(1 / 90) + 1e-6, 90)


    def test_negative_exponent_is_a_domain_error(self):
        # for p < 0 the term ratio rises with n, so the first term over
        # 1 - ratio at n0 is no bound: it gave 1.4298 at (-0.5, 0.2, 2), where
        # the sum is 1.7253, and 6.38287e-8 at (-1, 3, 5), below 6.38321e-8
        assert power_exp_sum(-0.5, 0.2, 2) > 1.72
        assert power_exp_sum(-1, 3, 5) > 6.3832e-8
        for p, c, n0 in ((-0.5, 0.2, 2), (-1, 3, 5), (-math.inf, 3, 5), (math.nan, 3, 5),
                         (-5e-324, 3, 5)):
            with pytest.raises(DomainError):
                deligne_tail(p, c, n0)
        for p in (-1, -5e-324, -math.inf):
            with pytest.raises(DomainError):
                deligne_count(p, 3, 1e-16)
        assert deligne_tail(0.0, 3, 5) >= power_exp_sum(0.0, 3, 5)

    def test_start_must_be_a_positive_integer(self):
        # DomainError, not math.log's bare ValueError at 0 and -1
        for n0 in (0, -1, 2.5, math.nan):
            with pytest.raises(DomainError):
                deligne_tail(1, 3, n0)
        assert deligne_tail(1, 3, 5.0) == deligne_tail(1, 3, 5)


class TestCoefficientCount:
    def test_counts_at_the_2_pow_minus_74_floor(self):
        assert [coefficient_count(k) for k in range(12, 41, 4)] == [12, 13, 14, 15, 16, 18, 19, 20]
        assert coefficient_count(60) == 28

    def test_is_the_fewest_count_whose_tail_is_below_the_floor(self):
        for p, c, floor in ((6.5, math.pi * math.sqrt(3.0), 2.0**-74), (20.5, 4.0 * math.pi, 1e-30),
                            (30.0, 2.0 * math.pi, 1e-20)):
            n = deligne_count(p, c, floor)
            assert deligne_tail(p, c, n + 1) <= floor
            for m in range(1, n):  # below n the tail has no bound, or one above the floor
                ratio = ((m + 2) / (m + 1)) ** p * math.exp(-c)
                assert ratio >= 1.0 or deligne_tail(p, c, m + 1) > floor
        with pytest.raises(DomainError):
            deligne_count(6.5, 2.0 * math.pi, 0.0)

    def test_count_covers_every_sum_it_bounds(self):
        # the three stops coefficient_count's docstring proves lie within N(k)
        for k in range(12, 62, 2):
            n = coefficient_count(k)
            for n_coeffs in (60, 120):
                forms = eigenforms(k, n_coeffs)
                for f in forms:
                    for s in (k / 2 - 2, k / 2, k / 2 + 2):
                        assert completed_l(f, s).terms_used <= n, (k, n_coeffs, s)
                    assert len(petersson._kept_terms(f, k)) <= n, (k, n_coeffs)
                    for g in forms:
                        ab = [a * b for a, b in zip(f.a, g.a)]
                        assert gamma_series(ab, k - 1, 4.0 * math.pi, k + 1)[1] <= n, (k, n_coeffs)

    def test_central_value_forms_give_the_sums_of_60_coefficients(self):
        # the forms central_values builds carry N(k) coefficients; every L-value
        # and norm read off them equals the one read off 60, float for float
        for k in range(12, 122, 2):
            forms = [f for f, _ in central_values(k)]
            assert all(f.n_coeffs == coefficient_count(k) for f in forms), k
            for f, g in zip(forms, eigenforms(k, 60), strict=True):
                assert completed_l(f, k / 2) == completed_l(g, k / 2), k
                if k <= 60:  # Gamma(k - 1, x) is certified for k - 1 <= 60
                    assert petersson.petersson_norm_sq(f) == petersson.petersson_norm_sq(g), k


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
        # c_1..c_N are given; c_n past N, |c_n| <= n^p, must lie inside the tail;
        # c_1 = +-1, as gamma_series takes only |c_1| >= 1
        rng = random.Random(seed)
        s = 55 if seed < 3 else rng.randint(1, 60)
        lam = rng.choice((2.0 * math.pi, 4.0 * math.pi))
        p = rng.uniform(1.0, min(2.0 * s, 45.0))
        n_min = math.ceil(2.0 * s / lam)
        n_given = rng.randint(n_min, n_min + 25)
        extremes = seed % 2 == 0  # |c_n| = n^p exactly, the tail's worst case
        c = [n**p * (rng.choice((-1.0, 1.0)) if extremes else rng.uniform(-1.0, 1.0))
             for n in range(1, n_given + 25)]
        c[0] = math.copysign(1.0, c[0])
        value, used = gamma_series(c[:n_given], s, lam, p)
        assert used <= n_given
        assert abs(value.value - gamma_series_oracle(c, s, lam)) <= value.abs_err, (s, lam, p)

    def test_stops_once_the_tail_is_below_an_ulp(self):
        (f,) = eigenforms(12, 120)
        value, used = gamma_series(f.a, 6.0, 2.0 * math.pi, 6.5)
        assert used < 30
        assert value == gamma_series(f.a[:used], 6.0, 2.0 * math.pi, 6.5)[0]

    def test_row_charge_holds_the_running_error_bound(self):
        # term n is c_n x^-s Gamma(s, x) at x = fl(lam n), within EPS of lam n
        # relatively: to first order the term moves by (s + x r) EPS, r =
        # x^(s-1) e^-x / Gamma(s, x) <= 1 its logarithmic derivative's second
        # part, and the power, two products and c_n's rounding add 2.5 EPS
        # (Higham 2002, section 3.3).  Every entry of every row the program
        # reads, completed_l's strip at 2 pi and Parseval's (k - 1, 4 pi, k + 1)
        # for k = 12..60, must charge at least that on top of Gamma's own bar
        for k in range(12, 61, 2):
            keys = [(s, 2.0 * math.pi, (k + 1) / 2) for s in range(k // 2 - 2, k // 2 + 3)]
            for s, lam, p in keys + [(k - 1, 4.0 * math.pi, k + 1)]:
                charge = lfunction._gamma_row(s, lam, p)[2]
                for n in range(1, len(charge) + 1):
                    x = lam * n
                    g = upper_incomplete_gamma(s, x)
                    with mp.workdps(30):
                        r = float(mp.mpf(x) ** (s - 1) * mp.exp(-x) / mp.gammainc(s, x))
                    bound = g.abs_err + (s + x * r + 2.5) * EPS * g.value
                    assert bound <= charge[n - 1], (k, s, lam, n)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_series([1.0] * 10, 0.5, 2.0 * math.pi, 1.0)
        # |c_1| < 1, nan or an empty c: the sum need not stop within its row
        for c in ([], (), [0.5] + [1.0] * 9, [-0.999], [0.0, 1.0], [math.nan, 1.0]):
            with pytest.raises(DomainError):
                gamma_series(c, 6, 2.0 * math.pi, 6.5)
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
        lv = completed_l(f, 7)
        with mp.workdps(50):
            conv = float((2 * mp.pi) ** 7 / mp.factorial(6))
        assert lv.finite.value == pytest.approx(conv * lv.completed.value, rel=1e-12)

    def test_conversion_charge_holds_the_running_error_bound(self):
        # finite = conv * total: the midpoint of the conversion's 256-bit
        # bracket, within (hi - lo) / 2 of it, rounded once to conv, then the
        # product rounded once.  The bound on |finite - C Lambda_true|, in
        # exact rationals from the floats completed_l returns, is at most the
        # finite bar for every s of the L-value digest
        u = Fraction(EPS) / 2
        unit = 2 << ntheory._FIX_BITS
        for k, n, f in spectral_forms():
            for s in range(k // 2 - 2, k // 2 + 3):
                lo, hi = ntheory._pi_power_fixed(2**s, math.factorial(s - 1), s)
                conv = (lo + hi) / unit
                c = Fraction(conv)
                gap = Fraction(hi - lo, unit)  # the midpoint is within this of C
                top = c / (1 - u) + gap  # C is at most this
                lv = completed_l(f, s)
                total, finite = lv.completed, lv.finite
                assert finite.value == conv * total.value, (k, n, s)
                bound = ((c / (1 - u) * u + gap) * abs(Fraction(total.value))
                         + u * abs(Fraction(finite.value))
                         + top * Fraction(total.abs_err))
                assert bound <= Fraction(finite.abs_err), (k, n, s)

    def test_against_high_precision_oracle(self):
        for k in (12, 16):
            for f in eigenforms(k, 60):
                for s in (k // 2, k // 2 - 1, k // 2 + 1):
                    lv = completed_l(f, s)
                    ref = mpmath_l_value(f, s)
                    assert abs(lv.finite.value - ref) <= lv.finite.abs_err + 1e-12 * abs(ref)

    def test_doubling_coefficients_stays_within_error(self):
        for k in (12, 24):
            short = {f.a[:30]: completed_l(f, k // 2 + 1) for f in eigenforms(k, 30)}
            for f in eigenforms(k, 60):
                lv30 = short[f.a[:30]]
                lv60 = completed_l(f, k // 2 + 1)
                assert abs(lv30.completed.value - lv60.completed.value) <= lv30.completed.abs_err

    def test_strip_enforced(self):
        (f,) = eigenforms(12, 60)
        with pytest.raises(DomainError):
            completed_l(f, 2.0)


class TestFunctionalEquation:
    def test_residual_small_near_center(self):
        for k in (12, 16, 20, 24, 28):
            for f in eigenforms(k, 60):
                for s in (k // 2 - 1, k // 2 - 2, k // 2 + 1):
                    assert functional_equation_residual(f, s) < 1e-9

    def test_residual_odd_root_number_weights(self):
        # k ≡ 2 (mod 4): the sign is -1 and the center itself must cancel
        for f in eigenforms(18, 60):
            assert functional_equation_residual(f, 9.0) < 1e-9

    def test_residual_shows_a_form_that_is_not_modular(self):
        # Delta with a_2 + 1 is no modular form, so Lambda(s) and Lambda(k - s),
        # taken from different splits of the Mellin integral, must disagree
        (f,) = eigenforms(12, 60)
        bent = Eigenform(12, (f.a[0], f.a[1] + 1.0) + f.a[2:])
        for s in (5, 4, 7):
            assert functional_equation_residual(bent, s) > 1e-9, s

    def test_residual_is_small_relative_to_its_two_sums(self):
        # the residual is absolute, so past k = 28 it is measured against the
        # size of the two `gamma_series` sums G(s) and G(k - s) that Lambda adds
        for k in range(30, 61, 2):
            for f in eigenforms(k, coefficient_count(k)):
                for s in (k // 2 - 2, k // 2 - 1, k // 2, k // 2 + 1, k // 2 + 2):
                    mass = sum(abs(gamma_series(f.a, t, 2 * math.pi, (k + 1) / 2)[0].value)
                               for t in (s, k - s))
                    assert functional_equation_residual(f, s) <= 1e-12 * mass, (k, s)


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

    def test_infinite_weight_raises_without_hanging(self):
        # deligne_count looped forever at p = inf, reached through coefficient_count
        def hung(signum, frame):
            raise TimeoutError("no answer within 5 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(5)
        try:
            for call in (central_values, coefficient_count):
                with pytest.raises(DomainError):
                    call(math.inf)
            for p, c in ((math.inf, 2.0 * math.pi), (6.5, math.inf), (math.nan, 2.0 * math.pi), (6.5, 0.0)):
                with pytest.raises(DomainError):
                    deligne_count(p, c, 2.0**-74)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_huge_weight_raises_without_overflow_or_hanging(self):
        # ((n + 2) / (n + 1))^p overflowed in deligne_count for a huge finite p
        def hung(signum, frame):
            raise TimeoutError("no answer within 5 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(5)
        try:
            for call, k in ((coefficient_count, 1e300), (coefficient_count, 2**70),
                            (central_values, 1e300), (coefficient_count, 2**1100),
                            (central_values, 2**1100)):
                with pytest.raises(PrecisionError):
                    call(k)
            with pytest.raises(PrecisionError):
                deligne_count(1e300, 700.0, 1.0)
            with pytest.raises(DomainError):  # past it e^c overflows
                deligne_count(6.5, 701.0, 2.0**-74)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


# completed_l at every integer s of the strip, and petersson_norm_sq, for every
# eigenform of even k = 12..60 at coefficient_count(k) and 120 coefficients,
# recorded with CPython 3.11 and glibc's libm on x86-64 Linux: another libm's
# exp or pow may move a last bit
_L_VALUE_DIGEST = "de0d4375e7d57131b8ba1a125e1ca48dffefff47d7594e4685efe08847636080"
_NORM_DIGEST = "1ee4a7902200069d66d2d2238daceccb0eb6c1a269a99767b07129564cc690d3"
_SPECTRAL_DIGEST_PLATFORM = ("linux", "x86_64", (3, 11))
_recorded_libm = pytest.mark.skipif(
    (sys.platform, platform.machine(), sys.version_info[:2]) != _SPECTRAL_DIGEST_PLATFORM,
    reason="the digest was recorded with one libm",
)


def spectral_forms():
    """(k, n, f) for every eigenform f of the digests, in order."""
    for k in range(12, 61, 2):
        for n in (coefficient_count(k), 120):
            for f in eigenforms(k, n):
                yield k, n, f


def l_value_digest() -> str:
    """sha256 over the hex of each L-value's completed and finite value and bar
    and its terms."""
    h = hashlib.sha256()
    for k, n, f in spectral_forms():
        for s in range(k // 2 - 2, k // 2 + 3):
            lv = completed_l(f, s)
            fields = (lv.completed.value, lv.completed.abs_err, lv.finite.value, lv.finite.abs_err)
            line = [str(k), str(n), str(s), *(x.hex() for x in fields), str(lv.terms_used)]
            h.update(" ".join(line).encode() + b"\n")
    return h.hexdigest()


def norm_digest() -> str:
    """sha256 over the hex of each norm and its bar."""
    h = hashlib.sha256()
    for k, n, f in spectral_forms():
        g = petersson.petersson_norm_sq(f)
        h.update(f"{k} {n} {g.value.hex()} {g.abs_err.hex()}\n".encode())
    return h.hexdigest()


class TestSpectralDigest:
    @_recorded_libm
    def test_outputs_are_bit_identical_to_the_recorded_digest(self):
        # the L-values; the norms have their own digest
        assert l_value_digest() == _L_VALUE_DIGEST

    @_recorded_libm
    def test_norms_are_bit_identical_to_the_recorded_digest(self):
        assert norm_digest() == _NORM_DIGEST
