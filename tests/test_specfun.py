import dataclasses
import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from ckkernel import kernel, lfunction, petersson, qexpansion, specfun
from ckkernel.errors import _MAX_COUNT, DomainError, PrecisionError
from ckkernel.ntheory import _FIX_BITS, _PI_FIX_LO, ValueWithError
from ckkernel.specfun import HalfIntOrder, _bessel_factor_fixed, bessel_j, upper_incomplete_gamma

EPS = 2.220446049250313e-16


def _largest_arg(twice_nu):
    """The largest float x with x * x <= twice_nu + 2, the end of bessel_j's domain."""
    x = math.sqrt(twice_nu + 2)
    while x * x > twice_nu + 2:
        x = math.nextafter(x, 0.0)
    while (up := math.nextafter(x, math.inf)) * up <= twice_nu + 2:
        x = up
    return x


def _reference_bessel_j(nu, x):
    """bessel_j's series written plainly: max() over every term and partial
    sum per step, the step denominators and the leading term's Gamma(nu + 1)
    over the double factorial taken per call.  Returns the value and the
    bar, the bar's rounding charge (j + 2) max_abs and the first-order
    running error bound of the series (Higham 2002, section 3.3), both in
    units of EPS: sum_i (1.5 i b_i + |P_i| / 2) over the j sums, b_i the
    computed |term i| and P_i the computed sum, with the omitted term's
    1.5 (j + 1) b_(j+1)."""
    v = nu.nu
    half = x / 2.0
    q = half * half
    twice_nu = nu.twice_nu
    gamma = math.prod(range(twice_nu, 0, -2)) / 2 ** ((twice_nu + 1) // 2) * math.sqrt(math.pi)
    term = half**v / gamma
    lead_err = 4.0 * EPS * term + 1e-323
    total = max_abs = term
    stop = 1e-19 * max_abs + 5e-324
    running = []
    j = 0
    while True:
        term = -term * (q / ((j + 1) * (v + j + 1)))
        running.append(1.5 * (j + 1) * abs(term))
        if abs(term) <= stop:
            break
        total += term
        running.append(abs(total) / 2)
        max_abs = max(max_abs, abs(term), abs(total))
        j += 1
    bar = abs(term) + ((j + 2) * (EPS * max_abs + 5e-324) + lead_err)
    return total, bar, (j + 2) * max_abs, math.fsum(running)


def _finite_form(l, n, m, sqrt2, sqrt3):
    """sqrt(2 pi x) J_(l+1/2)(x) at x = n pi / m, m in {1, 2, 3, 4, 6}, by
    DLMF 10.49.2 in exact rationals, pi taken as _PI_FIX_LO / 2^_FIX_BITS:

        2 [sin(x - l pi/2) sum_j (-1)^j a_(2j) x^(-2j)
           + cos(x - l pi/2) sum_j (-1)^j a_(2j+1) x^(-2j-1)],

    a_i = (l + i)! / (2^i i! (l - i)!).  The angle x - l pi/2 is a multiple
    of pi/4 or pi/6, where sine and cosine are 0, +-1/2, +-1, +-sqrt(2)/2 or
    +-sqrt(3)/2, the roots given as the Fractions sqrt2 and sqrt3."""
    x = Fraction(n * _PI_FIX_LO, m << _FIX_BITS)
    # x - l pi/2 = pi q / 12 with q = 12 n / m - 6 l
    q = (12 * n // m - 6 * l) % 24
    half, r2, r3 = Fraction(1, 2), sqrt2 / 2, sqrt3 / 2
    sines = {0: 0, 2: half, 3: r2, 4: r3, 6: 1, 8: r3, 9: r2, 10: half}
    sin = sines[q] if q < 12 else -sines[q - 12]
    cos = sines[(q + 6) % 12] * (1 if (q + 6) % 24 < 12 else -1)
    a = [Fraction(math.factorial(l + i), 2**i * math.factorial(i) * math.factorial(l - i))
         for i in range(l + 1)]
    even = sum((-1) ** j * a[2 * j] / x ** (2 * j) for j in range(l // 2 + 1))
    odd = sum((-1) ** j * a[2 * j + 1] / x ** (2 * j + 1) for j in range((l + 1) // 2))
    return 2 * (sin * even + cos * odd)


class TestBesselFactorFixed:
    def test_matches_the_finite_form(self):
        # the 256-bit ascending series against DLMF 10.49.2, with no mpmath:
        # the bracket is about 2^-96 wide and holds the finite form's value,
        # which moves by far less than 2^-120 over pi's 2^-256 bracket
        unit = 1 << _FIX_BITS
        root = 1 << 300
        sqrt2 = Fraction(math.isqrt(2 * root * root), root)
        sqrt3 = Fraction(math.isqrt(3 * root * root), root)
        slack = Fraction(1, 1 << 120)
        for k in range(12, 41, 4):
            nu = HalfIntOrder.for_weight(k)
            for n in range(1, 6):
                for m in (1, 2, 3, 4, 6):
                    lo, hi = _bessel_factor_fixed(nu, n, m)
                    exact = _finite_form(k // 2 - 1, n, m, sqrt2, sqrt3)
                    assert hi - lo < unit >> 90, (k, n, m)
                    assert Fraction(lo, unit) - slack <= exact <= Fraction(hi, unit) + slack, (k, n, m)

    def test_matches_mpmath_at_other_m(self):
        with mp.workdps(60):
            for k in (12, 24, 40):
                nu = HalfIntOrder.for_weight(k)
                for n, m in ((5, 5), (3, 7), (1, 13), (4, 9)):
                    x = n * mp.pi / m
                    ref = mp.sqrt(2 * mp.pi * x) * mp.besselj(mp.mpf(k - 1) / 2, x)
                    lo, hi = _bessel_factor_fixed(nu, n, m)
                    assert mp.mpf(lo) / 2**_FIX_BITS <= ref <= mp.mpf(hi) / 2**_FIX_BITS, (k, n, m)


class TestHalfIntOrder:
    def test_gamma_from_the_double_factorial(self):
        # Gamma(nu + 1) within 2 _EPS of the 40-digit value, for every order
        # of the domain, which ends at the kernel's largest, 39/2
        for twice_nu in range(1, 40, 2):
            nu = HalfIntOrder(twice_nu)
            assert nu.double_factorial == math.prod(range(twice_nu, 0, -2))
            with mp.workdps(40):
                ref = mp.gamma(mp.mpf(twice_nu) / 2 + 1)
                assert abs(mp.mpf(nu.gamma_nu_plus_one) - ref) <= 2 * EPS * ref, twice_nu
        with pytest.raises(DomainError, match="up to 39"):
            HalfIntOrder(41)

    def test_nu(self):
        assert HalfIntOrder(11).nu == 5.5
        assert HalfIntOrder.for_weight(12).twice_nu == 11

    def test_even_rejected(self):
        with pytest.raises(DomainError):
            HalfIntOrder(4)
        with pytest.raises(DomainError):
            HalfIntOrder(-1)

    def test_repr_and_equality_ignore_the_derived_fields(self):
        nu = HalfIntOrder(11)
        assert repr(nu) == "HalfIntOrder(twice_nu=11)"
        assert nu == HalfIntOrder(11.0) == HalfIntOrder.for_weight(12)
        assert hash(nu) == hash(HalfIntOrder(11))
        assert nu != HalfIntOrder(13)
        assert nu.double_factorial == 10395
        with pytest.raises(dataclasses.FrozenInstanceError):
            nu.twice_nu = 13


class TestBesselJ:
    def test_half_order_closed_form(self):
        nu = HalfIntOrder(1)
        for x in (0.01, 0.3, 1.0, 1.5, math.pi / 2, _largest_arg(1)):
            closed = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
            assert bessel_j(nu, x).value == pytest.approx(closed, abs=1e-12)

    def test_three_halves_closed_form(self):
        nu = HalfIntOrder(3)
        for x in (0.05, 0.5, 1.5, 2.0, _largest_arg(3)):
            closed = math.sqrt(2.0 / (math.pi * x)) * (math.sin(x) / x - math.cos(x))
            assert bessel_j(nu, x).value == pytest.approx(closed, abs=1e-12)

    def test_zero_of_sine_at_pi(self):
        # J_1/2(pi) = 0 lies past bessel_j's domain, where the exact series
        # takes it: sqrt(2 pi x) J_1/2(x) = 2 sin(x), whose bracket at x = pi
        # holds 0
        with pytest.raises(DomainError):
            bessel_j(HalfIntOrder(1), math.pi)
        lo, hi = _bessel_factor_fixed(HalfIntOrder(1), 1, 1)
        assert lo <= 0 <= hi and hi - lo < 1 << _FIX_BITS - 90

    def test_value_at_half_pi(self):
        j = bessel_j(HalfIntOrder(1), math.pi / 2)
        assert j.value == pytest.approx(2.0 / math.pi, abs=1e-14)

    def test_long_series_oracle_high_order(self):
        # 50-term reference summation at doubled precision
        with mp.workdps(40):
            ref = float(mp.besselj(mp.mpf(11) / 2, mp.pi))
        assert bessel_j(HalfIntOrder(11), math.pi).value == pytest.approx(ref, abs=1e-14)

    def test_bar_contains_50_digit_value_at_the_kernel_arguments(self):
        # exp(lgamma) as the leading term's Gamma left 22 of 11,760 such bars
        # short of the 50-digit value, by up to x1.09 at (12, 5 pi / 148); the
        # arguments in the domain, x * x <= k + 1
        with mp.workdps(50):
            for k in range(12, 41, 4):
                nu = HalfIntOrder.for_weight(k)
                v = mp.mpf(k - 1) / 2
                for n in (1, 5):
                    for m in list(range(1, 40)) + [148, 1000, 4999]:
                        x = n * math.pi / m
                        if x * x <= k + 1:
                            j = bessel_j(nu, x)
                            assert abs(j.value - mp.besselj(v, x)) <= j.abs_err, (k, n, m)

    def test_error_bound_honest_against_mpmath(self):
        for twice_nu in (1, 5, 11, 27, 39):
            for x in (0.01, 0.5, 1.0, math.pi, 4.0, _largest_arg(twice_nu)):
                if x * x <= twice_nu + 2:
                    j = bessel_j(HalfIntOrder(twice_nu), x)
                    with mp.workdps(40):
                        ref = float(mp.besselj(mp.mpf(twice_nu) / 2, x))
                    assert abs(j.value - ref) <= j.abs_err + 1e-300

    def test_bar_holds_j_where_the_leading_term_underflows(self):
        # J_39.5(1e-8)'s leading term once rounded to 0; from 2^-16 on no
        # leading term is subnormal: at every order it is least at x = 2^-16,
        # above 2.9e-118 there, and the bar holds J at 50 digits; the x where
        # it would fall to 2^-1020 or below lie outside the domain
        x = specfun._MIN_ARG
        with mp.workdps(50):
            for twice_nu in range(1, 40, 2):
                v = mp.mpf(twice_nu) / 2
                nu = HalfIntOrder(twice_nu)
                assert (x / 2) ** nu.nu / nu.gamma_nu_plus_one > 2.9e-118, twice_nu
                j = bessel_j(nu, x)
                assert abs(j.value - mp.besselj(v, x)) <= j.abs_err, twice_nu
                for e in (-2, 0, 58):
                    below = float(2 * (mp.mpf(2) ** (-1022 - e) * mp.gamma(v + 1)) ** (1 / v))
                    with pytest.raises(DomainError):
                        bessel_j(nu, below)

    def test_envelope_inequality(self):
        # |J_nu(x)| <= (x/2)^nu / Gamma(nu + 1), the classical envelope, at 30 digits
        with mp.workdps(30):
            for twice_nu in range(1, 40, 2):
                nu = HalfIntOrder(twice_nu)
                v = mp.mpf(twice_nu) / 2
                for x in (0.01, 0.1, 0.5, 1.0, 1.7, 2.0, math.pi, _largest_arg(twice_nu)):
                    if x * x <= twice_nu + 2:
                        j = bessel_j(nu, x)
                        assert abs(j.value) <= (mp.mpf(x) / 2) ** v / mp.gamma(v + 1) + j.abs_err

    def test_recurrence_residual(self):
        for twice_nu in range(5, 22, 2):
            for x in (0.5, 1.0, math.pi):
                if x * x > twice_nu:  # past the domain of the lowest order, twice_nu - 2
                    continue
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
        # the memoized Gamma(nu + 1) and step denominators, the leading term
        # taken as max_abs and the one comparison per step change no bit of
        # the value or the bar, at the kernel arguments and 1,024 steps to the
        # end of each weight's domain
        for k in range(12, 41, 4):
            nu = HalfIntOrder.for_weight(k)
            xs = [x for n in range(1, 6) for m in range(1, 257) if (x := n * math.pi / m) * x <= k + 1]
            xs += [_largest_arg(k - 1) * i / 1024 for i in range(1, 1025)]
            for x in xs:
                j = bessel_j(nu, x)
                assert (j.value, j.abs_err) == _reference_bessel_j(nu, x)[:2], (k, x)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 19), st.floats(0.0, 1.0, exclude_min=True))
    @example(0, 1.0)
    @example(19, 1e-10)  # the domain's corner, x = 2^-16 at nu = 39/2
    def test_no_partial_sum_exceeds_the_largest_term(self, i, u):
        # the reference loop also takes every |total| into max_abs, at x = u
        # times the end of the domain, or its least argument
        nu = HalfIntOrder(2 * i + 1)
        x = max(u * _largest_arg(2 * i + 1), specfun._MIN_ARG)
        j = bessel_j(nu, x)
        assert (j.value, j.abs_err) == _reference_bessel_j(nu, x)[:2]

    def test_rounding_charge_holds_the_running_error_bound(self, monkeypatch):
        # (j + 2) EPS max_abs is at least the first-order running bound of the
        # float series (at most 0.41 of it) at 64 steps to the end of each
        # order's domain and at every argument r_k passes bessel_j over the
        # digest's grid; x = 16 must be refused where it is past the domain,
        # as for nu = 1/2, where the series rises and the bound passes the
        # charge 1.5-fold
        args = []

        def recorded(nu, x):
            args.append((nu, x))
            return bessel_j(nu, x)

        monkeypatch.setattr(kernel, "bessel_j", recorded)
        for k in range(12, 41, 4):
            for n in range(1, 6):
                for eps in (1e-8, 1e-10, 1e-13, 1e-14):
                    kernel.r_k(k, n, eps)
        for twice_nu in range(1, 40, 2):
            top = _largest_arg(twice_nu)
            args += [(HalfIntOrder(twice_nu), x) for x in (*(top * i / 64 for i in range(1, 65)), 16.0)]
        for nu, x in set(args):
            try:
                j = bessel_j(nu, x)
            except DomainError:
                assert x * x > nu.twice_nu + 2, (nu, x)
                continue
            value, bar, charge, running = _reference_bessel_j(nu, x)
            assert (j.value, j.abs_err) == (value, bar), (nu, x)
            assert running <= charge, (nu, x)

    def test_result_is_the_value_the_checked_constructor_builds(self):
        # bessel_j builds its result by ntheory._unchecked, without
        # ValueWithError's __init__: still the same frozen value, field for field
        j = bessel_j(HalfIntOrder(23), 3.0)
        built = ValueWithError(j.value, j.abs_err)
        assert type(j) is ValueWithError
        assert j == built and repr(j) == repr(built) and hash(j) == hash(built)
        assert vars(j) == vars(built) and dataclasses.astuple(j) == (j.value, j.abs_err)
        with pytest.raises(dataclasses.FrozenInstanceError):
            j.abs_err = 0.0

    def test_the_step_denominators_outlast_every_series(self, monkeypatch):
        # the product of the ratios (x/2)^2 / ((j + 1)(nu + j + 1)) over every
        # step is below 1e-19 / 1.01 at the end of each order's domain, x * x
        # = twice_nu + 2 less than 2^-50 relatively, so the term is within
        # the stop threshold there and bessel_j stops; one step fewer falls
        # short from twice_nu = 29 on.  A loop cut short raises.
        with mp.workdps(30):
            for twice_nu in range(1, 40, 2):
                steps = HalfIntOrder(twice_nu).step_denominators
                q = mp.mpf(twice_nu + 2) / 4 * (1 + mp.mpf(2) ** -50)
                product = mp.fprod(q / d for d in steps)
                assert product < mp.mpf(1e-19) / 1.01, twice_nu
                fewer = product / (q / steps[-1])
                assert (fewer < mp.mpf(1e-19) / 1.01) == (twice_nu < 29), twice_nu
        monkeypatch.setattr(specfun, "_BESSEL_STEPS", 3)
        with pytest.raises(PrecisionError, match="converge"):
            bessel_j(HalfIntOrder(1), _largest_arg(1))

    def test_halving_x_is_exact_from_the_least_argument_on(self):
        # below 2^-1021 the half of x may round: at x = 7 * 5e-324 it rounded
        # up by 1/7, and J_1/2's value came back 7% high under a 1e-13 bar;
        # the least argument is now 2^-16, below the kernel's least, pi / 2^16,
        # and the float below it is refused
        x = specfun._MIN_ARG
        assert x == 2.0**-16 and math.pi / _MAX_COUNT >= x
        for below in (7 * 5e-324, 2.0**-1021, math.nextafter(x, 0.0)):
            with pytest.raises(DomainError):
                bessel_j(HalfIntOrder(1), below)
        with mp.workdps(50):
            for twice_nu in (1, 3, 11, 39):
                v = mp.mpf(twice_nu) / 2
                j = bessel_j(HalfIntOrder(twice_nu), x)
                assert abs(j.value - mp.besselj(v, x)) <= j.abs_err, twice_nu

    def test_domain(self):
        # 5e-324 passed the old x > 0 test, and its half rounds to 0; past
        # x * x = twice_nu + 2 the series rises, as at 16 for nu = 1/2, which
        # the domain once took; a NaN x ran out of steps
        for x in (0.0, -1.0, 5e-324, 16.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                bessel_j(HalfIntOrder(1), x)
        for twice_nu in range(1, 40, 2):
            top = _largest_arg(twice_nu)
            assert bessel_j(HalfIntOrder(twice_nu), top).value > 0
            with pytest.raises(DomainError):
                bessel_j(HalfIntOrder(twice_nu), math.nextafter(top, math.inf))


def _running_incomplete_gamma(s, x):
    """upper_incomplete_gamma's loop written out with the first-order running
    error bound of every rounding (Higham 2002, section 3.3), each u = EPS / 2
    of the computed quantity it rounds.  Returns the value and the bound on
    |value - Gamma(s, x)|."""
    u = EPS / 2
    b, e = 1.0, 0.0  # |b - sum_{i<s} x^i / i!| <= e u
    for j in range(s - 1, 0, -1):
        p = b * x
        q = p / j
        b_next = 1.0 + q
        e = e * x / j + p / j + q + b_next
        b = b_next
    fac = math.factorial(s - 1)
    value = float(fac) * math.exp(-x) * b
    # (s-1)! as a float, exp's ulp (at most 2 u relatively) and two products
    rel = u * e / b + (u if float(fac) != fac else 0.0) + 2 * u + 2 * u
    return value, rel * value


class TestLibm:
    """The charges take pow, exp and log within one ulp, as glibc documents them;
    these check that against 50 digits at the arguments the package passes,
    on the libm that runs the tests.  cos is checked at its arguments by
    test_kernel's test_gamma_charge_holds_the_running_error_bound."""

    def test_pow_within_an_ulp_at_every_float_bessel_lead(self, monkeypatch):
        # (x/2)**nu, as bessel_j takes it, at every x r_k(k, n, 1e-13) passes
        # it, k = 12..40 step 4 and n = 1..5: 8,586 calls at 5,975 distinct
        # arguments, the worst 0.5006 ulp with glibc
        args = set()

        def recorded(nu, x):
            args.add((nu.twice_nu, x))
            return bessel_j(nu, x)

        monkeypatch.setattr(kernel, "bessel_j", recorded)
        for k in range(12, 41, 4):
            for n in range(1, 6):
                kernel.r_k(k, n, 1e-13)
        assert len(args) > 5000  # r_k's float terms still reach this hook
        with mp.workdps(50):
            for twice_nu, x in args:
                half = x / 2.0
                lead = half ** (twice_nu / 2.0)
                exact = mp.mpf(half) ** (mp.mpf(twice_nu) / 2)
                assert abs(lead - exact) <= math.ulp(lead), (twice_nu, x)

    def test_exp_within_an_ulp_at_every_incomplete_gamma_argument(self):
        # e^-x at x = lam n <= 708, the domain's end, for the rates lam = 2 pi
        # of completed_l and 4 pi of the Parseval sum, as their rows take x:
        # 112 distinct x, as 4 pi n is 2 pi (2n) bit for bit; the worst
        # 0.497 ulp with glibc
        xs = {lam * n for lam in (2.0 * math.pi, 4.0 * math.pi) for n in range(1, 113)}
        xs = [x for x in xs if x <= specfun._MAX_X]
        with mp.workdps(50):
            for x in xs:
                e = math.exp(-x)
                assert abs(e - mp.exp(-mp.mpf(x))) <= math.ulp(e), x


    def test_log_within_an_ulp_at_every_deligne_tail_start(self, monkeypatch):
        # ln n0, as deligne_tail takes it in its exponent's charge, at every n0
        # it is passed by central_values(k), even k = 12..60, and by the norms
        # of the spectral weights' eigenforms at 120 coefficients, with the
        # memoized rows emptied so that every call is made: n0 = 2..29 in 253
        # calls, the worst 0.489 ulp with glibc
        starts = set()
        tail = lfunction.deligne_tail

        def recorded(p, c, n0):
            starts.add(n0)
            return tail(p, c, n0)

        monkeypatch.setattr(lfunction, "deligne_tail", recorded)
        monkeypatch.setattr(petersson, "deligne_tail", recorded)
        lfunction._gamma_row.cache_clear()
        petersson._arc_nodes.cache_clear()
        for k in range(12, 61, 2):
            lfunction.central_values(k)
        for k in (28, 36, 40):
            for f in qexpansion.eigenforms(k, 120):
                petersson.petersson_norm_sq(f)
        assert len(starts) > 20  # the rows' and the arcs' starts still reach this hook
        with mp.workdps(50):
            for n0 in starts:
                ln = math.log(n0)
                assert abs(ln - mp.log(n0)) <= math.ulp(ln), n0


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
        for s in (1, 3, 6, 19, 40):
            for x in (0.3, 2.0, 6.28, 30.0):
                a = upper_incomplete_gamma(s + 1, x).value
                b = upper_incomplete_gamma(s, x).value
                rhs = s * b + x**s * math.exp(-x)
                assert a == pytest.approx(rhs, rel=1e-12)

    def test_error_bound_honest_against_mpmath(self):
        with mp.workdps(40):
            for s in (1, 4, 6, 20, 59):
                for x in (0.5, 2.0, 6.28, 25.0, 80.0):
                    g = upper_incomplete_gamma(s, x)
                    ref = float(mp.gammainc(s, x))
                    assert abs(g.value - ref) <= g.abs_err + 1e-300

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(s=st.integers(1, 60), x=st.floats(0.0, 708.0, exclude_min=True))
    @example(s=55, x=4 * math.pi * 3)  # the Parseval sum at k = 56, n = 3
    @example(s=18, x=2 * math.pi)  # completed_l's strip, n = 1
    @example(s=60, x=708.0)  # the domain's end
    def test_bar_contains_50_digit_value(self, s, x):
        g = upper_incomplete_gamma(s, x)
        with mp.workdps(50):
            ref = mp.gammainc(s, x)
            assert abs(g.value - ref) <= g.abs_err, (s, x)

    def test_overflowing_reciprocal_raises_before_the_series(self):
        # a non-integer s is refused by the gate before any float operation
        for s in (5e-324, 1e-310):
            with pytest.raises(DomainError, match="s must be an integer"):
                upper_incomplete_gamma(s, 0.5)

    def test_error_bound_stays_small_at_moderate_arguments(self):
        # the charge is (3.5 + 1.5 min(x, s - 1)) ulps, so stay within a
        # 100-ulp relative budget across the moderate-argument box
        for s in (1, 4, 6, 12):
            for x in (0.5, 2.0, 6.28, 15.0):
                g = upper_incomplete_gamma(s, x)
                assert g.abs_err <= 100 * 2.3e-16 * abs(g.value) + 1e-300

    def test_domain(self):
        # past x = 708 e^-x leaves the normal floats; no caller passes such an x
        for s, x in ((0.0, 1.0), (2.0, 0.0), (61.0, 1.0), (2.5, 1.0),
                     (2, math.inf), (2, math.nan), (2, -1.0),
                     (60, math.nextafter(708.0, math.inf)), (1, 1e300)):
            with pytest.raises(DomainError):
                upper_incomplete_gamma(s, x)

    def test_rounding_charge_holds_the_running_error_bound(self):
        # every s on the rates' grids (completed_l's 2 pi n, Parseval's 4 pi n,
        # the modularity oracle's 2 pi n 5/4 and 2 pi n / (5/4), n <= 30), small
        # x, and large x up to the domain's end at 708
        rates = (2 * math.pi, 4 * math.pi, 2 * math.pi * 1.25, 2 * math.pi / 1.25)
        xs = [lam * n for lam in rates for n in range(1, 31)]
        xs += [1e-320, 1e-10, 0.01, 0.5, 1.0, 600.0, 700.0, 708.0]
        for s in range(1, 61):
            for x in xs:
                g = upper_incomplete_gamma(s, x)
                value, bound = _running_incomplete_gamma(s, x)
                assert value == g.value, (s, x)
                assert bound <= g.abs_err, (s, x)
