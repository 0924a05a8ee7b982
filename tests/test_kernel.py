import bisect
import dataclasses
import hashlib
import math
import platform
import random
import sys
import threading
from fractions import Fraction

import mpmath as mp
import pytest

from ckkernel import kernel, ntheory
from ckkernel.errors import DomainError, PrecisionError
from ckkernel.kernel import (
    certify,
    global_bound,
    per_k_bound,
    r_k,
    series_tail_bound,
)
from ckkernel.ntheory import (
    _FIX_BITS,
    ValueWithError,
    _pi_power_bracket,
    _prime_power_block,
    bernoulli,
    gamma_sum,
)
from ckkernel.specfun import HalfIntOrder, bessel_j


EPS = 2.220446049250313e-16


def omega_sieve(top: int) -> list[int]:
    """omega(m) for m <= top by a sieve over the primes."""
    omega = [0] * (top + 1)
    for p in range(2, top + 1):
        if omega[p] == 0:
            for q in range(p, top + 1, p):
                omega[q] += 1
    return omega


def zeta_ratio(s: int) -> Fraction:
    """zeta(s)^2 / zeta(2s) = B_s^2 (2s)! / (2 (s!)^2 |B_2s|) for even s, with
    the Bernoulli numbers from their defining recurrence."""
    b = [Fraction(1)]
    for m in range(1, 2 * s + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b[s] ** 2 * math.factorial(2 * s) / (2 * math.factorial(s) ** 2 * abs(b[2 * s]))


def tail_bound_at(monkeypatch, k: int, n: int, t: int) -> float:
    """series_tail_bound(k, n, 1) with t, in weight k's fixed point, in place of T(1)."""
    monkeypatch.setitem(kernel._TAILS, k, (t, t))
    return series_tail_bound(k, n, 1)


def per_k_below_global(k: int) -> bool:
    """Whether the exact weight-k bound (2 pi)^(3h) B_h^2 / (2 k! h!), h = k/2,
    is at most the exact global one pi^18 / (2^8 7 945^2), in integers: with
    B_h = num / den and pi^(3h - 18) below P / 2^_FIX_BITS, P the upper end
    of its bracket, it is if 8^h num^2 2^8 7 945^2 P <= 2 k! h! den^2 2^_FIX_BITS."""
    h = k // 2
    b = bernoulli(h)
    p = _pi_power_bracket(3 * h - 18)[1]
    lhs = 8**h * b.numerator**2 * 2**8 * 7 * 945**2 * p
    return lhs <= 2 * math.factorial(k) * math.factorial(h) * b.denominator**2 << _FIX_BITS


class TestBounds:
    def test_per_k_weight_12_value(self):
        # frozen from a direct evaluation of 2 (2 pi)^6 (6!/12!) zeta(6)^2
        assert per_k_bound(12) == pytest.approx(0.19144304505958634, rel=1e-10)

    def test_per_k_direct_formula_oracle(self):
        for k in (12, 16, 24, 40):
            z = math.fsum(n ** (-k / 2) for n in range(1, 200_000))
            direct = (
                2.0
                * (2 * math.pi) ** (k / 2)
                * math.factorial(k // 2)
                / math.factorial(k)
                * z
                * z
            )
            assert per_k_bound(k) == pytest.approx(direct, rel=1e-8)

    def test_per_k_monotone_decreasing(self):
        vals = [per_k_bound(k) for k in range(12, 41, 4)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_per_k_below_global(self):
        g = global_bound()
        for k in range(12, 41, 4):
            assert per_k_bound(k) <= g

    def test_paper_inequality_holds_at_every_weight_to_400(self):
        # the paper's per-weight bound is at most the global one for every k
        # = 0 (mod 4) from 12 to 400, exactly; per_k_bound itself stops at 40
        assert all(per_k_below_global(k) for k in range(12, 401, 4))

    def test_global_bound_below_one(self):
        g = global_bound()
        assert g < 1.0
        assert g == pytest.approx(0.5552596131122742, rel=1e-12)
        assert 1.0 - g == pytest.approx(0.4446, abs=1e-3)

    def test_global_matches_direct_formula(self):
        z6 = math.pi**6 / 945.0
        direct = 2.0 * (2 * math.pi / 7.0) * (math.pi / 4.0) ** 5 * z6 * z6
        assert global_bound() == pytest.approx(direct, rel=1e-13)

    def test_bounds_are_upper_bounds_at_50_digits(self):
        # each bound is the least float at or above its exact value, and below 1
        with mp.workdps(50):
            two_pi = 2 * mp.pi
            for k in range(12, 41, 4):
                h = k // 2
                exact = 2 * two_pi**h * mp.factorial(h) / mp.factorial(k) * mp.zeta(h) ** 2
                b = per_k_bound(k)
                assert mp.mpf(math.nextafter(b, 0)) < exact <= mp.mpf(b) < 1, k
            exact = 2 * (two_pi / 7) * (two_pi / 8) ** 5 * mp.zeta(6) ** 2
            g = global_bound()
            assert mp.mpf(math.nextafter(g, 0)) < exact <= mp.mpf(g) < 1

    def test_per_k_domain(self):
        with pytest.raises(DomainError):
            per_k_bound(14)
        with pytest.raises(DomainError):
            per_k_bound(44)


class TestSeriesTailBound:
    def test_bound_dominates_partial_sum_difference(self):
        # the tail bound at M must dominate the observed continuation to 4M
        for k in (12, 16, 24):
            nu = HalfIntOrder.for_weight(k)
            m0 = 32
            extra = 0.0
            for m in range(m0 + 1, 4 * m0 + 1):
                x = math.pi / m
                extra += gamma_sum(1, m) * math.sqrt(x) * bessel_j(nu, x).value
            assert math.sqrt(2 * math.pi) * abs(extra) <= series_tail_bound(k, 1, m0)

    def test_bound_is_the_least_float_above_sqrt_2pi_a_t(self, monkeypatch):
        # t / 2^F sqrt(2 pi) sqrt(x) (x/2)^nu / Gamma(nu + 1), x = n pi,
        # nu = (k-1)/2, at t / 2^F = 1 and at T(5) and T(64), the later below 1e-36
        with mp.workdps(50):
            for k in range(12, 41, 4):
                nu = mp.mpf(k - 1) / 2
                bits = kernel._tail_bits(k)
                table = kernel._omega_tails(k, 64)
                for n in range(1, 6):
                    x = n * mp.pi
                    for t in (1 << bits, table[5], table[64]):
                        scale = mp.sqrt(2 * mp.pi * x) * (x / 2) ** nu / mp.gamma(nu + 1)
                        exact = mp.mpf(t) / 2**bits * scale
                        bound = tail_bound_at(monkeypatch, k, n, t)
                        assert mp.mpf(math.nextafter(bound, 0)) < exact <= mp.mpf(bound), (k, n, t)

    def test_decreases_in_cutoff(self):
        assert series_tail_bound(12, 1, 64) < series_tail_bound(12, 1, 8)

    def test_omega_is_the_prime_power_count(self):
        # _omega_tails reads omega(m), m >= 2, as the number of prime powers
        # that ntheory._prime_power_block lists for m
        top = 2**16
        omega = omega_sieve(top)
        for b in range(top // 256 + 1):
            starts = _prime_power_block(b)[0]
            for i, m in enumerate(range(256 * b, min(256 * b + 256, top + 1))):
                if m >= 2:
                    assert starts[i + 1] - starts[i] == omega[m], m

    def test_not_above_the_divisor_bound(self):
        # the d(m) <= 2 sqrt(m) tail, 2 A m_stop^((3-k)/2) 2/(k-3), at every
        # power-of-two and three-times-power-of-two cutoff up to the 2^16 cap,
        # A = sqrt(x) (x/2)^nu / Gamma(nu + 1) at x = n pi, taken at 30 digits
        cutoffs = [8 << j for j in range(14)] + [12 << j for j in range(13)]
        with mp.workdps(30):
            for k in range(12, 41, 4):
                nu = mp.mpf(k - 1) / 2
                for n in range(1, 6):
                    x = n * mp.pi
                    a = mp.sqrt(x) * (x / 2) ** nu / mp.gamma(nu + 1)
                    for m_stop in cutoffs:
                        old = mp.sqrt(2 * mp.pi) * a * 4 / (k - 3) * mp.mpf(m_stop) ** (mp.mpf(3 - k) / 2)
                        assert series_tail_bound(k, n, m_stop) <= old, (k, n, m_stop)
        for m_stop in (2**16 + 1, 2**22):
            with pytest.raises(DomainError):
                series_tail_bound(12, 1, m_stop)

    def test_bound_dominates_the_enumerated_tail(self):
        # T(M) of _omega_tails against the exact rational zeta(s)^2 / zeta(2s)
        # less the terms 2^omega(m) m^-s, m <= M, all over one common
        # denominator D: at or above it, by less than (M + 1) 2^-F and less
        # than 2^-53 of it; and series_tail_bound at or above sqrt(2 pi) A
        # times it at 60 digits
        top = 2**12
        omega = omega_sieve(top)
        cutoffs = set(range(1, 201)) | {1 << j for j in range(8, 13)}
        lcm = math.lcm(*range(1, top + 1))
        for k in range(12, 41, 4):
            s = k // 2
            bits = kernel._tail_bits(k)
            table = kernel._omega_tails(k, top)
            whole = zeta_ratio(s)
            with mp.workdps(60):
                assert abs(mp.mpf(whole.numerator) / whole.denominator
                           - mp.zeta(s) ** 2 / mp.zeta(2 * s)) < mp.mpf(10) ** -55, k
            d = lcm**s
            partial = 0
            for m in range(1, top + 1):
                partial += 2 ** omega[m] * (d // m**s)
                if m in cutoffs:
                    # the exact tail is x / (zd d), and T(M) stands for T(M) / 2^F
                    x = whole.numerator * d - partial * whole.denominator
                    zd_d = whole.denominator * d
                    assert x > 0 and table[m] * zd_d >= x << bits, (k, m)
                    assert (table[m] - m - 1) * zd_d < x << bits, (k, m)
                    assert table[m] * zd_d << 53 < (x << bits) * (2**53 + 1), (k, m)
                    if m in (1, 17, 200, top):
                        self.check_scale(k, m, x, zd_d)

    @staticmethod
    def check_scale(k, m, num, den):
        with mp.workdps(60):
            tail = mp.mpf(num) / den
            nu = mp.mpf(k - 1) / 2
            for n in (1, 5):
                x = n * mp.pi
                scale = mp.sqrt(2 * mp.pi * x) * (x / 2) ** nu / mp.gamma(nu + 1)
                assert scale * tail <= series_tail_bound(k, n, m), (k, n, m)

    def test_threads_share_the_tables_safely(self):
        # four threads grow the emptied tables in different orders, while the
        # interpreter switches threads every microsecond
        requests = [(k, m) for k in (12, 16, 20) for m in (1, 3, 40, 255, 256, 700, 1100)]
        expected = {(k, m): series_tail_bound(k, 1, m) for k, m in requests}
        kernel._TAILS.clear()
        results = {}

        def work(seed):
            order = random.Random(seed).sample(requests, len(requests))
            results[seed] = {(k, m): series_tail_bound(k, 1, m) for k, m in order}

        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [results.get(seed) for seed in range(4)] == [expected] * 4


class TestRk:
    def test_weight_12_rho(self):
        coeff = r_k(12, 1, 1e-10)
        assert coeff.rho.value == pytest.approx(1.124928249094, abs=2e-9)
        assert coeff.rho.abs_err <= 1e-10

    def test_rho_within_per_k_window(self):
        for k in range(12, 41, 4):
            coeff = r_k(k, 1, 1e-10)
            assert abs(coeff.rho.value - 1.0) <= per_k_bound(k) + coeff.rho.abs_err

    def test_large_weight_rho_near_one(self):
        for k in (28, 32, 36, 40):
            assert abs(r_k(k, 1).rho.value - 1.0) < 1e-3

    def test_certified_interval_consistency_across_eps(self):
        # the tightest run must land inside each looser certified interval
        for k in range(12, 41, 4):
            for n in range(1, 6):
                tight = r_k(k, n, 1e-14)
                for eps in (1e-8, 1e-10, 1e-13):
                    coeff = r_k(k, n, eps)
                    rho = coeff.rho
                    assert abs(rho.value - tight.rho.value) <= rho.abs_err, (k, n, eps)
                    if eps >= 1e-10:  # at 1e-13 the rounding charge of the longer cut can dominate
                        # the same cut gives the same bar: one term already meets
                        # 1e-14 at k = 36 and 40, n = 1
                        if coeff.terms_used == tight.terms_used:
                            assert tight.rho.abs_err == rho.abs_err, (k, n, eps)
                        else:
                            assert tight.rho.abs_err < rho.abs_err, (k, n, eps)

    def test_cutoff_is_the_first_m_whose_tail_is_below_a_quarter_eps(self):
        for k in range(12, 41, 4):
            for n in range(1, 6):
                for eps in (1e-8, 1e-10, 1e-13, 1e-14):
                    m_stop = r_k(k, n, eps).terms_used
                    assert series_tail_bound(k, n, m_stop) < eps / 4, (k, n, eps)
                    if m_stop > 1:
                        assert series_tail_bound(k, n, m_stop - 1) >= eps / 4, (k, n, eps)

    def test_cut_threshold_is_the_largest_int_below_a_quarter_eps(self, monkeypatch):
        # the bisect's threshold t decides as series_tail_bound does: the tail
        # charged for T(M) = t is below eps/4, and for t + 1 it is not; an
        # infinite eps's threshold is above T(0), so its cut is one term
        for k in range(12, 41, 4):
            for n in range(1, 6):
                for eps in (1e-14, 1e-13, 3e-11, 1e-10, 1e-8, 1e-3):
                    t = kernel._cut_threshold(k, n, eps)
                    assert tail_bound_at(monkeypatch, k, n, t) < eps / 4, (k, n, eps)
                    assert tail_bound_at(monkeypatch, k, n, t + 1) >= eps / 4, (k, n, eps)
                assert kernel._cut_threshold(k, n, math.inf) > kernel._omega_tails(k, 1)[0], (k, n)
        assert r_k(12, 1, math.inf).terms_used == 1

    def test_value_bar_covers_the_prefactor(self):
        # P * rho's bar, plus the distance to P * rho, with P the 50-digit prefactor
        for k in range(12, 41, 4):
            h = k // 2 - 1
            for n in range(1, 6):
                coeff = r_k(k, n, 1e-10)
                with mp.workdps(50):
                    pref = (8 * mp.pi) ** h * mp.mpf(n) ** h / (4 * mp.factorial(k - 2))
                    rho = coeff.rho
                    lhs = abs(coeff.value.value - pref * rho.value) + pref * rho.abs_err
                    assert lhs <= coeff.value.abs_err, (k, n)

    def test_one_gamma_sum_and_one_bessel_j_per_term(self, monkeypatch):
        # each m up to terms_used costs exactly one cosine sum and one Bessel
        # value, but for the hump terms, x * x > k + 1, which cost neither:
        # r_k never passes bessel_j an argument past its domain
        calls = {"gamma_sum": 0}
        args = []

        def counted(*a):
            calls["gamma_sum"] += 1
            return gamma_sum(*a)

        def recorded(nu, x):
            args.append(x)
            return bessel_j(nu, x)

        monkeypatch.setattr(kernel, "gamma_sum", counted)
        monkeypatch.setattr(kernel, "bessel_j", recorded)
        humps = []
        for k, n, eps in ((12, 1, 1e-10), (24, 3, 1e-13), (40, 5, 1e-8), (16, 2, 1e-14)):
            calls["gamma_sum"] = 0
            args.clear()
            coeff = r_k(k, n, eps)
            hump = sum((x := n * math.pi / m) * x > k + 1 for m in range(1, coeff.terms_used + 1))
            humps.append(hump)
            assert calls["gamma_sum"] == len(args) == coeff.terms_used - hump, (k, n, eps)
            assert all(x * x <= k + 1 for x in args), (k, n, eps)
        assert humps == [0, 1, 2, 1]

    def test_n_two(self):
        coeff = r_k(12, 2, 1e-9)
        assert coeff.n == 2
        assert abs(coeff.rho.value) > coeff.rho.abs_err  # resolved away from zero

    def test_domain_and_precision_errors(self):
        with pytest.raises(DomainError):
            r_k(14, 1)
        with pytest.raises(DomainError):
            r_k(44, 1)
        with pytest.raises(DomainError):
            r_k(12, 0)
        with pytest.raises(PrecisionError):
            r_k(12, 1, 1e-15)
        with pytest.raises(PrecisionError):
            r_k(12, 6)  # Bessel argument past the series contract

    def test_non_integer_n_rejected(self):
        # a kernel coefficient exists only at integer n: no number may come back
        for n in (1.5, 2.25, math.nan, math.inf):
            with pytest.raises(DomainError):
                r_k(12, n)
        assert r_k(12, 2.0) == r_k(12, 2)  # an integral float is the integer


def _g_30_digits(n: int, m: int):
    """g_n(m) at the working precision: cos(pi n (a'/c - c'/a)) over the
    coprime pairs a*c = m, the boundary pairs (1, m), (m, 1) times (-1)^n."""
    pairs = [(a, m // a) for a in range(1, math.isqrt(m) + 1) if m % a == 0]
    pairs = {p for a, c in pairs if math.gcd(a, c) == 1 for p in ((a, c), (c, a))}
    g = mp.mpf(0)
    for a, c in pairs:
        ap = pow(a, -1, c) if c > 1 else 0
        cp = pow(c, -1, a) if a > 1 else 0
        term = mp.cospi(n * (mp.mpf(ap) / c - mp.mpf(cp) / a))
        g += (-1) ** n * term if m > 1 and 1 in (a, c) else term
    return g


class TestRkBar:
    def test_bar_within_eps_and_around_the_30_digit_partial_sum(self):
        # the whole bar is at most eps, and less the tail it still holds the
        # 30-digit sum of the series up to the same cut
        with mp.workdps(30):
            for n in range(1, 6):
                g = {}
                for k in range(12, 41, 4):
                    coeffs = {eps: r_k(k, n, eps) for eps in (1e-10, 1e-13, 1e-14)}
                    cuts = {c.terms_used for c in coeffs.values()}
                    v = mp.mpf(k - 1) / 2
                    partial, total = {}, mp.mpf(0)
                    for m in range(1, max(cuts) + 1):
                        if m not in g:
                            g[m] = _g_30_digits(n, m)
                        x = n * mp.pi / m
                        total += g[m] * mp.sqrt(x) * mp.besselj(v, x)
                        if m in cuts:
                            partial[m] = total
                    sign = -1 if (k // 4 + n) % 2 else 1
                    for eps, coeff in coeffs.items():
                        rho, m_stop = coeff.rho, coeff.terms_used
                        assert rho.abs_err <= eps, (k, n, eps)
                        s = 1 + sign * mp.sqrt(2 * mp.pi) * partial[m_stop]
                        room = rho.abs_err - series_tail_bound(k, n, m_stop)
                        assert abs(rho.value - s) <= room, (k, n, eps)

    def test_gamma_charge_holds_the_running_error_bound(self):
        # a copy of ntheory._gamma_row's loop carries, beside each float, its
        # first-order running error bound (Higham 2002, Sec. 3.3): a cosine
        # within 1.2 EPS theta |sin theta| + its ulp (the angle's 1.2 EPS and
        # the ulp of libm's cosine are checked at 40 digits here too), a
        # product within |f| e_g + |g| e_f plus its rounding, the first one
        # exact, and the boundary term and the sum alike.  For n = 1..5 and
        # every m up to r_k's deepest cut, 4,333, the float is the program's,
        # the 40-digit product lies within the bound, and the bound within
        # `kernel._gamma_charge` at m's own omega, at most the range's that
        # r_k charges
        top = 4333
        omega = omega_sieve(top)
        u = EPS / 2
        sixths = ntheory._COS_SIXTHS

        def cosine(t, d):
            """(float, bound, 40-digit value) of cos(pi t / d) as the row takes it."""
            if 6 * t % d == 0 and sixths[6 * t // d] is not None:
                c = sixths[6 * t // d]
                return c, 0.0, mp.mpf(c)
            a = math.pi * (t / d)
            c = math.cos(a)
            theta = mp.pi * t / d
            assert abs(a - theta) <= 1.2 * EPS * theta, (t, d)
            assert abs(c - mp.cos(a)) <= math.ulp(c), (t, d)
            return c, 1.2 * EPS * float(theta * abs(mp.sin(theta))) + math.ulp(c), mp.cos(theta)

        worst = 0.0
        with mp.workdps(40):
            for n in range(1, 6):
                for m in range(2, top + 1):
                    starts, flat = ntheory._prime_power_block(m >> 8)
                    i = m & 255
                    g, err, exact = 1.0, 0.0, mp.mpf(1)
                    for j in range(3 * starts[i], 3 * starts[i + 1], 3):
                        q, r = flat[j], flat[j + 1]
                        t = n * r % (2 * q)
                        c, e, x = cosine(min(t, 2 * q - t), q)
                        product = g * (c + c)
                        err = err * abs(c + c) + abs(g) * 2 * e + (u * abs(product) if g != 1.0 else 0.0)
                        g, exact = product, exact * 2 * x
                    if n % 2:
                        t = n % (2 * m)
                        c, e, x = cosine(min(t, 2 * m - t), m)
                        total = g + 4.0 * c
                        err += 4 * e + u * abs(total)
                        g, exact = total, exact + 4 * x
                    assert g == gamma_sum(n, m), (n, m)
                    assert abs(g - exact) <= err, (n, m)
                    charge = kernel._gamma_charge(omega[m], n % 2) * EPS
                    assert err <= charge, (n, m)
                    assert omega[m] <= bisect.bisect_right(kernel._PRIMORIALS, m), m
                    worst = max(worst, err / charge)
        assert worst > 0.8, worst  # it reaches 0.84 of the charge

    def test_prefactor_charge_holds_the_running_error_bound(self):
        # value = pref * rho: the midpoint of the prefactor's 256-bit bracket,
        # within (hi - lo) / 2 of it, rounded once to pref, then the product
        # rounded once.  The bound on |value - P rho_true|, in exact rationals
        # from the floats r_k returns, is at most the value's bar for every
        # k, n and eps of the digest
        u = Fraction(EPS) / 2
        unit = 2 << ntheory._FIX_BITS
        for k in range(12, 41, 4):
            h = k // 2 - 1
            for n in range(1, 6):
                lo, hi = ntheory._pi_power_fixed(8**h * n**h, 4 * math.factorial(k - 2), h)
                pref = (lo + hi) / unit
                p = Fraction(pref)
                gap = Fraction(hi - lo, unit)  # the midpoint is within this of P
                top = p / (1 - u) + gap  # P is at most this
                for eps in (1e-8, 1e-10, 1e-13, 1e-14):
                    coeff = r_k(k, n, eps)
                    rho, value = coeff.rho, coeff.value
                    assert value.value == pref * rho.value, (k, n, eps)
                    bound = ((p / (1 - u) * u + gap) * abs(Fraction(rho.value))
                             + u * abs(Fraction(value.value))
                             + top * Fraction(rho.abs_err))
                    assert bound <= Fraction(value.abs_err), (k, n, eps)

    def test_a_bar_over_eps_raises(self, monkeypatch):
        # with a unit roundoff of 1e-9 the last rounding alone passes eps
        monkeypatch.setattr(kernel, "_EPS", 1e-9)
        with pytest.raises(PrecisionError, match="above eps"):
            r_k(12, 1, 1e-10)


# r_k's outputs over k = 12..40 step 4, n = 1..5 and four eps, recorded with
# CPython 3.11 and glibc's libm on x86-64 Linux: another libm's cos or
# pow, or the compensated float sum() of CPython 3.12, may move a last bit
_R_K_DIGEST = "38fe6485c573d2023fde5afeb33eab553a6c6927a7d66b57443ac0b68bf75777"
_R_K_DIGEST_PLATFORM = ("linux", "x86_64", (3, 11))


def r_k_digest() -> str:
    """sha256 over the hex of rho, its bar, r_k and its bar, and the cut."""
    h = hashlib.sha256()
    for k in range(12, 41, 4):
        for n in range(1, 6):
            for eps in (1e-8, 1e-10, 1e-13, 1e-14):
                c = r_k(k, n, eps)
                fields = (c.rho.value, c.rho.abs_err, c.value.value, c.value.abs_err)
                h.update(" ".join([*(x.hex() for x in fields), str(c.terms_used)]).encode())
                h.update(b"\n")
    return h.hexdigest()


class TestRkDigest:
    @pytest.mark.skipif(
        (sys.platform, platform.machine(), sys.version_info[:2]) != _R_K_DIGEST_PLATFORM,
        reason="the digest was recorded with one libm and one float sum()",
    )
    def test_outputs_are_bit_identical_to_the_recorded_digest(self):
        assert r_k_digest() == _R_K_DIGEST


class TestCertify:
    def test_all_supported_weights_nonvanish_positive(self):
        for k in range(12, 41, 4):
            cert = certify(k, 1e-10)
            assert cert.nonvanishing
            assert cert.sign == 1
            assert cert.rho.value > 1.0 - cert.per_k_bound - cert.rho.abs_err

    def test_verdict_rests_on_the_bound_not_on_the_bar(self, monkeypatch):
        # a rho inside the window whose bar is wider than 1 still certifies
        coeff = r_k(12, 1)
        wide = dataclasses.replace(coeff, rho=ValueWithError(coeff.rho.value, 1.5))
        monkeypatch.setattr(kernel, "r_k", lambda k, n, eps: wide)
        cert = certify(12)
        assert not cert.rho.excludes_zero()
        assert cert.nonvanishing and cert.sign == 1

    def test_rho_above_the_window_raises(self, monkeypatch):
        coeff = r_k(12, 1)
        bar = coeff.rho.abs_err
        high = 1.0 + per_k_bound(12) + 2 * bar
        monkeypatch.setattr(kernel, "r_k", lambda k, n, eps: dataclasses.replace(
            coeff, rho=ValueWithError(high, bar)))
        with pytest.raises(PrecisionError, match="window"):
            certify(12)

    def test_certificate_carries_bounds(self):
        cert = certify(16)
        assert cert.per_k_bound == per_k_bound(16)
        assert cert.global_bound == global_bound()

    def test_domain(self):
        with pytest.raises(DomainError):
            certify(18)
