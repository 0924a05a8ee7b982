import math
from fractions import Fraction

import pytest

from ckkernel import ntheory
from ckkernel.errors import DomainError
from ckkernel.ntheory import (
    bernoulli,
    divisor_count,
    factorize,
    gamma_sum,
    zeta_even,
)

EPS = 2.220446049250313e-16


def coprime_factor_pairs(m: int) -> list[tuple[int, int]]:
    """All ordered pairs (a, c) of positive integers with a*c = m, gcd(a, c) = 1,
    by trial division: the oracle of the memoized walk behind `gamma_sum`."""
    pairs = []
    for a in range(1, math.isqrt(m) + 1):
        if m % a:
            continue
        c = m // a
        if math.gcd(a, c) != 1:
            continue
        pairs.append((a, c))
        if a != c:
            pairs.append((c, a))
    pairs.sort()
    return pairs


class TestCoprimeFactorPairs:
    def test_examples(self):
        assert coprime_factor_pairs(1) == [(1, 1)]
        assert coprime_factor_pairs(6) == [(1, 6), (2, 3), (3, 2), (6, 1)]
        assert coprime_factor_pairs(4) == [(1, 4), (4, 1)]

    def test_count_is_two_to_omega(self):
        for m in range(1, 10_001):
            omega = len(factorize(m))
            assert len(coprime_factor_pairs(m)) == 2**omega

    def test_pairs_multiply_to_m_and_are_coprime(self):
        for m in (12, 36, 210, 9973):
            for a, c in coprime_factor_pairs(m):
                assert a * c == m and math.gcd(a, c) == 1


class TestGammaSum:
    def test_m_one_is_one(self):
        for n in (1, 2, 5, 19):
            assert gamma_sum(n, 1) == 1.0

    def test_small_exact_values(self):
        assert gamma_sum(1, 2) == 0.0
        assert gamma_sum(1, 3) == 1.0

    def test_matches_fraction_reduction(self):
        # the angle reduced as an exact Fraction mod 2, the exact cosines
        # looked up, the rest folded into [0, 1] before one float cosine
        exact = {
            Fraction(0): 1.0,
            Fraction(1): -1.0,
            Fraction(1, 2): 0.0,
            Fraction(3, 2): 0.0,
            Fraction(1, 3): 0.5,
            Fraction(5, 3): 0.5,
            Fraction(2, 3): -0.5,
            Fraction(4, 3): -0.5,
        }

        def cos_pi_times(t):
            t = t % 2
            if t in exact:
                return exact[t]
            if t > 1:
                t = 2 - t
            return math.cos(math.pi * float(t))

        for m in range(1, 2049):
            pairs = coprime_factor_pairs(m)
            for n in range(1, 6):
                ref = sum(
                    cos_pi_times(
                        Fraction(
                            n * ((pow(a, -1, c) if c > 1 else 0) * a
                                 - (pow(c, -1, a) if a > 1 else 0) * c),
                            m,
                        )
                    )
                    for a, c in pairs
                )
                assert gamma_sum(n, m) == ref, (n, m)

    def test_matches_full_pair_sum(self):
        # every sorted coprime pair with its own two inverses (0 mod 1), the
        # same exact reduction and fold, summed in the same order
        def cos_pi_over(s, m):
            t = s % (2 * m)
            t = min(t, 2 * m - t)
            for num, den, value in ((0, 1, 1.0), (1, 1, -1.0), (1, 2, 0.0),
                                    (1, 3, 0.5), (2, 3, -0.5)):
                if den * t == num * m:
                    return value
            return math.cos(math.pi * (t / m))

        for m in range(1, 8193):
            pairs = coprime_factor_pairs(m)
            for n in range(1, 6):
                ref = sum(
                    cos_pi_over(
                        n * ((pow(a, -1, c) if c > 1 else 0) * a
                             - (pow(c, -1, a) if a > 1 else 0) * c),
                        m,
                    )
                    for a, c in pairs
                )
                assert gamma_sum(n, m) == ref, (n, m)

    def test_call_order_does_not_matter(self):
        # the pair exponents of m are memoized: values read through a memo
        # filled in any order equal those of a pass from an empty memo
        memo = ntheory._pair_exponents
        ms = range(1, 2049)
        ns = range(1, 6)
        memo.cache_clear()
        ascending = {(n, m): gamma_sum(n, m) for m in ms for n in ns}
        memo.cache_clear()
        descending = {(n, m): gamma_sum(n, m) for m in reversed(ms) for n in ns}
        n_major = {(n, m): gamma_sum(n, m) for n in ns for m in ms}
        assert memo.cache_info().hits > 0
        assert descending == ascending
        assert n_major == ascending
        for m in range(1, 20_001):
            gamma_sum(1, m)
        info = memo.cache_info()
        assert info.currsize <= info.maxsize

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_sum(0, 5)
        with pytest.raises(DomainError):
            gamma_sum(1, 0)

    def test_divisor_bound(self):
        for m in range(1, 501):
            d = divisor_count(m)
            for n in range(1, 21):
                assert abs(gamma_sum(n, m)) <= d + 1e-12

    def test_oracle_direct_cosine(self):
        # independent float evaluation without exact angle reduction
        for m in range(1, 150):
            direct = 0.0
            for a, c in coprime_factor_pairs(m):
                ap = pow(a, -1, c) if c > 1 else 0
                cp = pow(c, -1, a) if a > 1 else 0
                direct += math.cos(math.pi * 1 * (ap / c - cp / a))
            assert gamma_sum(1, m) == pytest.approx(direct, abs=1e-9)


class TestDivisorCount:
    def test_examples(self):
        assert divisor_count(1) == 1
        assert divisor_count(6) == 4
        assert divisor_count(12) == 6

    def test_enumeration_oracle(self):
        for m in range(1, 2000):
            brute = sum(1 for d in range(1, m + 1) if m % d == 0)
            assert divisor_count(m) == brute


class TestBernoulli:
    def test_classical_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_odd_rejected(self):
        with pytest.raises(DomainError):
            bernoulli(3)
        with pytest.raises(DomainError):
            bernoulli(1)

    def test_independent_recurrence_oracle(self):
        # recompute B_20 from scratch with the defining recurrence
        b = [Fraction(1)]
        for m in range(1, 21):
            acc = sum(math.comb(m + 1, j) * b[j] for j in range(m))
            b.append(-acc / (m + 1))
        assert bernoulli(20) == b[20]


class TestZeta:
    def test_closed_forms(self):
        assert zeta_even(2) == pytest.approx(math.pi**2 / 6, rel=1e-15)
        assert zeta_even(6) == pytest.approx(math.pi**6 / 945, rel=1e-15)

    def test_even_values_match_bernoulli_closed_form(self):
        # an independent partial sum to M terms, its tail bracketed by the
        # integrals from M and M + 1, against the allowance of
        # kernel._deviation_bound
        m = 5000
        for n in range(2, 41, 2):
            partial = math.fsum(j ** -float(n) for j in range(1, m + 1))
            lo = partial + (m + 1) ** (1.0 - n) / (n - 1)
            hi = partial + m ** (1.0 - n) / (n - 1)
            z = zeta_even(n)
            slack = (n / 4 + 3) * EPS * z
            assert lo - slack <= z <= hi + slack

    def test_domain(self):
        for n in (-2, 0, 1, 3, 7):
            with pytest.raises(DomainError):
                zeta_even(n)

    def test_error_bound_honest_against_mpmath(self):
        # kernel._deviation_bound allows (n / 4 + 3) EPS of relative error
        import mpmath as mp

        with mp.workdps(50):
            for n in range(2, 41, 2):
                ref = mp.zeta(n)
                assert abs(mp.mpf(zeta_even(n)) - ref) <= (n / 4 + 3) * EPS * ref
