import contextlib
import dataclasses
import gc
import io
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from ckkernel import cli, kernel, ntheory
from ckkernel.errors import DomainError
from ckkernel.ntheory import (
    ValueWithError,
    bernoulli,
    gamma_sum,
)

EPS = 2.220446049250313e-16


def coprime_factor_pairs(m: int) -> list[tuple[int, int]]:
    """All ordered pairs (a, c) of positive integers with a*c = m, gcd(a, c) = 1,
    by trial division: the oracle of the sieved blocks behind `gamma_sum`."""
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


def prime_powers(m: int) -> list[int]:
    """The prime powers q of m, in increasing q, by trial division."""
    qs = []
    for p in range(2, math.isqrt(m) + 1):
        if p * p > m:
            break
        if m % p == 0:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            qs.append(q)
    if m > 1:
        qs.append(m)
    return qs


def residues(m: int) -> list[tuple[int, int]]:
    """(q, rho_q) for the prime powers q of m >= 2: rho_q = (m/q)^-1 mod q,
    and the last rho raised by its q when sum (m/q) rho_q = 1 + t m with t
    even, so that g_n(m) is the product of the 2 cos(pi n rho_q / q), with
    no sign."""
    qs = prime_powers(m)
    rhos = [pow(m // q, -1, q) for q in qs]
    t = (sum(m // q * r for q, r in zip(qs, rhos)) - 1) // m
    if t % 2 == 0:
        rhos[-1] += qs[-1]
    return list(zip(qs, rhos))


def omega_sieve(top: int) -> list[int]:
    """omega(m) for m <= top by a sieve over the primes."""
    omega = [0] * (top + 1)
    for p in range(2, top + 1):
        if omega[p] == 0:
            for q in range(p, top + 1, p):
                omega[q] += 1
    return omega


def cos_pi_over(u: int, d: int) -> float:
    """cos(pi u / d) for u in [0, d]: the five exact cosines looked up one by
    one, else one float cosine of pi (u / d)."""
    if u == 0:
        return 1.0
    if u == d:
        return -1.0
    if 2 * u == d:
        return 0.0
    if 3 * u == d:
        return 0.5
    if 3 * u == 2 * d:
        return -0.5
    return math.cos(math.pi * (u / d))


def folded(t: int, d: int) -> int:
    """t mod 2d folded into [0, d]: cos(pi t / d) = cos(pi folded(t, d) / d)."""
    t %= 2 * d
    return min(t, 2 * d - t)


class TestCoprimeFactorPairs:
    def test_examples(self):
        assert coprime_factor_pairs(1) == [(1, 1)]
        assert coprime_factor_pairs(6) == [(1, 6), (2, 3), (3, 2), (6, 1)]
        assert coprime_factor_pairs(4) == [(1, 4), (4, 1)]

    def test_count_is_two_to_omega(self):
        top = 10_000
        omega = omega_sieve(top)  # the number of distinct primes of m
        for m in range(1, top + 1):
            assert len(coprime_factor_pairs(m)) == 2 ** omega[m]

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
        # the product over the prime powers of m: each angle pi n rho_q / q
        # reduced as an exact Fraction mod 2, the exact cosines looked up, the
        # rest folded into [0, 1] before one float cosine; for odd n the
        # boundary term 4 cos(pi n / m) reduced the same way
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

        for m in range(2, 2049):
            for n in range(1, 6):
                ref = 1.0
                for q, r in residues(m):
                    ref *= 2 * cos_pi_times(Fraction(n * r, q))
                if n % 2:
                    ref += 4 * cos_pi_times(Fraction(n, m))
                assert gamma_sum(n, m) == ref, (n, m)

    def test_matches_full_pair_sum(self):
        # every sorted coprime pair with its own two inverses (0 mod 1), at 40
        # digits, against gamma_sum: within the charge r_k takes for m's
        # number of prime factors and the parity of n
        top = 8192
        omega = omega_sieve(top)
        worst = 0.0
        with mp.workdps(40):
            for m in range(2, top):
                # the pair (c, a) has the cosine of (a, c): take a < c, twice
                es = [pow(a, -1, c) * a - (pow(c, -1, a) if a > 1 else 0) * c
                      for a, c in coprime_factor_pairs(m) if a < c]
                for n in range(1, 6):
                    pair_sum = 2 * mp.fsum(mp.cospi(mp.mpf(n * e) / m) for e in es)
                    charge = kernel._gamma_charge(omega[m], n % 2) * EPS
                    gap = abs(gamma_sum(n, m) - pair_sum)
                    assert gap <= charge, (n, m)
                    worst = max(worst, gap / charge)
        assert worst > 0.05  # the oracle sees the floats' rounding

    def test_sieved_blocks_match_trial_division(self):
        # each block's flat triples, read m by m between its 257 offsets, list
        # the prime powers of trial division in increasing order, each with its
        # residue rho_q (the last one's taken mod 2q) and m at m's last q
        def triples(m):
            out = residues(m) if m > 1 else []
            return tuple(x for j, (q, r) in enumerate(out)
                         for x in (q, r % (2 * q), m if j == len(out) - 1 else 0))

        blocks = list(range(20_000 // 256 + 1)) + [(2**31 - 1) >> 8, (10**9 + 7) >> 8]
        for b in blocks:
            starts, flat = ntheory._prime_power_block(b)
            assert len(starts) == 257
            assert starts[0] == 0 and 3 * starts[-1] == len(flat)
            for m in range(256 * b, 256 * b + 256):
                i = m - 256 * b
                assert flat[3 * starts[i]:3 * starts[i + 1]] == triples(m), m

    def test_a_kept_block_adds_a_handful_of_tracked_objects(self):
        # a block is two flat tuples, not one tuple per m, so the blocks a
        # sweep keeps do not feed the garbage collector
        ntheory._prime_power_block.cache_clear()
        enabled = gc.isenabled()
        gc.disable()  # no collection may untrack the block's tuples meanwhile
        try:
            before = len(gc.get_objects())
            ntheory._prime_power_block(19)
            after = len(gc.get_objects())
        finally:
            if enabled:
                gc.enable()
        assert after - before <= 4

    def test_rows_match_the_per_call_reference(self):
        # each m of a row as one call per m: the prime powers and residues of
        # trial division, n reduced mod 2q, the five exact cosines looked up
        # one by one, the factors multiplied in increasing q, then for odd n
        # the boundary term
        def per_call(n, m):
            if m == 1:
                return 1.0
            n = int(n)  # an integral float n is its int
            g = 1.0
            for q, r in residues(m):
                g *= 2 * cos_pi_over(folded(n * r, q), q)
            if n % 2:
                g += 4 * cos_pi_over(folded(n, m), m)
            return g

        for m in range(1, 8193):
            for n in range(1, 6):
                assert gamma_sum(n, m).hex() == per_call(n, m).hex(), (n, m)
        big = float(2**53 - 1)
        for m in (1001, 30030):
            assert gamma_sum(big, m).hex() == per_call(big, m).hex(), m

    def test_exact_zeros(self):
        # g_n(m) = 0 exactly when 2^e || m, e >= 1, and 2^(e-1) || n: then the
        # factor of q = 2^e is 2 cos(pi n rho / 2^e) with n rho an odd multiple
        # of 2^(e-1), so gamma_n(m) is the boundary term alone; no other
        # factor vanishes, and each is at least 2 sin(pi / 2q) in size
        for m in range(2, 4097):
            e = (m & -m).bit_length() - 1
            for n in range(1, 6):
                boundary = (n % 2) * 4 * cos_pi_over(folded(n, m), m)
                if e and (n & -n) == 1 << (e - 1):
                    assert gamma_sum(n, m) == boundary, (n, m)
                else:
                    assert abs(gamma_sum(n, m) - boundary) > 1e-9, (n, m)

    def test_call_order_does_not_matter(self):
        # gamma_n(m) is memoized by rows of one n and 256 m, built from the
        # memoized blocks of prime powers: values read through memos filled
        # in any order equal those of a pass from empty memos
        memos = (ntheory._gamma_row, ntheory._prime_power_block)
        ms = range(1, 2049)
        ns = range(1, 6)
        for memo in memos:
            memo.cache_clear()
        ascending = {(n, m): gamma_sum(n, m) for m in ms for n in ns}
        for memo in memos:
            memo.cache_clear()
        descending = {(n, m): gamma_sum(n, m) for m in reversed(ms) for n in ns}
        n_major = {(n, m): gamma_sum(n, m) for n in ns for m in ms}
        for memo in memos:
            assert memo.cache_info().hits > 0
        assert descending == ascending
        assert n_major == ascending
        for m in range(1, 20_001):
            gamma_sum(1, m)
        for memo in memos:
            info = memo.cache_info()
            assert info.currsize <= info.maxsize

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_sum(0, 5)
        with pytest.raises(DomainError):
            gamma_sum(1, 0)

    def test_non_integer_n_rejected(self):
        # gamma_n(m) is defined at integer n only: no number may come back
        for n in (1.5, 3.0 + 2.0**-40, math.nan, math.inf):
            with pytest.raises(DomainError):
                gamma_sum(n, 7)
        assert [gamma_sum(2.0, m) for m in range(1, 60)] == [gamma_sum(2, m) for m in range(1, 60)]
        # and a large one, whose float products n s would pass 2^53 unreduced
        big, ms = 2**53 - 1, (1001, 30030)
        assert [gamma_sum(float(big), m) for m in ms] == [gamma_sum(big, m) for m in ms]

    def test_non_integer_m_rejected(self):
        for m in (2.5, 7.5, 4.0 + 2.0**-40, math.nan, math.inf):
            with pytest.raises(DomainError):
                gamma_sum(1, m)
        for n in (1, 3, 5):
            assert [gamma_sum(n, float(m)) for m in range(1, 200)] == [
                gamma_sum(n, m) for m in range(1, 200)]

    def test_divisor_bound(self):
        for m in range(1, 501):
            d = sum(1 for e in range(1, m + 1) if m % e == 0)
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


class TestFixedPoint:
    def test_pi_bracket_against_100_digits(self):
        with mp.workdps(100):
            scaled = mp.pi * mp.mpf(2) ** ntheory._FIX_BITS
            assert ntheory._PI_FIX_LO < scaled < ntheory._PI_FIX_HI
        assert ntheory._PI_FIX_HI == ntheory._PI_FIX_LO + 1

    def test_pi_power_brackets_hold_the_100_digit_power(self):
        # and the bracket of the literals' own p-th powers, which each
        # product's rounding outward keeps inside
        bits = ntheory._FIX_BITS
        with mp.workdps(100):
            for p in range(1, 65):
                lo, hi = ntheory._pi_power_bracket(p)
                assert lo < mp.pi**p * mp.mpf(2) ** bits < hi, p
                assert lo <= ntheory._PI_FIX_LO**p >> bits * (p - 1), p
                assert hi >= -(-(ntheory._PI_FIX_HI**p) >> bits * (p - 1)), p
                assert hi - lo < lo >> 240, p

    def test_pi_power_up_is_the_least_float_at_or_above_the_bracket(self):
        unit = 2**ntheory._FIX_BITS
        stepped = 0  # calls whose quotient rounds down, so that nextafter steps up
        for p in (1, 2, 6, 18, 60):
            for num in range(1, 40):
                for den in (1, 3, 7, 945, 2**20 + 1):
                    up = ntheory._pi_power_up(num, den, p)
                    top = Fraction(ntheory._pi_power_fixed(num, den, p)[1], unit)
                    assert Fraction(math.nextafter(up, 0)) < top <= Fraction(up), (num, den, p)
                    stepped += float(top) < top
        assert 0 < stepped < 5 * 39 * 5  # both branches are taken

    def test_cosine_brackets_hold_the_60_digit_cosine(self):
        unit = 2**ntheory._FIX_BITS
        with mp.workdps(60):
            for m in range(1, 13):
                for t in range(-2 * m, 4 * m + 1):
                    lo, hi = ntheory._cos_pi_fixed(t, m)
                    assert lo <= mp.cospi(mp.mpf(t) / m) * unit <= hi, (t, m)
                    assert hi - lo < unit >> 90

    def test_gamma_brackets_hold_the_float_sum(self):
        # gamma_sum is within a few ulps of the bracket for every m of a block
        unit = 2**ntheory._FIX_BITS
        for n in (1, 2, 5):
            for m in list(range(1, 300)) + [2310, 4199, 5005]:
                lo, hi = ntheory._gamma_fixed(n, m)
                pairs = len(coprime_factor_pairs(m))
                g = Fraction(gamma_sum(n, m))
                assert Fraction(lo, unit) - 8 * pairs * EPS <= g <= Fraction(hi, unit) + 8 * pairs * EPS
                assert hi - lo < unit >> 88


class TestValueWithError:
    def test_bar_must_be_finite_and_non_negative(self):
        for bar in (math.nan, math.inf, -math.inf, -1.0, -5e-324):
            with pytest.raises(ValueError):
                ValueWithError(1.0, bar)
        for bar in (0.0, -0.0, 5e-324, 1.0, 1.7976931348623157e308):
            assert ValueWithError(math.nan, bar).abs_err == bar

    def test_frozen_dataclass_with_its_repr_eq_and_hash(self):
        v = ValueWithError(1.5, 0.25)
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.value = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.abs_err = 0.5
        assert repr(v) == "ValueWithError(value=1.5, abs_err=0.25)"
        assert v == ValueWithError(value=1.5, abs_err=0.25)
        assert hash(v) == hash(ValueWithError(1.5, 0.25))
        assert v != ValueWithError(1.5, 0.5)
        assert [f.name for f in dataclasses.fields(v)] == ["value", "abs_err"]
        assert dataclasses.replace(v, abs_err=1.0) == ValueWithError(1.5, 1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(v, abs_err=math.nan)
        assert v.excludes_zero() and not ValueWithError(0.25, 0.25).excludes_zero()


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
        # recompute B_0..B_60 anew with the defining recurrence
        b = [Fraction(1)]
        for m in range(1, 61):
            acc = sum(math.comb(m + 1, j) * b[j] for j in range(m))
            b.append(-acc / (m + 1))
        for n in range(0, 61, 2):
            assert bernoulli(n) == b[n], n

    def test_request_order_does_not_matter(self, monkeypatch):
        # the table grows by recomputation: values read after a descending and
        # an ascending pass from an empty table agree
        ns = range(0, 101, 2)
        monkeypatch.setattr(ntheory, "_bernoulli_even", [Fraction(1)])
        descending = [bernoulli(n) for n in reversed(ns)][::-1]
        monkeypatch.setattr(ntheory, "_bernoulli_even", [Fraction(1)])
        ascending = [bernoulli(n) for n in ns]
        assert descending == ascending
        assert len(ntheory._bernoulli_even) > 51

    def test_any_request_order_gives_the_table_of_one_build(self, monkeypatch):
        # the entries do not depend on where a build stops, and requests up to
        # B_40, the largest the certified weights ask for, build the table once
        one_build = ntheory._even_bernoulli(50)
        builds = []
        build = ntheory._even_bernoulli
        monkeypatch.setattr(ntheory, "_even_bernoulli", lambda h: builds.append(h) or build(h))
        ns = list(range(0, 101, 2))
        for order in (ns, ns[::-1], random.Random(1).sample(ns, len(ns)), [12, 6, 100, 40, 2]):
            monkeypatch.setattr(ntheory, "_bernoulli_even", [Fraction(1)])
            assert [bernoulli(n) for n in order] == [one_build[n // 2] for n in order]
        for order in (ns[:21], ns[20::-1], [6, 12, 8, 16, 40], [4, 2]):
            monkeypatch.setattr(ntheory, "_bernoulli_even", [Fraction(1)])
            builds.clear()
            assert [bernoulli(n) for n in order] == [one_build[n // 2] for n in order]
            assert builds == [20], order

    def test_a_report_triangle_process_builds_the_table_once(self, monkeypatch):
        # one weight per report, as the report-triangle workload calls them,
        # each weight asking B_(k/2) and B_k: a table grown on demand from
        # B_6 was built at h = 3, 6, 12 and 24
        builds = []
        build = ntheory._even_bernoulli
        monkeypatch.setattr(ntheory, "_even_bernoulli", lambda h: builds.append(h) or build(h))
        monkeypatch.setattr(ntheory, "_bernoulli_even", [Fraction(1)])
        monkeypatch.setattr(kernel, "_TAILS", {})
        for k in range(12, 41, 4):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["report", "--weights", f"{k}:{k}:4", "--triangle", "--json"]) == 0
        assert builds == [20]
