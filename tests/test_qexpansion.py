import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckkernel import qexpansion
from ckkernel.errors import DomainError, PrecisionError, UnsupportedError
from ckkernel.ntheory import bernoulli, divisor_count
from ckkernel.qexpansion import (
    QExpansion,
    delta,
    dim_cusp,
    eigenforms,
    eisenstein,
    hecke_char_poly,
    hecke_matrix,
    miller_basis,
)
from ckkernel.qexpansion import _ROOT_BITS, _real_roots


def eta24_coefficients(prec: int) -> list[Fraction]:
    """Independent oracle for Delta: q * prod_n (1 - q^n)^24."""
    coef = [Fraction(0)] * prec
    coef[0] = Fraction(1)
    for n in range(1, prec):
        for _ in range(24):
            new = coef[:]
            for i in range(n, prec):
                new[i] -= coef[i - n]
            coef = new
    return [Fraction(0)] + coef[: prec - 1]


def sigma(j: int, n: int) -> int:
    return sum(d**j for d in range(1, n + 1) if n % d == 0)


def series_mul(a: list, b: list) -> list:
    n = len(a)
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(n)]


def series_pow(a: list, e: int) -> list:
    out = [1] + [0] * (len(a) - 1)
    for _ in range(e):
        out = series_mul(out, a)
    return out


def echelonize(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Reduced row-echelon form over the rationals."""
    rows = [row[:] for row in rows]
    r = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return rows[:r]


def monomial_miller_basis(k: int, prec: int) -> list[list[Fraction]]:
    """Independent oracle for the Miller basis: every monomial E4^a E6^b Delta^c
    of weight k (they span M_k), row-reduced over the rationals; the rows
    with a zero constant term are the g_i = q^i + O(q^(d+1))."""
    e4 = [1] + [240 * sigma(3, n) for n in range(1, prec)]
    e6 = [1] + [-504 * sigma(5, n) for n in range(1, prec)]
    diff = [x - y for x, y in zip(series_pow(e4, 3), series_pow(e6, 2))]
    assert all(x % 1728 == 0 for x in diff)
    dl = [x // 1728 for x in diff]
    rows = []
    for c in range(k // 12 + 1):
        for b in range((k - 12 * c) // 6 + 1):
            rem = k - 12 * c - 6 * b
            if rem % 4 == 0:
                row = series_mul(series_mul(series_pow(e4, rem // 4), series_pow(e6, b)),
                                 series_pow(dl, c))
                rows.append([Fraction(x) for x in row])
    return [row for row in echelonize(rows) if row[0] == 0]


def mpmath_eigenforms(k: int, n_coeffs: int) -> list[tuple[float, ...]]:
    """Independent oracle for the eigenform coefficients, ordered by a_2: the
    roots of T_2's characteristic polynomial by mp.polyroots, each eigenvector
    (w_1 = 1) by mp.lu_solve, and every coefficient summed, all at 60 digits."""
    d = dim_cusp(k)
    basis = miller_basis(k, max(n_coeffs + 1, 2 * d + 1))
    if d == 1:
        return [tuple(float(c) for c in basis[0].coeffs[1 : n_coeffs + 1])]
    t2 = hecke_matrix(k, 2)
    forms = []
    with mp.workdps(60):
        poly = [mp.mpf(c) for c in reversed(hecke_char_poly(k))]
        for lam in mp.polyroots(poly, maxsteps=200, extraprec=120):
            lam = mp.re(lam)
            sub = mp.matrix([[t2[r][c] - (lam if r == c else 0) for c in range(1, d)]
                             for r in range(1, d)])
            w = [mp.mpf(1)] + list(mp.lu_solve(sub, mp.matrix([-t2[r][0] for r in range(1, d)])))
            a = []
            for n in range(1, n_coeffs + 1):
                acc = mp.mpf(0)
                for i, g in enumerate(basis):
                    if g.coeffs[n]:
                        acc += w[i] * mp.mpf(g.coeffs[n])
                a.append(float(acc))
            forms.append(tuple(a))
    return sorted(forms, key=lambda a: a[1])


# coefficient lists of one kind each: small signed ints, ints above 2^200,
# exact fractions, ints and fractions mixed (like E12), and zeros
COEFF_LISTS = st.sampled_from([
    st.integers(-1000, 1000),
    st.integers(2**200, 2**260) | st.integers(-(2**260), -(2**200)),
    st.fractions(max_denominator=60),
    st.integers(-50, 50) | st.fractions(max_denominator=12),
    st.just(0),
]).flatmap(lambda coeffs: st.lists(coeffs, min_size=1, max_size=40))


class TestProduct:
    @settings(max_examples=300, deadline=None)
    @given(a=COEFF_LISTS, b=COEFF_LISTS)
    @example(a=[7], b=[-3])
    @example(a=[0, 0, 0], b=[5, -1])
    @example(a=[2**255 - 1, -(2**255)], b=[-(2**255), 2**255 - 1, 1])
    @example(a=[Fraction(1, 2), Fraction(-3, 2)], b=[2, Fraction(2, 3), 4])
    def test_matches_schoolbook(self, a, b):
        n = min(len(a), len(b))
        prod = QExpansion(4, len(a), tuple(a)) * QExpansion(6, len(b), tuple(b))
        assert (prod.weight, prod.prec) == (10, n)
        assert list(prod.coeffs) == series_mul(a[:n], b[:n])
        # int where integral, Fraction otherwise
        assert all(type(c) is int or c.denominator > 1 for c in prod.coeffs)


class TestEisenstein:
    def test_e4(self):
        e4 = eisenstein(4, 3)
        assert list(e4.coeffs) == [1, 240, 2160]

    def test_e6(self):
        e6 = eisenstein(6, 2)
        assert list(e6.coeffs) == [1, -504]

    def test_truncation_to_constant(self):
        assert list(eisenstein(4, 1).coeffs) == [1]

    def test_non_integral_constant_stays_exact(self):
        e12 = eisenstein(12, 3)
        assert list(e12.coeffs) == [1, Fraction(65520, 691), Fraction(65520 * 2049, 691)]
        assert all(type(c) is Fraction for c in e12.coeffs[1:])

    def test_sieved_sigma_matches_divisor_sum(self):
        prec = 250
        for k in range(4, 41, 2):
            c = Fraction(-2 * k) / bernoulli(k)
            expected = [1] + [c * sigma(k - 1, n) for n in range(1, prec)]
            assert list(eisenstein(k, prec).coeffs) == expected, k

    def test_domain(self):
        with pytest.raises(DomainError):
            eisenstein(3, 5)
        with pytest.raises(DomainError):
            eisenstein(2, 5)


class TestDelta:
    def test_first_tau_values(self):
        d = delta(6)
        assert list(d.coeffs) == [0, 1, -24, 252, -1472, 4830]

    def test_eta_product_oracle(self):
        prec = 40
        assert list(delta(prec).coeffs) == eta24_coefficients(prec)

    def test_ramanujan_congruence(self):
        d = delta(31)
        for n in range(1, 31):
            assert (d[n] - sigma(11, n)) % 691 == 0


class TestDimCusp:
    def test_known_values(self):
        assert dim_cusp(12) == 1
        assert dim_cusp(24) == 2
        assert dim_cusp(10) == 0
        assert dim_cusp(14) == 0  # 14 ≡ 2 (mod 12): only the Eisenstein series

    def test_matches_miller_basis_length(self):
        for k in range(4, 61, 2):
            d = dim_cusp(k)
            assert len(miller_basis(k, d + 2)) == d

    def test_odd_rejected(self):
        with pytest.raises(DomainError):
            dim_cusp(13)


class TestMillerBasis:
    def test_weight_12(self):
        (g,) = miller_basis(12, 8)
        assert list(g.coeffs) == list(delta(8).coeffs)

    def test_weight_24_echelon(self):
        g1, g2 = miller_basis(24, 6)
        assert (g1[0], g1[1], g1[2]) == (0, 1, 0)
        assert (g2[0], g2[1], g2[2]) == (0, 0, 1)

    def test_echelon_property_larger_weights(self):
        for k in (28, 36, 40):
            basis = miller_basis(k, dim_cusp(k) + 3)
            for i, g in enumerate(basis, 1):
                for j in range(1, len(basis) + 1):
                    assert g[j] == (1 if i == j else 0)

    def test_insufficient_prec_rejected(self):
        with pytest.raises(PrecisionError):
            miller_basis(24, 2)

    def test_matches_monomial_row_reduction(self):
        for k in range(12, 41, 2):
            d = dim_cusp(k)
            for prec in (d + 2, 61, 121):
                basis = miller_basis(k, prec)
                assert [list(g.coeffs) for g in basis] == monomial_miller_basis(k, prec), (k, prec)
                assert all(g.weight == k and g.prec == prec for g in basis)

    def test_integer_coefficients(self):
        prec = 61
        series = [eisenstein(4, prec), eisenstein(6, prec), delta(prec)]
        for k in range(12, 41, 2):
            series += miller_basis(k, prec)
        for f in series:
            assert all(type(c) is int for c in f.coeffs), f.weight


class TestHeckeMatrix:
    def test_t2_on_delta(self):
        assert hecke_matrix(12, 2) == [[Fraction(-24)]]

    def test_t6_multiplicativity(self):
        assert hecke_matrix(12, 6) == [[Fraction(-6048)]]
        assert Fraction(-6048) == Fraction(-24) * Fraction(252)

    def test_s24_char_poly(self):
        mat = hecke_matrix(24, 2)
        assert mat[0][0] + mat[1][1] == 1080
        assert hecke_char_poly(24) == [Fraction(-20468736), Fraction(-1080), Fraction(1)]

    def test_insufficient_prec_rejected(self):
        with pytest.raises(PrecisionError):
            hecke_matrix(24, 2, prec=3)

    def test_commutativity(self):
        for k in (24, 28, 36):
            t2 = hecke_matrix(k, 2)
            t3 = hecke_matrix(k, 3)
            d = len(t2)
            prod = lambda a, b: [
                [sum(a[i][t] * b[t][j] for t in range(d)) for j in range(d)]
                for i in range(d)
            ]
            assert prod(t2, t3) == prod(t3, t2)


def poly_from_roots(roots) -> list[int]:
    """prod (q x - p) over the roots p/q, integer coefficients low to high."""
    poly = [1]
    for r in roots:
        out = [0] * (len(poly) + 1)
        for j, c in enumerate(poly):
            out[j] -= r.numerator * c
            out[j + 1] += r.denominator * c
        poly = out
    return poly


class TestRootIsolation:
    def test_repeated_root_rejected(self):
        with pytest.raises(UnsupportedError, match="repeated"):
            _real_roots([2, -3, 0, 1])  # (x - 1)^2 (x + 2)

    def test_complex_roots_rejected(self):
        for poly in ([1, 0, 1], [-2, 0, 0, 1]):  # x^2 + 1, x^3 - 2
            with pytest.raises(UnsupportedError, match="complex"):
                _real_roots(poly)

    def test_roots_in_one_cell_rejected(self):
        with pytest.raises(PrecisionError):  # 2^-(B+2) and 2^-(B+1) share the cell (0, 2^-B]
            _real_roots(poly_from_roots([Fraction(1, 2 ** (_ROOT_BITS + 2)),
                                         Fraction(1, 2 ** (_ROOT_BITS + 1))]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(-100, 100, max_denominator=20), min_size=1, max_size=7,
                    unique=True))
    @example([Fraction(0), Fraction(1), Fraction(-1)])  # roots on cell ends
    @example([Fraction(1, 20), Fraction(1, 19), Fraction(-99, 1)])
    def test_each_cell_holds_one_true_root(self, roots):
        # c is the cell ((c - 1) / 2^B, c / 2^B], so the one holding r is ceil(r 2^B)
        cells = _real_roots(poly_from_roots(roots))
        assert cells == [math.ceil(r * 2**_ROOT_BITS) for r in sorted(roots)]

    def test_weight_24_cells(self):
        # T_2 on S_24: x^2 - 1080 x - 20468736, roots 540 -+ 12 sqrt(144169)
        s = math.isqrt(144 * 144169 << (2 * _ROOT_BITS))  # floor(12 sqrt(144169) 2^B)
        mid = 540 << _ROOT_BITS
        assert _real_roots(hecke_char_poly(24)) == [mid - s, mid + s + 1]


class TestEigenforms:
    def test_delta_coefficients(self):
        (f,) = eigenforms(12, 5)
        assert f.a == (1.0, -24.0, 252.0, -1472.0, 4830.0)

    def test_one_coefficient(self):
        # a_1 = 1 alone, one form per dimension: the order needs no a_2
        for k in (12, 24, 36):
            assert [f.a for f in eigenforms(k, 1)] == [(1.0,)] * dim_cusp(k)

    def test_matches_mpmath_oracle_float_for_float(self):
        for k in range(12, 62, 2):
            if dim_cusp(k):
                for n_coeffs in (60, 120):
                    forms = [f.a for f in eigenforms(k, n_coeffs)]
                    assert forms == mpmath_eigenforms(k, n_coeffs), (k, n_coeffs)

    def test_weight_24_eigenvalues(self):
        f1, f2 = eigenforms(24, 10)
        r = 12 * math.sqrt(144169)
        assert f1.coefficient(2) == pytest.approx(540 - r, rel=1e-12)
        assert f2.coefficient(2) == pytest.approx(540 + r, rel=1e-12)

    def test_hecke_relation_at_two(self):
        for k in (12, 16, 24, 28, 36, 40):
            for f in eigenforms(k, 10):
                lhs = f.coefficient(4)
                rhs = f.coefficient(2) ** 2 - 2 ** (k - 1)
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_prime_square_recursion(self):
        for k in (24, 36):
            for f in eigenforms(k, 30):
                for p in (2, 3, 5):
                    lhs = f.coefficient(p * p)
                    rhs = f.coefficient(p) ** 2 - p ** (k - 1)
                    assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_multiplicativity(self):
        for f in eigenforms(28, 40):
            for m, n in ((2, 3), (3, 4), (2, 9), (5, 7), (4, 9)):
                assert f.coefficient(m * n) == pytest.approx(
                    f.coefficient(m) * f.coefficient(n), rel=1e-9
                )

    def test_count_matches_dimension(self):
        for k in (12, 14, 24, 36, 40):
            if dim_cusp(k) == 0:
                assert eigenforms(k, 10) == [] if k >= 12 else True
            else:
                assert len(eigenforms(k, 10)) == dim_cusp(k)

    def test_domain(self):
        for k, n_coeffs in ((11, 10), (10, 10), (12, 0), (24, 0), (24, -3), (14, 0)):
            with pytest.raises(DomainError):
                eigenforms(k, n_coeffs)

    def test_returned_list_is_the_callers_own(self):
        forms = eigenforms(24, 60)
        expected = list(forms)
        forms.clear()
        forms2 = eigenforms(24, 60)
        assert forms2 == expected
        forms2[0] = None
        assert eigenforms(24, 60) == expected

    def test_one_basis_per_call_and_none_when_repeated(self, monkeypatch):
        calls = []
        build = qexpansion.miller_basis

        def counting(k, prec):
            calls.append((k, prec))
            return build(k, prec)

        monkeypatch.setattr(qexpansion, "miller_basis", counting)
        qexpansion._eigenforms.cache_clear()
        first = eigenforms(36, 50)
        assert calls == [(36, 51)]
        assert eigenforms(36, 50) == first
        assert calls == [(36, 51)]

    def test_deligne_bound_holds_empirically(self):
        for f in eigenforms(24, 60):
            for n in range(1, 61):
                assert abs(f.coefficient(n)) <= 1.000001 * divisor_count(n) * n ** (
                    (f.weight - 1) / 2
                )
