import hashlib
import math
import random
import signal
import sys
import threading
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ckkernel
from ckkernel import kernel, lfunction, ntheory, petersson, qexpansion, specfun
from ckkernel.errors import DomainError, PrecisionError, UnsupportedError
from ckkernel.kernel import certify, per_k_bound, r_k, series_tail_bound
from ckkernel.lfunction import central_values, coefficient_count, deligne_tail
from ckkernel.ntheory import bernoulli, gamma_sum
from ckkernel.petersson import QuadratureSpec, default_spec, kohnen_triangle, triangle_check
from ckkernel.qexpansion import (
    Eigenform,
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
from ckkernel.specfun import HalfIntOrder

from modularity import functional_equation_residual


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
# and zeros
COEFF_LISTS = st.sampled_from([
    st.integers(-1000, 1000),
    st.integers(2**200, 2**260) | st.integers(-(2**260), -(2**200)),
    st.just(0),
]).flatmap(lambda coeffs: st.lists(coeffs, min_size=1, max_size=40))


class TestProduct:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(a=COEFF_LISTS, b=COEFF_LISTS)
    @example(a=[7], b=[-3])
    @example(a=[0, 0, 0], b=[5, -1])
    @example(a=[2**255 - 1, -(2**255)], b=[-(2**255), 2**255 - 1, 1])
    def test_matches_schoolbook(self, a, b):
        n = min(len(a), len(b))
        prod = QExpansion(4, tuple(a)) * QExpansion(6, tuple(b))
        assert (prod.weight, prod.prec) == (10, n)
        assert list(prod.coeffs) == series_mul(a[:n], b[:n])
        assert all(type(c) is int for c in prod.coeffs)


# Every public callable that takes an integer argument, with valid arguments:
# each int among them is an integer argument and is swept below, while floats
# (eps) and objects stay as given.  The first eight rows are the q-expansion
# builders; the rest cover every other module.
_LHS = r_k(12, 1).value
_VALUES = central_values(12)
_E4 = eisenstein(4, 3)
_DELTA = Eigenform(12, (1.0, -24.0))
BUILDERS = [
    (eisenstein, (4, 6)),
    (delta, (6,)),
    (dim_cusp, (24,)),
    (miller_basis, (24, 6)),
    (hecke_matrix, (12, 3)),
    (hecke_matrix, (24, 3)),
    (hecke_char_poly, (24,)),
    (eigenforms, (24, 5)),
    (QExpansion, (4, (1, 240))),
    (Eigenform, (12, (1.0, -24.0))),
    (gamma_sum, (3, 10)),
    (deligne_tail, (1.0, 3.0, 5)),  # its start n0
    (bernoulli, (4,)),
    (per_k_bound, (40,)),  # the top weight, whose bound takes the largest power of pi
    (HalfIntOrder, (11,)),
    (r_k, (12, 2, 1e-10)),
    (series_tail_bound, (12, 1, 10)),
    (per_k_bound, (12,)),
    (certify, (12, 1e-10)),
    (coefficient_count, (12,)),
    (central_values, (12, 1e-10)),
    (QuadratureSpec, (20,)),
    (default_spec, (12,)),
    (kohnen_triangle, (12, _LHS, _VALUES)),
    (triangle_check, (12, 1e-10)),
    (_E4.pow, (2,)),
    (_DELTA.coefficient, (2,)),
    (specfun.upper_incomplete_gamma, (6, 2.0)),
    (lfunction.completed_l, (_VALUES[0][0], 6)),
]
# Public callables without an integer argument, and the records that only
# carry a result (KernelCoefficient, Certificate, LValue, TriangleCheck,
# ValueWithError) and the exception types: nothing to sweep.
NO_INTEGER_ARGUMENT = {
    "global_bound", "petersson_norm_sq", "petersson_inner", "bessel_j",
    "KernelCoefficient", "Certificate", "LValue", "TriangleCheck", "ValueWithError",
    "DomainError", "PrecisionError", "UnsupportedError",
}
# (callable, argument index, value) -> result: a swept value inside the domain
IN_DOMAIN = {
    (dim_cusp, 0, 0): 0,  # dim S_0 = 0
    (hecke_matrix, 0, 0): [],  # T_n on S_0 = 0
    (hecke_char_poly, 0, 0): [1],
    (bernoulli, 0, 0): 1,  # B_0
    (QExpansion, 0, 0): QExpansion(0, (1, 240)),  # constants have weight 0
    (_E4.pow, 0, 0): QExpansion(0, (1, 0, 0)),
}
# The values every integer argument is swept with, besides its own value plus
# 1/2: non-integral, nan, +-inf, and 0 and -1, which lie below every lower end
# but those IN_DOMAIN names.
SWEEP = (2.5, math.nan, math.inf, -math.inf, 0, -1)
# Inputs past the sweep's values, malformed series and a nan eps: (call, args, error)
LISTED = [
    (QuadratureSpec, (65,), DomainError),  # past the 64-node cap
    (default_spec, (10**6,), DomainError),  # 250,010 nodes
    (coefficient_count, (-4,), DomainError),
    (_DELTA.coefficient, (3,), DomainError),  # past the coefficients it carries
    (central_values, (12, math.nan), PrecisionError),  # a nan eps
    (r_k, (12, 1, math.nan), PrecisionError),
    (certify, (12, math.nan), PrecisionError),
    (triangle_check, (12, math.nan), PrecisionError),
    (eisenstein, (12, 5), DomainError),  # -2k/B_k = 65520/691 is not an integer
    (eisenstein, (10**6, 5), DomainError),  # refused at once, with no B_k
    (QExpansion, (4, ()), DomainError),  # no coefficient
    (QExpansion, (4, (1, Fraction(1, 2))), DomainError),
    (QExpansion, (4, (1, 240.0)), DomainError),
    (Eigenform, (12, ()), DomainError),
    (Eigenform, (12, (2.0, -48.0)), DomainError),  # a_1 != 1
    (HalfIntOrder, (10**400 + 1,), DomainError),  # nu past the float range
    (HalfIntOrder, (41,), DomainError),  # the first order past the kernel's, twice_nu = 39
    (lfunction.completed_l, (Eigenform(10**400, (1.0, 2.0)), 1.0), DomainError),
    (functional_equation_residual, (Eigenform(10**400, (1.0, 2.0)), 1.0), DomainError),
    # counts past the one cap, 2^16, raised before any allocation
    (eisenstein, (4, 10**5000), DomainError),
    (eisenstein, (4, 2**16 + 1), DomainError),
    (delta, (10**30,), DomainError),
    (miller_basis, (12, 10**30), DomainError),
    (eigenforms, (12, 10**30), DomainError),
    (eigenforms, (12, 2**16), DomainError),  # its basis takes n_coeffs + 1
    (eigenforms, (10**6, 5), DomainError),  # a basis of 83,333 forms takes 2 d + 1
    (hecke_matrix, (24, 2**15), DomainError),  # n d + 1 = 2^16 + 1
    (hecke_matrix, (24, 10**5000), DomainError),
    (QuadratureSpec, (10**5000,), DomainError),  # past repr's 4,300 digits
    # in the strip, but past the incomplete gamma's s <= 60, as an int and a float
    (lfunction.completed_l, (Eigenform(10**400, (1.0, 2.0)), 5 * 10**399), DomainError),
    (lfunction.completed_l, (Eigenform(124, (1.0, 2.0)), 62.0), DomainError),
    (functional_equation_residual, (Eigenform(124, (1.0, 2.0)), 61), DomainError),
    # the Parseval sum's s = k - 1 <= 60, tested before any float operation
    (petersson.petersson_inner,
     (Eigenform(10**400, (1.0, 2.0)), Eigenform(10**400, (1.0, 2.0)), QuadratureSpec(20)), DomainError),
    (petersson.petersson_norm_sq, (eigenforms(62, 40)[0],), DomainError),
    # coefficients that are not finite ints or floats
    (Eigenform, (12, (1.0, math.nan)), DomainError),
    (Eigenform, (12, (1.0, math.inf)), DomainError),
    (Eigenform, (12, (1.0, "x")), DomainError),
    (Eigenform, (12, (1.0, True)), DomainError),
    (Eigenform, (12, (1.0, 10**400)), DomainError),  # an int past the float range
    # a_2^2 = 1e400 in the Parseval sum
    (petersson.petersson_norm_sq, (Eigenform(12, (1.0, 1e200)),), PrecisionError),
    # the smallest subnormal x, whose half rounds to 0, and a NaN x
    (specfun.bessel_j, (HalfIntOrder(1), 5e-324), DomainError),
    (specfun.bessel_j, (HalfIntOrder(1), math.nan), DomainError),
    # a series cut past the 2^16 cap
    (series_tail_bound, (12, 1, 2**16 + 1), DomainError),
]


def public_callables():
    """name -> object for every callable in ckkernel.__all__ and each module's __all__."""
    modules = (ckkernel, kernel, lfunction, ntheory, petersson, qexpansion, specfun)
    return {name: getattr(mod, name) for mod in modules for name in mod.__all__
            if callable(getattr(mod, name))}


@pytest.fixture
def time_limit():
    """Fail a test that takes more than 20 s, by SIGALRM in this process."""
    def hung(signum, frame):
        raise TimeoutError("no answer within 20 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestDomainGates:
    def test_every_public_integer_argument_is_swept(self):
        swept = {call.__name__ for call, _ in BUILDERS}
        assert set(public_callables()) - NO_INTEGER_ARGUMENT <= swept

    @pytest.mark.parametrize("build, args", BUILDERS)
    def test_each_argument_must_be_an_integer(self, build, args, time_limit):
        for i, arg in enumerate(args):
            if type(arg) is not int:
                continue
            for bad in (arg + 0.5, *SWEEP):
                if (build, i, bad) in IN_DOMAIN:
                    result = build(*args[:i], bad, *args[i + 1:])
                    assert result == IN_DOMAIN[build, i, bad], (i, bad)
                    continue
                with pytest.raises(DomainError):
                    build(*args[:i], bad, *args[i + 1:])

    @pytest.mark.parametrize("build, args", BUILDERS)
    def test_an_integral_float_gives_the_ints_result(self, build, args, time_limit):
        # repr, so that a float weight or a float count in the result shows
        expected = repr(build(*args))
        for i, arg in enumerate(args):
            if type(arg) is int:
                assert repr(build(*args[:i], float(arg), *args[i + 1:])) == expected, i

    @pytest.mark.parametrize("call, args, error", LISTED)
    def test_listed_input_raises(self, call, args, error, time_limit):
        with pytest.raises(error):
            call(*args)

    def test_a_huge_int_is_named_by_its_bit_length(self):
        for call, args in ((QuadratureSpec, (10**5000,)), (eisenstein, (4, 10**5000)),
                           (lfunction.completed_l, (Eigenform(10**5000, (1.0,)), 10**5000 // 2))):
            with pytest.raises(DomainError, match=r"an int of 166\d\d bits"):
                call(*args)

    def test_nan_eps_is_not_called_too_small(self):
        with pytest.raises(PrecisionError) as info:
            r_k(12, 1, math.nan)
        assert "below" not in str(info.value) and "nan" in str(info.value)


class TestEisenstein:
    def test_e4(self):
        e4 = eisenstein(4, 3)
        assert list(e4.coeffs) == [1, 240, 2160]

    def test_e6(self):
        e6 = eisenstein(6, 2)
        assert list(e6.coeffs) == [1, -504]

    def test_truncation_to_constant(self):
        assert list(eisenstein(4, 1).coeffs) == [1]

    def test_sieved_sigma_matches_divisor_sum(self):
        prec = 250
        for k in (4, 6, 8, 10, 14):
            c = Fraction(-2 * k) / bernoulli(k)
            assert c.denominator == 1, k
            expected = [1] + [c.numerator * sigma(k - 1, n) for n in range(1, prec)]
            coeffs = eisenstein(k, prec).coeffs
            assert list(coeffs) == expected and {*map(type, coeffs)} == {int}, k

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


def empty_power_table():
    """Empty the table of Delta^j, E6^2 and the rows Delta^j E6^(2i) that
    `miller_basis` shares across calls."""
    qexpansion._delta_pows.clear()
    qexpansion._e6_sq.clear()
    qexpansion._miller_rows.clear()


def power_table() -> list:
    """A copy of that table's powers of Delta, its E6^2 and its rows."""
    return [list(qexpansion._delta_pows), list(qexpansion._e6_sq),
            dict(qexpansion._miller_rows)]


def count_products(monkeypatch, fn, *args) -> int:
    """The number of q-series products fn(*args) makes."""
    products = []
    mul = QExpansion.__mul__
    monkeypatch.setattr(QExpansion, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    fn(*args)
    monkeypatch.undo()
    return len(products)


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
        for prec in (1, 2):  # in the domain, but not past dim S_24 = 2
            with pytest.raises(PrecisionError):
                miller_basis(24, prec)

    def test_prec_below_one_is_outside_the_domain(self):
        for k in (12, 24, 10):
            for prec in (0, -4):
                with pytest.raises(DomainError):
                    miller_basis(k, prec)

    def test_matches_monomial_row_reduction(self):
        for k in range(12, 41, 2):
            d = dim_cusp(k)
            for prec in (d + 2, 61, 121):
                basis = miller_basis(k, prec)
                assert [list(g.coeffs) for g in basis] == monomial_miller_basis(k, prec), (k, prec)
                assert all(g.weight == k and g.prec == prec for g in basis)

    def test_call_order_does_not_matter(self):
        # Delta^j and E6^(2j) come from one table that every weight and
        # precision shares: bases read through a table filled in any order
        # equal those built from an empty table, to the types of their
        # coefficients, and a refused request leaves the table as it was
        requests = [(k, prec) for k in range(4, 121, 2) for prec in (1, 2, 5, 13, 21, 40, 121, 250)]
        random.Random(22).shuffle(requests)

        def build(k, prec):
            try:
                return repr(miller_basis(k, prec))
            except PrecisionError:
                return None

        fresh = {}
        for k, prec in requests:
            empty_power_table()
            fresh[k, prec] = build(k, prec)
        empty_power_table()
        refused = 0
        for k, prec in requests:
            before = power_table()
            basis = build(k, prec)
            assert basis == fresh[k, prec], (k, prec)
            if basis is None:
                refused += 1
                assert power_table() == before, (k, prec)
        assert refused > 0
        assert qexpansion._delta_pows[0].prec >= 250

    def test_weights_of_one_dimension_share_their_rows(self, monkeypatch):
        # k = 36 and 40 both have d = 3: the rows Delta^2 E6^2 and Delta E6^4,
        # the latter through Delta E6^2, are made once, so k = 40 makes only
        # its three products with E4, and every kept row is the product taken
        # afresh at the table's precision
        empty_power_table()
        miller_basis(36, 121)
        products = []
        mul = QExpansion.__mul__
        monkeypatch.setattr(QExpansion, "__mul__", lambda a, b: products.append(1) or mul(a, b))
        basis = miller_basis(40, 121)
        monkeypatch.undo()
        assert len(products) == 3
        assert [list(g.coeffs) for g in basis] == monomial_miller_basis(40, 121)
        assert set(qexpansion._miller_rows) == {(1, 1), (2, 1), (1, 2)}
        for (j, i), row in qexpansion._miller_rows.items():
            p = row.prec
            assert p == qexpansion._delta_pows[0].prec, (j, i)
            assert row == delta(p).pow(j) * eisenstein(6, p).pow(2 * i), (j, i)

    def test_jacobi_delta_matches_the_eisenstein_route(self):
        # the table builds Delta from Jacobi's identity and E6^2 as one square;
        # filled at ascending precisions from an empty table, both equal the
        # series built from E4 and E6 afresh
        empty_power_table()
        for prec in (1, 2, 3, 16, 21, 32, 121, 250):
            assert qexpansion._miller_row(1, 0, prec) == delta(prec)
            dl, e6_sq = qexpansion._delta_pows[0], qexpansion._e6_sq[0]
            p = dl.prec
            assert p == e6_sq.prec >= prec
            assert dl == delta(p), prec
            assert e6_sq == eisenstein(6, p).pow(2), prec

    def test_cold_basis_makes_twelve_products(self, monkeypatch):
        # Delta by three squarings, E6^2, Delta^2, Delta^3, Delta^2 E6^2,
        # Delta E6^2, Delta E6^4, and one product with E4 per row
        empty_power_table()
        assert count_products(monkeypatch, miller_basis, 40, 121) == 12

    def test_rising_precisions_remake_no_row(self, monkeypatch):
        # the report's weights 12..40 step 4, ascending, ask 13, 14, ..., 21
        # coefficients: the table is refilled once, at 26, and every row is
        # made at the table's precision, so none is remade as the precision
        # rises
        empty_power_table()

        def report_weights():
            for k in range(12, 41, 4):
                eigenforms(k, coefficient_count(k))

        assert count_products(monkeypatch, report_weights) == 22
        p = qexpansion._delta_pows[0].prec
        assert p == 26 and qexpansion._e6_sq[0].prec == p
        assert qexpansion._miller_rows
        assert all(row.prec == p for row in qexpansion._miller_rows.values())

    def test_threads_share_the_table_safely(self):
        # four threads ask for bases in different orders, with precisions that
        # make the table grow and be rebuilt under them, while the interpreter
        # switches threads every microsecond
        requests = [(k, prec) for k in range(12, 81, 4) for prec in (13, 40, 121)]
        expected = {}
        for k, prec in requests:
            empty_power_table()
            expected[k, prec] = repr(miller_basis(k, prec))
        empty_power_table()
        results = {}

        def work(seed):
            order = random.Random(seed).sample(requests, len(requests))
            results[seed] = {(k, prec): repr(miller_basis(k, prec)) for k, prec in order}

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


def poly_from_roots(roots, poly=(1,)) -> list[int]:
    """poly times prod (q x - p) over the roots p/q, integer coefficients low to high."""
    for r in roots:
        out = [0] * (len(poly) + 1)
        for j, c in enumerate(poly):
            out[j] -= r.numerator * c
            out[j + 1] += r.denominator * c
        poly = out
    return poly


# `_real_roots` over T_2's characteristic polynomial at every even k = 12..60
# with d >= 1 and at k = 64, 72, 80, 96, 120, up to degree 10; the cells are
# computed in integers only, so the digest holds on every platform
_CELL_WEIGHTS = (*(k for k in range(12, 62, 2) if k != 14), 64, 72, 80, 96, 120)
_CELL_DIGEST = "026c72d6c46035d9ac0eb320b9184fa94ed4809e195c4108a64a05d2bfd38193"


class TestRootIsolation:
    def test_repeated_root_rejected(self):
        with pytest.raises(UnsupportedError, match="repeated"):
            _real_roots([2, -3, 0, 1])  # (x - 1)^2 (x + 2)

    def test_complex_roots_rejected(self):
        for poly in ([1, 0, 1], [-2, 0, 0, 1]):  # x^2 + 1, x^3 - 2
            with pytest.raises(UnsupportedError, match="complex"):
                _real_roots(poly)

    def test_roots_in_one_cell_rejected(self):
        # 2^-(B+2) and 2^-(B+1) share the cell (0, 2^-B], and so does the root of
        # p' between them: no sign change at its cell's end tells them from a double root
        with pytest.raises(UnsupportedError):
            _real_roots(poly_from_roots([Fraction(1, 2 ** (_ROOT_BITS + 2)),
                                         Fraction(1, 2 ** (_ROOT_BITS + 1))]))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.fractions(-100, 100, max_denominator=20), max_size=4),
           st.fractions(-100, 100, max_denominator=20),
           st.one_of(st.none(), st.fractions(-100, 100, max_denominator=20).filter(bool)))
    def test_complex_pair_or_double_root_rejected(self, roots, a, b):
        # b None: the double root a; otherwise the pair a +- b i, from (x - a)^2 + b^2
        if b is None:
            factor = poly_from_roots([a, a])
        else:
            den = (a.denominator * b.denominator) ** 2
            factor = [int(den * (a * a + b * b)), int(-2 * a * den), den]
        with pytest.raises(UnsupportedError):
            _real_roots(poly_from_roots(roots, factor))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
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

    def test_cells_match_the_recorded_digest(self):
        h = hashlib.sha256()
        for k in _CELL_WEIGHTS:
            h.update(f"{k} {' '.join(map(str, _real_roots(hecke_char_poly(k))))}\n".encode())
        assert h.hexdigest() == _CELL_DIGEST


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

    def test_coefficient_past_the_float_range_is_a_precision_error(self):
        # at k = 264 every form's |a_n| passes 2^1024 by n = 225: int / int overflows
        with pytest.raises(PrecisionError, match="float range"):
            eigenforms(264, 240)

    def test_returned_list_is_the_callers_own(self):
        forms = eigenforms(24, 60)
        expected = list(forms)
        forms.clear()
        forms2 = eigenforms(24, 60)
        assert forms2 == expected
        forms2[0] = None
        assert eigenforms(24, 60) == expected

    def test_one_basis_per_call(self, monkeypatch):
        calls = []
        build = qexpansion.miller_basis

        def counting(k, prec):
            calls.append((k, prec))
            return build(k, prec)

        monkeypatch.setattr(qexpansion, "miller_basis", counting)
        eigenforms(36, 50)
        assert calls == [(36, 51)]

    def test_weights_share_the_powers_of_delta_and_e6(self, monkeypatch):
        products = []
        mul = QExpansion.__mul__

        def counting(a, b):
            products.append((a.weight, b.weight))
            return mul(a, b)

        empty_power_table()
        eigenforms(28, 120)  # Delta, Delta^2 and E6^2 enter the table
        monkeypatch.setattr(QExpansion, "__mul__", counting)
        # k = 40 = 12 * 3 + 4 adds Delta^3 and E6^4 to the table, then takes
        # Delta^3 E4, Delta^2 E6^2 E4 and Delta E6^4 E4 in 5 products;
        # rebuilt from nothing each time, the basis took 14
        eigenforms(40, 120)
        assert len(products) <= 7
        products.clear()
        eigenforms(40, 120)
        assert len(products) <= 5
        # delta stays off the table: its 7 products do not depend on what came before
        products.clear()
        delta(8)
        assert len(products) == 7

    def test_spectral_weights_make_fourteen_products(self, monkeypatch):
        # k = 28, 36, 40 at 120 coefficients from an empty table: one fill of
        # 4 products, then Delta^2, Delta^3 and the rows Delta E6^2, Delta^2
        # E6^2, Delta E6^4, and 2 + 3 products with E4
        empty_power_table()

        def spectral():
            for k in (28, 36, 40):
                eigenforms(k, 120)

        assert count_products(monkeypatch, spectral) == 14

    def test_deligne_bound_holds_empirically(self):
        d = lambda n: sum(1 for e in range(1, n + 1) if n % e == 0)
        for f in eigenforms(24, 60):
            for n in range(1, 61):
                assert abs(f.coefficient(n)) <= 1.000001 * d(n) * n ** ((f.weight - 1) / 2)
