"""Exact truncated q-series arithmetic and Hecke eigenform extraction.

E4, E6, Delta and the Miller basis carry integer coefficients, and the
Hecke matrices on that basis and their characteristic polynomials integer
entries.  `Fraction` appears only in an Eisenstein series whose constant
-2k/B_k is not an integer (E12 and up).  The T_2 eigenvalues are bracketed
between dyadic rationals, and floating conversion happens only when the
eigenform coefficients are assembled, one rounding each.  Products
truncate to the minimum precision of their operands, never silently
beyond it, and each is one integer multiply of the Kronecker-substituted
operands.  The divisor sums sigma_{k-1}(n) of an Eisenstein series come
from one divisor sieve.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, PrecisionError, UnsupportedError
from .ntheory import bernoulli

__all__ = [
    "QExpansion",
    "Eigenform",
    "eisenstein",
    "delta",
    "dim_cusp",
    "miller_basis",
    "hecke_matrix",
    "eigenforms",
]


@dataclass(frozen=True)
class QExpansion:
    """A truncated power series in q with exact coefficients.

    The coefficients are `int`, or `Fraction` where a value is not integral.
    A product packs each operand into one integer and multiplies once
    (Kronecker substitution), so it costs one big-integer multiply.
    """

    weight: int
    prec: int
    coeffs: tuple[int | Fraction, ...]  # coefficient of q^i at index i

    def __post_init__(self):
        if self.prec < 1 or len(self.coeffs) != self.prec:
            raise ValueError("coeffs length must equal prec >= 1")

    def __getitem__(self, i: int) -> int | Fraction:
        return self.coeffs[i]

    def __add__(self, other: "QExpansion") -> "QExpansion":
        if self.weight != other.weight:
            raise DomainError("cannot add q-expansions of different weights")
        n = min(self.prec, other.prec)
        return QExpansion(
            self.weight, n, tuple(self.coeffs[i] + other.coeffs[i] for i in range(n))
        )

    def __sub__(self, other: "QExpansion") -> "QExpansion":
        return self + other.scale(-1)

    def scale(self, c) -> "QExpansion":
        return QExpansion(self.weight, self.prec, tuple(c * a for a in self.coeffs))

    def __mul__(self, other: "QExpansion") -> "QExpansion":
        """The product, truncated to the smaller precision n, by Kronecker substitution.

        Both sides are cleared of denominators and packed into one integer
        each, b bits per coefficient; one integer multiply then gives every
        coefficient c_i of the integer product.  For i < n,
        |c_i| <= n max|a| max|b|, so b is that bound's length plus a sign bit,
        rounded up to whole bytes, and adding 2^(b-1) to every slot makes the
        low n slots of the product non-negative and carry-free.
        """
        n = min(self.prec, other.prec)
        den_a = math.lcm(*(c.denominator for c in self.coeffs[:n]))
        den_b = math.lcm(*(c.denominator for c in other.coeffs[:n]))
        a = [c.numerator * (den_a // c.denominator) for c in self.coeffs[:n]]
        b = [c.numerator * (den_b // c.denominator) for c in other.coeffs[:n]]
        weight = self.weight + other.weight
        bound = n * max(map(abs, a)) * max(map(abs, b))
        if not bound:
            return QExpansion(weight, n, (0,) * n)
        width = (bound.bit_length() + 8) // 8  # bytes per slot
        half = 1 << (8 * width - 1)
        bias = int.from_bytes(b"\x01".ljust(width, b"\0") * n, "little") << (8 * width - 1)

        def pack(cs: list[int]) -> int:
            return int.from_bytes(
                b"".join((c + half).to_bytes(width, "little") for c in cs), "little"
            ) - bias

        size = width * n
        low = ((pack(a) * pack(b) + bias) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        out = [int.from_bytes(low[i : i + width], "little") - half for i in range(0, size, width)]
        den = den_a * den_b
        if den != 1:
            out = [c // den if c % den == 0 else Fraction(c, den) for c in out]
        return QExpansion(weight, n, tuple(out))

    def pow(self, e: int) -> "QExpansion":
        if e < 0:
            raise DomainError("negative powers are not supported")
        result = QExpansion(0, self.prec, (1,) + (0,) * (self.prec - 1))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result


@dataclass(frozen=True)
class Eigenform:
    """A normalized Hecke eigenform: weight plus Fourier coefficients a_1..a_N."""

    weight: int
    a: tuple[float, ...]  # a[i] is a_{i+1}; a[0] == 1.0

    def __post_init__(self):
        if not self.a or self.a[0] != 1.0:
            raise ValueError("eigenform must be normalized with a_1 = 1")

    def coefficient(self, n: int) -> float:
        """a_n for 1 <= n <= len(a)."""
        return self.a[n - 1]

    @property
    def n_coeffs(self) -> int:
        return len(self.a)


def eisenstein(k: int, prec: int) -> QExpansion:
    """E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n, exact.

    The coefficients are `int` when -2k/B_k is an integer (k = 4, 6, 8, 10, 14).
    """
    if k < 4 or k % 2:
        raise DomainError(f"eisenstein requires even k >= 4, got {k}")
    if prec < 1:
        raise DomainError("prec must be >= 1")
    c = Fraction(-2 * k) / bernoulli(k)
    if c.denominator == 1:
        c = c.numerator
    sigma = [0] * prec  # sigma_{k-1}(n), by sieving every divisor d into its multiples
    for d in range(1, prec):
        p = d ** (k - 1)
        for m in range(d, prec, d):
            sigma[m] += p
    coeffs = [1] + [c * sigma[n] for n in range(1, prec)]
    return QExpansion(k, prec, tuple(coeffs))


def delta(prec: int) -> QExpansion:
    """The discriminant cusp form (E4^3 - E6^2)/1728, weight 12, in integers."""
    if prec < 1:
        raise DomainError("prec must be >= 1")
    e4 = eisenstein(4, prec)
    e6 = eisenstein(6, prec)
    diff = e4.pow(3) - e6.pow(2)
    return QExpansion(12, prec, tuple(c // 1728 for c in diff.coeffs))


def dim_cusp(k: int) -> int:
    """dim S_k(Gamma(1)) for even k >= 0, by the classical formula."""
    if k < 0 or k % 2:
        raise DomainError(f"dim_cusp requires even k >= 0, got {k}")
    if k < 4:
        return 0
    dim_m = k // 12 + (0 if k % 12 == 2 else 1)
    return dim_m - 1


def miller_basis(k: int, prec: int) -> list[QExpansion]:
    """The Miller basis g_1..g_d of S_k: integer q-series with g_i = q^i + O(q^(d+1)).

    With k = 12d + k0, k0 in {0, 4, 6, 8, 10, 14}, each Delta^j E6^(2(d-j)) E_k0
    is q^j + O(q^(j+1)) with integer coefficients (E_0 = 1, and otherwise
    E_k0 = E4^b E6^a as dim M_k0 = 1); clearing the entries above the
    diagonal from the last row up keeps them integral.
    """
    if k < 4 or k % 2:
        raise DomainError(f"miller_basis requires even k >= 4, got {k}")
    d = dim_cusp(k)
    if d == 0:
        return []
    if prec <= d:
        raise PrecisionError(f"miller_basis needs prec > dim S_k = {d}, got {prec}")
    k0 = k - 12 * d
    dl = delta(prec)
    e6 = eisenstein(6, prec)
    e6_sq = e6 * e6
    right = eisenstein(k0, prec) if k0 else e6_sq.pow(0)  # E6^(2(d-j)) E_k0
    dl_pows = [dl]
    while len(dl_pows) < d:
        dl_pows.append(dl_pows[-1] * dl)
    rows = []
    for j in range(d, 0, -1):
        g = right * dl_pows[j - 1]
        for i, h in enumerate(rows):  # h = g_(d-i), already reduced
            if g[d - i]:
                g = g - h.scale(g[d - i])
        rows.append(g)
        if j > 1:
            right = right * e6_sq
    return rows[::-1]


def hecke_coefficients(f: QExpansion, n: int, out_prec: int) -> list[int | Fraction]:
    """Coefficients 0..out_prec-1 of T_n f, weight-k level-1 action."""
    k = f.weight
    out = [0] * out_prec
    for m in range(1, out_prec):
        acc = 0
        for d in range(1, math.gcd(n, m) + 1):
            if n % d or m % d:
                continue
            idx = n * m // (d * d)
            if idx >= f.prec:
                raise PrecisionError(
                    f"T_{n} needs coefficient {idx} but prec is only {f.prec}"
                )
            acc += d ** (k - 1) * f.coeffs[idx]
        out[m] = acc
    return out


def _hecke_on_basis(basis: list[QExpansion], n: int) -> list[list[int]]:
    """The matrix of T_n on a Miller basis; column i holds T_n g_i.

    By the echelon property T_n g_i = sum_j (T_n g_i)[j] g_j exactly.
    """
    d = len(basis)
    cols = [hecke_coefficients(g, n, d + 1)[1:] for g in basis]
    return [list(row) for row in zip(*cols)]


def hecke_matrix(k: int, n: int, prec: int | None = None) -> list[list[int]]:
    """The matrix of T_n on the Miller basis of S_k; column i holds T_n g_i.

    Exact integer entries.  prec defaults to the minimum n*d + 1 the
    computation needs and is rejected when too small.
    """
    if n < 2:
        raise DomainError("hecke_matrix requires n >= 2")
    d = dim_cusp(k)
    if d == 0:
        return []
    needed = n * d + 1
    if prec is None:
        prec = needed
    if prec < needed:
        raise PrecisionError(f"hecke_matrix(k={k}, n={n}) needs prec >= {needed}")
    return _hecke_on_basis(miller_basis(k, prec), n)


def _char_poly(mat: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """det(xI - A) and the first column of adj(xI - A), by Faddeev-LeVerrier.

    With M_1 = I, c_(d-i) = -tr(A M_i) / i and M_(i+1) = A M_i + c_(d-i) I,
    det(xI - A) = sum_j c_j x^j (c_d = 1) and adj(xI - A) = sum_i M_i x^(d-i).
    For integer A every M_i and c_j is an integer, so each division is exact.
    Returned: [c_0, ..., c_d], and for each row r the first-column entry of
    that row of the adjugate as a polynomial in x, coefficients low to high.
    """
    d = len(mat)
    coeffs = [0] * d + [1]
    m_prev = [[int(i == j) for j in range(d)] for i in range(d)]
    adj_col = [[] for _ in range(d)]  # high to low while built
    for i in range(1, d + 1):
        for r in range(d):
            adj_col[r].append(m_prev[r][0])
        am = [
            [sum(mat[r][t] * m_prev[t][c] for t in range(d)) for c in range(d)]
            for r in range(d)
        ]
        c = -sum(am[r][r] for r in range(d)) // i
        coeffs[d - i] = c
        m_prev = [[am[r][cc] + (c if r == cc else 0) for cc in range(d)] for r in range(d)]
    return coeffs, [col[::-1] for col in adj_col]


def hecke_char_poly(k: int, n: int = 2) -> list[int]:
    """Characteristic polynomial of T_n on S_k, integer coefficients low to high."""
    return _char_poly(hecke_matrix(k, n))[0] if dim_cusp(k) else [1]


# Each T_2 eigenvalue is bracketed in a cell of width 2^-_ROOT_BITS and used at
# the cell's midpoint, within 2^-201 of it.  200 bits match the 60 significant
# digits (199 bits) of the mpmath computation kept as the tests' oracle.  For
# every even k = 12..60 at 60 and 120 coefficients and k = 64, 72, 80, 96, 120
# at 40, cells of 2^-60 already give the same floats: a margin of 140 bits.
_ROOT_BITS = 200


def _homogenize(q: list[int], bits: int) -> list[int]:
    """q(m / 2^bits) 2^(bits deg q) as a polynomial in m with integer coefficients."""
    return [c << (bits * (len(q) - 1 - j)) for j, c in enumerate(q)]


def _horner(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """The Sturm sequence of p (coefficients low to high) in primitive integers.

    p_0 = p, p_1 = p' and p_{i+1} = -rem(p_{i-1}, p_i); every remainder is
    scaled by a positive rational, which keeps every sign the theorem counts.
    The last entry is gcd(p, p') up to such a factor.
    """
    chain = [p, [j * c for j, c in enumerate(p)][1:]]
    while len(chain[-1]) > 1:
        r, b = chain[-2], chain[-1]
        lead, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
        while len(r) >= len(b):  # pseudo-division, multiplying r by |lead| only
            top, shift = sign * r[-1], len(r) - len(b)
            r = [lead * c for c in r]
            for j, c in enumerate(b):
                r[shift + j] -= top * c
            while r and not r[-1]:
                r.pop()
        if not r:
            break
        g = math.gcd(*r)
        chain.append([-c // g for c in r])
    return chain


def _real_roots(p: list[int]) -> list[int]:
    """Isolate the real roots of the integer polynomial p, which must all be real and simple.

    Points are integers on the grid x = m / 2^_ROOT_BITS.  Each returned c
    says that p has exactly one root in the cell ((c - 1) / 2^_ROOT_BITS,
    c / 2^_ROOT_BITS]; the list is ascending.  Sturm's theorem counts the
    distinct roots in (a, b] as V(a) - V(b), V the number of sign changes of
    the sequence with zeros dropped, so both checks are exact: a non-constant
    gcd(p, p') means a repeated root, and fewer than deg p roots in a box
    holding every root (Fujiwara's bound) means a complex one.
    """
    chain = _sturm_chain(p)
    if len(chain[-1]) > 1:
        raise UnsupportedError("repeated T_2 eigenvalues are not supported")
    homog = [_homogenize(q, _ROOT_BITS) for q in chain]

    def changes(m: int) -> int:
        signs = [v > 0 for v in (_horner(q, m) for q in homog) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    # Fujiwara: every root has |z| < 2 max_i |c_(d-i) / c_d|^(1/i) < 2^(1 + max_i e_i)
    d, lead = len(p) - 1, p[-1].bit_length()
    exps = [-((lead - 1 - p[d - i].bit_length()) // i) for i in range(1, d + 1) if p[d - i]]
    bound = 1 << (_ROOT_BITS + max([0, *exps]) + 1)
    stack = [(-bound, changes(-bound), bound, changes(bound))]
    if stack[0][1] - stack[0][3] < d:
        raise UnsupportedError("complex T_2 eigenvalue encountered")
    cells = []
    while stack:
        a, va, b, vb = stack.pop()
        if va - vb == 1:
            cells.append(_refine(homog[0], homog[1], a, b))
        elif va - vb > 1:
            if b - a == 1:
                raise PrecisionError(f"two roots closer than 2^-{_ROOT_BITS}")
            m = (a + b) // 2
            vm = changes(m)
            stack += [(a, va, m, vm), (m, vm, b, vb)]
    return sorted(cells)


def _refine(hp: list[int], hdp: list[int], a: int, b: int) -> int:
    """The grid cell (c - 1, c] holding the one root of p in (a, b].

    hp and hdp are p and p' in the homogenized form of `_real_roots`, so
    hp(x) / hdp(x) is the Newton step in grid units.  Every evaluated point is
    classified by the sign of p, which is that of p(b) to the right of the
    root and the opposite to its left, so the bracket (a, b] stays sound
    whatever point is tried.  Newton steps are taken while they stay inside
    and at least halve; otherwise the bracket is bisected.
    """
    up = _horner(hp, b)
    if not up:
        return b
    up = up > 0
    x, step = (a + b) // 2, b - a
    while b - a > 1:
        v = _horner(hp, x)
        if not v or (v > 0) == up:
            b = x
        else:
            a = x
        dv = _horner(hdp, x)
        s = (2 * v + dv) // (2 * dv) if dv else step  # round(v / dv)
        if not s:  # Newton has converged: try the adjacent cell on the root's side
            x = x + 1 if x == a else x - 1
        elif 2 * abs(s) < step and a < x - s < b:
            x, step = x - s, abs(s)
        else:
            x, step = (a + b) // 2, b - a
    return b


def eigenforms(k: int, n_coeffs: int = 60) -> list[Eigenform]:
    """All normalized Hecke eigenforms of weight k, with n_coeffs coefficients.

    Obtained by diagonalizing T_2 on the Miller basis in exact arithmetic:
    the real roots of its integer characteristic polynomial are isolated by a
    Sturm sequence and refined to cells of width 2^-200, each eigenvector is
    the exact adjugate column at its cell's dyadic midpoint, and each
    coefficient is one integer dot product with the exact basis, rounded once
    to the nearest float.  Forms are ordered by increasing a_2, the T_2
    eigenvalue, in which the roots are isolated.  The forms of the last few
    (k, n_coeffs) are kept, so a repeated call builds no basis.
    """
    return list(_eigenforms(k, n_coeffs))


@functools.lru_cache(maxsize=32)
def _eigenforms(k: int, n_coeffs: int) -> tuple[Eigenform, ...]:
    if k < 12 or k % 2:
        raise DomainError(f"eigenforms requires even k >= 12, got {k}")
    if n_coeffs < 1:
        raise DomainError(f"eigenforms requires n_coeffs >= 1, got {n_coeffs}")
    d = dim_cusp(k)
    if d == 0:
        return ()
    prec = max(n_coeffs + 1, 2 * d + 1)
    basis = miller_basis(k, prec)
    poly, adj_col = _char_poly(_hecke_on_basis(basis, 2))
    # The first column w of adj(lam I - T_2) satisfies rows 2..d of
    # (T_2 - lam) w = 0, so at an eigenvalue it is the eigenvector.  It is taken
    # at the cell's midpoint lam = m / 2^(_ROOT_BITS+1), scaled to integers;
    # w_1 = det(lam I - B), B the lower (d-1)x(d-1) block of T_2, is non-zero
    # there, since a monic integer polynomial has no root in Q \ Z.  Dividing
    # by w_1 normalizes a_1 to 1.
    adj_col = [_homogenize(q, _ROOT_BITS + 1) for q in adj_col]
    cols = list(zip(*(g.coeffs[1 : n_coeffs + 1] for g in basis)))
    forms = []
    for c in _real_roots(poly):
        w = [_horner(q, 2 * c - 1) for q in adj_col]
        a = tuple(sum(map(operator.mul, w, col)) / w[0] for col in cols)  # int / int rounds once
        forms.append(Eigenform(k, a))
    return tuple(forms)
