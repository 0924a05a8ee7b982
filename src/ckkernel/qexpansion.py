"""Exact truncated q-series arithmetic and Hecke eigenform extraction.

E4, E6, Delta and the Miller basis carry integer coefficients, and the
Hecke matrices on that basis integer entries.  `Fraction` appears only in
an Eisenstein series whose constant -2k/B_k is not an integer (E12 and up)
and in the characteristic polynomial.  Floating conversion happens only
when eigenforms are assembled at the end.  Products truncate to the minimum
precision of their operands, never silently beyond it, and each is one
integer multiply of the Kronecker-substituted operands.  The divisor sums
sigma_{k-1}(n) of an Eisenstein series come from one divisor sieve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

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

    def is_cusp(self) -> bool:
        return self.coeffs[0] == 0


@dataclass(frozen=True)
class Eigenform:
    """A normalized Hecke eigenform: weight plus Fourier coefficients a_1..a_N."""

    weight: int
    a: tuple[float, ...]  # a[i] is a_{i+1}; a[0] == 1.0
    coefficient_field_degree: int

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


def _char_poly(mat: list[list[int]]) -> list[Fraction]:
    """Characteristic polynomial det(xI - A), monic, by Faddeev-LeVerrier.

    Returned as coefficients [c_0, ..., c_d] with c_d = 1.
    """
    d = len(mat)
    ident = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    coeffs = [Fraction(0)] * (d + 1)
    coeffs[d] = Fraction(1)
    m_prev = [row[:] for row in ident]
    for i in range(1, d + 1):
        am = [
            [sum(mat[r][t] * m_prev[t][c] for t in range(d)) for c in range(d)]
            for r in range(d)
        ]
        tr = sum(am[r][r] for r in range(d))
        c = -tr / i
        coeffs[d - i] = c
        m_prev = [[am[r][cc] + (c if r == cc else 0) for cc in range(d)] for r in range(d)]
    return coeffs


def hecke_char_poly(k: int, n: int = 2) -> list[Fraction]:
    """Characteristic polynomial of T_n on S_k, coefficients low to high."""
    return _char_poly(hecke_matrix(k, n)) if dim_cusp(k) else [Fraction(1)]


def eigenforms(k: int, n_coeffs: int = 60) -> list[Eigenform]:
    """All normalized Hecke eigenforms of weight k, with n_coeffs coefficients.

    Obtained by diagonalizing T_2 on the Miller basis; eigenvalue roots are
    extracted in high-precision reals and the eigen-combination is read off
    the exact basis.  Forms are ordered by increasing a_2.  The forms of the
    last few (k, n_coeffs) are kept, so a repeated call builds no basis.
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
    if d == 1:
        g = basis[0]
        return (Eigenform(k, tuple(float(g.coeffs[n]) for n in range(1, n_coeffs + 1)), 1),)
    t2 = _hecke_on_basis(basis, 2)
    poly = _char_poly(t2)

    with mp.workdps(60):
        roots = mp.polyroots([mp.mpf(c.numerator) / c.denominator for c in reversed(poly)],
                             maxsteps=200, extraprec=120)
        roots = sorted(roots, key=lambda r: mp.re(r))
        scale = max(abs(r) for r in roots) + 1
        for r in roots:
            if abs(mp.im(r)) > 1e-30 * scale:
                raise UnsupportedError("complex T_2 eigenvalue encountered")
        roots = [mp.re(r) for r in roots]
        for i in range(1, d):
            if abs(roots[i] - roots[i - 1]) < 1e-20 * scale:
                raise UnsupportedError("repeated T_2 eigenvalues are not supported")

        forms = []
        for lam in roots:
            # Solve (T2 - lam) w = 0 with w_1 = 1: rows 2..d determine w_2..w_d,
            # since a_1 of sum w_i g_i is w_1 by the echelon property.
            sub = mp.matrix(d - 1, d - 1)
            rhs = mp.matrix(d - 1, 1)
            for r in range(1, d):
                for c in range(1, d):
                    sub[r - 1, c - 1] = mp.mpf(t2[r][c]) - (lam if r == c else 0)
                rhs[r - 1] = -mp.mpf(t2[r][0])
            w = mp.lu_solve(sub, rhs)
            weights = [mp.mpf(1)] + [w[i] for i in range(d - 1)]
            a = []
            for n in range(1, n_coeffs + 1):
                acc = mp.mpf(0)
                for i, g in enumerate(basis):
                    c = g.coeffs[n]
                    if c:
                        acc += weights[i] * mp.mpf(c)
                a.append(float(acc))
            forms.append(Eigenform(k, tuple(a), d))
    forms.sort(key=lambda f: f.coefficient(2))
    return tuple(forms)
