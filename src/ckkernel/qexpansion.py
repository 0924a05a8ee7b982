"""Exact truncated q-series arithmetic and Hecke eigenform extraction.

The q-series layer is integer-only: a `QExpansion` holds `int` coefficients
and refuses anything else, as every series the Miller basis is built from
is integral: E4, E6, Delta, and E_k0 for k0 = 4, 6, 8, 10, 14, the only
weights `eisenstein` builds, as there -2k/B_k is an integer.  The Hecke
matrices on that basis and their characteristic polynomials are integral
too.  The T_2 eigenvalues are bracketed between dyadic rationals, and
floating conversion happens only when the eigenform coefficients are
assembled, one rounding each.  Products truncate to the minimum precision
of their operands, never silently beyond it, and each is one integer
multiply of the Kronecker-substituted operands.  The divisor sums
sigma_{k-1}(n) of an Eisenstein series come from one divisor sieve.

Every weight's Miller basis takes its unreduced rows Delta^j E6^(2i) from
one process-wide table (`_miller_row`), one dict keyed (j, i), guarded by
one lock and kept at one precision, the table's.  Delta, at (1, 0), comes
from Jacobi's identity in three squarings, and E6^2, at (0, 1), is one
square; every other entry is made on demand from its neighbour, (j, i - 1)
times E6^2 or (j - 1, 0) times Delta, and is shared by the weights that
ask for it.  The table is rebuilt at twice its precision or more when a
larger one is asked for.  A smaller precision is answered by truncating,
which is exact, as a product's first n coefficients depend only on its
operands' first n; so every basis equals the one built afresh, whatever
came before it.  Keys and precisions are bounded by _MAX_COUNT (`errors`).
`delta` builds afresh on every call, from E4 and E6, so it checks the
table's Delta independently.

Each public builder checks its arguments before any work
(`errors._integer`): a weight, precision or Hecke index that is not an
integer in its range (nan and inf included), or a count past _MAX_COUNT,
raises `DomainError`, and an integral float gives the int's result.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass

from .errors import _MAX_COUNT, DomainError, PrecisionError, UnsupportedError, _integer

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
    """A truncated power series in q with integer coefficients.

    The weight is an even integer >= 0.  The coefficients are `int`, at
    least one, and the precision `prec` is their number; anything else (no
    coefficient, a rational, a float or a bool) raises `DomainError`, as
    every series the Miller basis needs is integral.  The only arithmetic
    is the product and `pow`; a product packs each operand into one integer
    and multiplies once (Kronecker substitution), so it costs one
    big-integer multiply.
    """

    weight: int
    coeffs: tuple[int, ...]  # coefficient of q^i at index i

    def __post_init__(self):
        object.__setattr__(self, "weight", _integer("weight", self.weight, 0, 2))
        if not self.coeffs or not {*map(type, self.coeffs)} <= {int}:
            raise DomainError("a q-expansion needs one or more int coefficients")

    @property
    def prec(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i]

    def __mul__(self, other: "QExpansion") -> "QExpansion":
        """The product, truncated to the smaller precision n, by Kronecker substitution.

        Both sides are packed into one integer each, b bits per coefficient;
        one integer multiply then gives every coefficient c_i of the product.
        For i < n, |c_i| <= n max|a| max|b|, so b is that bound's length plus
        a sign bit, rounded up to whole bytes, and adding 2^(b-1) to every
        slot makes the low n slots of the product non-negative and
        carry-free.  A square (`other is self`) packs its operand once.
        """
        n = min(self.prec, other.prec)
        a = self.coeffs[:n]
        b = a if other is self else other.coeffs[:n]
        weight = self.weight + other.weight
        bound = n * max(map(abs, a)) * max(map(abs, b))
        if not bound:
            return QExpansion(weight, (0,) * n)
        width = (bound.bit_length() + 8) // 8  # bytes per slot
        half = 1 << (8 * width - 1)
        bias = int.from_bytes(b"\x01".ljust(width, b"\0") * n, "little") << (8 * width - 1)

        def pack(cs: tuple[int, ...]) -> int:
            return int.from_bytes(
                b"".join((c + half).to_bytes(width, "little") for c in cs), "little"
            ) - bias

        packed = pack(a)
        product = packed * packed if other is self else packed * pack(b)
        size = width * n
        low = ((product + bias) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        out = [int.from_bytes(low[i : i + width], "little") - half for i in range(0, size, width)]
        return QExpansion(weight, tuple(out))

    def pow(self, e: int) -> "QExpansion":
        e = _integer("the exponent e", e, 0)
        result = QExpansion(0, (1,) + (0,) * (self.prec - 1))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result


@dataclass(frozen=True)
class Eigenform:
    """A normalized Hecke eigenform: weight, even and >= 12, plus Fourier
    coefficients a_1..a_N, each a finite int or float: nan, +-inf, an int
    past the float range or anything else, a bool included, raises
    `DomainError`."""

    weight: int
    a: tuple[float, ...]  # a[i] is a_{i+1}; a[0] == 1.0

    def __post_init__(self):
        object.__setattr__(self, "weight", _integer("weight", self.weight, 12, 2))
        if not self.a or self.a[0] != 1.0:
            raise DomainError("eigenform must be normalized with a_1 = 1")
        try:
            finite = {*map(type, self.a)} <= {int, float} and all(map(math.isfinite, self.a))
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise DomainError("each eigenform coefficient must be a finite int or float")

    def coefficient(self, n: int) -> float:
        """a_n for 1 <= n <= len(a)."""
        return self.a[_integer("n", n, 1, 1, len(self.a)) - 1]

    @property
    def n_coeffs(self) -> int:
        return len(self.a)


# -2k/B_k at the weights where it is an integer, those where dim M_k = 1
_EISENSTEIN_CONSTANT = {4: 240, 6: -504, 8: 480, 10: -264, 14: -24}


def eisenstein(k: int, prec: int) -> QExpansion:
    """E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n in integers, for k = 4, 6, 8, 10, 14.

    These are the weights where E_k spans M_k, the only ones where -2k/B_k
    is an integer, and the only ones `delta` and `miller_basis` use.  Every
    other weight raises `DomainError` before any work, as does a prec past
    _MAX_COUNT.
    """
    k, prec = _integer("k", k, 4, 2), _integer("prec", prec, 1, 1, _MAX_COUNT)
    c = _EISENSTEIN_CONSTANT.get(k)
    if c is None:
        raise DomainError("eisenstein builds only k = 4, 6, 8, 10, 14, where E_k spans M_k")
    sigma = [0] * prec  # sigma_{k-1}(n), by sieving every divisor d into its multiples
    for d in range(1, prec):
        p = d ** (k - 1)
        for m in range(d, prec, d):
            sigma[m] += p
    coeffs = [1] + [c * sigma[n] for n in range(1, prec)]
    return QExpansion(k, tuple(coeffs))


def delta(prec: int) -> QExpansion:
    """The discriminant cusp form (E4^3 - E6^2)/1728, weight 12, in integers,
    to prec <= _MAX_COUNT coefficients.

    Built afresh from the Eisenstein series on every call, the difference
    and the quotient in one pass; the Miller table builds its Delta by
    Jacobi's identity instead (`_jacobi_delta`).
    """
    prec = _integer("prec", prec, 1, 1, _MAX_COUNT)
    e4_cubed, e6_sq = eisenstein(4, prec).pow(3), eisenstein(6, prec).pow(2)
    return QExpansion(12, tuple((a - b) // 1728 for a, b in zip(e4_cubed.coeffs, e6_sq.coeffs)))


def _jacobi_delta(prec: int) -> QExpansion:
    """Delta to prec >= 1 coefficients, in three squarings.

    Delta = q prod (1 - q^n)^24 = q P^8, and by Jacobi's identity (a case of
    the triple product) P = prod (1 - q^n)^3 = sum_{n >= 0} (-1)^n (2n + 1)
    q^(n(n+1)/2), whose coefficients are small.  P, P^2, P^4 and P^8 are plain
    q-series, not forms of level 1, so they are carried as weight 0; only
    Delta is labelled weight 12.
    """
    size = max(prec - 1, 1)  # Delta's q^1..q^(prec-1) are P^8's first prec - 1
    p = [0] * size
    n = 0
    while n * (n + 1) // 2 < size:
        p[n * (n + 1) // 2] = (-1) ** n * (2 * n + 1)
        n += 1
    p8 = QExpansion(0, tuple(p))
    for _ in range(3):
        p8 = p8 * p8
    return QExpansion(12, (0, *p8.coeffs)[:prec])


# The table `miller_basis` shares across weights: Delta^j E6^(2i), keyed
# (j, i), all to one precision, Delta's.  Delta sits at (1, 0) and E6^2 at
# (0, 1); j + i = dim S_k < prec <= _MAX_COUNT bounds the keys.  `delta`
# stays off it.
_table: dict[tuple[int, int], QExpansion] = {}
_table_lock = threading.Lock()  # an entry is read and made, or the table refilled, as one step


def _miller_row(j: int, i: int, prec: int) -> QExpansion:
    """Delta^j E6^(2i) to prec coefficients, j >= 1 and i >= 0, from the shared table.

    The whole table holds one precision P.  A prec above P refills it at
    max(prec, min(2P, _MAX_COUNT)) with Delta, from `_jacobi_delta`, and
    E6^2, as one square, and drops every other entry, as the `bernoulli`
    table grows, so ascending requests rebuild it O(log prec) times.  The
    entry (j, i) is (j, i - 1) times E6^2 for i >= 1, and (j - 1, 0) times
    Delta for i = 0, so E6^4 and higher are never formed: the chain walks
    back from (j, i) to the first key kept, then multiplies forward, and
    each entry it makes is kept for every weight that asks for it.  A
    request is answered by truncating to prec, which is exact, as the first
    n coefficients of a product depend only on its operands' first n.  So
    every answer equals the product taken afresh.  The lock is taken once,
    and the whole chain runs under it.
    """
    with _table_lock:
        if not _table or _table[1, 0].prec < prec:
            size = max(prec, min(2 * _table[1, 0].prec, _MAX_COUNT) if _table else 0)
            e6 = eisenstein(6, size)
            _table.clear()
            _table[1, 0], _table[0, 1] = _jacobi_delta(size), e6 * e6
        chain = [(j, i)]
        while chain[-1] not in _table:
            a, b = chain[-1]
            chain.append((a, b - 1) if b else (a - 1, 0))
        f = _table[chain.pop()]
        for key in reversed(chain):
            f = _table[key] = f * _table[(0, 1) if key[1] else (1, 0)]
    return f if f.prec == prec else QExpansion(f.weight, f.coeffs[:prec])


def dim_cusp(k: int) -> int:
    """dim S_k(Gamma(1)) for even k >= 0, by the classical formula."""
    k = _integer("k", k, 0, 2)
    if k < 4:
        return 0
    dim_m = k // 12 + (0 if k % 12 == 2 else 1)
    return dim_m - 1


def miller_basis(k: int, prec: int) -> list[QExpansion]:
    """The Miller basis g_1..g_d of S_k: integer q-series with g_i = q^i + O(q^(d+1)).

    With k = 12d + k0, k0 in {0, 4, 6, 8, 10, 14}, each Delta^j E6^(2(d-j)) E_k0
    is q^j + O(q^(j+1)) with integer coefficients (E_0 = 1, and otherwise
    E_k0 = E4^b E6^a as dim M_k0 = 1); clearing the entries above the
    diagonal from the last row up keeps them integral.  The rows
    Delta^j E6^(2(d-j)) come from the table every weight shares
    (`_miller_row`), each the row below it in i times E6^2, and weights of the
    same d share them, so once Delta's powers and the rows of dimension d - 1
    are in it a basis costs at most one product per row, plus one with E_k0
    when k0 != 0.  Each clearing step g - c h is one pass over the
    coefficients.  `DomainError` past prec = _MAX_COUNT.
    """
    k, prec = _integer("k", k, 4, 2), _integer("prec", prec, 1, 1, _MAX_COUNT)
    d = dim_cusp(k)
    if d == 0:
        return []
    if prec <= d:
        raise PrecisionError(f"miller_basis needs prec > dim S_k = {d}, got {prec}")
    k0 = k - 12 * d
    e_k0 = eisenstein(k0, prec) if k0 else None
    rows = []
    for j in range(d, 0, -1):
        g = _miller_row(j, d - j, prec)
        if k0:
            g = g * e_k0
        for i, h in enumerate(rows):  # h = g_(d-i), already reduced
            c = g[d - i]
            if c:
                g = QExpansion(k, tuple(a - c * b for a, b in zip(g.coeffs, h.coeffs)))
        rows.append(g)
    return rows[::-1]


def _hecke_on_basis(basis: list[QExpansion], n: int) -> list[list[int]]:
    """The matrix of T_n on a non-empty Miller basis g_1..g_d; column i holds T_n g_i.

    By the echelon property T_n g_i = sum_j (T_n g_i)[j] g_j exactly, and in
    weight k the coefficient of q^j in T_n g is sum_{e | (n, j)} e^(k-1) g[n j / e^2],
    for j = 1..d.  A basis of precision n d + 1 holds every index read.
    """
    k = basis[0].weight
    rows = []
    for j in range(1, len(basis) + 1):
        m = math.gcd(n, j)
        terms = [(e ** (k - 1), n * j // (e * e)) for e in range(1, m + 1) if m % e == 0]
        rows.append([sum(c * g[i] for c, i in terms) for g in basis])
    return rows


def hecke_matrix(k: int, n: int) -> list[list[int]]:
    """The matrix of T_n on the Miller basis of S_k; column i holds T_n g_i.

    Exact integer entries, from the basis at the precision n d + 1 it needs,
    so n d + 1 must not pass _MAX_COUNT (n < _MAX_COUNT for d = 0).
    """
    d = dim_cusp(k)
    n = _integer("n", n, 2, 1, (_MAX_COUNT - 1) // max(d, 1))
    if d == 0:
        return []
    return _hecke_on_basis(miller_basis(k, n * d + 1), n)


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


def hecke_char_poly(k: int) -> list[int]:
    """Characteristic polynomial of T_2 on S_k, integer coefficients low to high."""
    return _char_poly(hecke_matrix(k, 2))[0] if dim_cusp(k) else [1]


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


def _real_roots(p: list[int]) -> list[int]:
    """Isolate the real roots of the integer polynomial p, which must all be real and simple.

    Points are integers on the grid x = m / 2^_ROOT_BITS.  Each returned c
    says that p has exactly one root in the cell ((c - 1) / 2^_ROOT_BITS,
    c / 2^_ROOT_BITS]; the list is ascending.  The points tried are -B and +B,
    B Fujiwara's bound on |root|, and between them the cells' right ends of
    the d - 1 roots of p' (d = deg p), isolated by this function in turn.  If
    p changes sign between each neighbouring pair, the intermediate value
    theorem puts a root in each of the d gaps, so exactly one, as p has at
    most d; each gap is then narrowed by `_refine`.  If p has d simple real
    roots, Rolle's theorem puts a root of p' strictly between each two, so p'
    has d - 1 simple real roots too, and by the Gauss-Lucas theorem they lie
    within p's bound.  Any missing sign change raises `UnsupportedError`: a
    repeated root, a complex one, or two roots (of p, or of p and p') within
    one cell.
    """
    d, lead = len(p) - 1, p[-1].bit_length()
    dp = [j * c for j, c in enumerate(p)][1:]
    # Fujiwara: every root has |z| < 2 max_i |c_(d-i) / c_d|^(1/i) < 2^(1 + max_i e_i)
    exps = [-((lead - 1 - p[d - i].bit_length()) // i) for i in range(1, d + 1) if p[d - i]]
    bound = 1 << (_ROOT_BITS + max([0, *exps]) + 1)
    points = [-bound, *(_real_roots(dp) if d > 1 else []), bound]
    hp = _homogenize(p, _ROOT_BITS)
    signs = [_horner(hp, x) for x in points]
    if any(u * v >= 0 for u, v in zip(signs, signs[1:])):
        raise UnsupportedError("a repeated or complex T_2 eigenvalue, "
                               f"or two roots closer than 2^-{_ROOT_BITS}")
    hdp = _homogenize(dp, _ROOT_BITS)
    return [_refine(hp, hdp, a, b) for a, b in zip(points, points[1:])]


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


def eigenforms(k: int, n_coeffs: int) -> list[Eigenform]:
    """All normalized Hecke eigenforms of weight k, with n_coeffs coefficients.

    Obtained by diagonalizing T_2 on the Miller basis in exact arithmetic:
    the real roots of its integer characteristic polynomial are isolated by
    its sign changes between the roots of its derivative (Rolle's theorem,
    `_real_roots`) and refined to cells of width 2^-200, each eigenvector is
    the exact adjugate column at its cell's dyadic midpoint, and each
    coefficient is one integer dot product with the exact basis, rounded once
    to the nearest float; `PrecisionError` if one leaves the float range.
    Forms are ordered by increasing a_2, the T_2 eigenvalue, in which the
    roots are isolated.  The basis takes max(n_coeffs + 1, 2 d + 1)
    coefficients, so n_coeffs stops at _MAX_COUNT - 1, and a weight whose
    2 d + 1 passes _MAX_COUNT raises `DomainError` from `miller_basis`.
    """
    k = _integer("k", k, 12, 2)
    n_coeffs = _integer("n_coeffs", n_coeffs, 1, 1, _MAX_COUNT - 1)
    d = dim_cusp(k)
    if d == 0:
        return []
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
        try:
            a = tuple(sum(map(operator.mul, w, col)) / w[0] for col in cols)  # int / int rounds once
        except OverflowError:
            raise PrecisionError(f"a coefficient of weight {k} leaves the float range") from None
        forms.append(Eigenform(k, a))
    return forms
