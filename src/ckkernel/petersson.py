"""Petersson inner products by quadrature over the fundamental domain.

The domain {|x| <= 1/2, |tau| >= 1} is split into the box
[-1/2, 1/2] x [1, y_cutoff] and the arc strip between |tau| = 1 and y = 1,
each handled by tensor-product Gauss-Legendre nodes.  The measure is the
unnormalized y^k dx dy / y^2; no volume factor is applied.

In this normalization the kernel coefficient of `kernel.r_k` satisfies

    r_k(n) = sum_f L*(f, k/2) a_f(n) / (16 Gamma(k/2) ||f||^2),

with L*(f, s) = (2 pi)^-s Gamma(s) L(f, s), the sum running over the
normalized Hecke eigenforms of weight k (Kohnen's identity, see
`triangle_check`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PrecisionError
from .kernel import r_k
from .lfunction import central_values
from .ntheory import ValueWithError
from .qexpansion import Eigenform
from .specfun import upper_incomplete_gamma

__all__ = [
    "QuadratureSpec",
    "default_spec",
    "petersson_inner",
    "petersson_norm_sq",
    "TriangleCheck",
    "triangle_check",
]

_MIN_Y = math.sqrt(3.0) / 2.0
_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and cusp-truncation height for fundamental-domain quadrature."""

    x_nodes: int = 40
    y_nodes: int = 48
    y_cutoff: float = 6.0

    def __post_init__(self):
        if self.x_nodes < 8 or self.y_nodes < 8:
            raise DomainError("x_nodes and y_nodes must be >= 8")
        if self.y_cutoff < 3.0:
            raise DomainError("y_cutoff must be >= 3")


def default_spec(k: int) -> QuadratureSpec:
    """A spec whose cutoff pushes the y^(k-2) e^(-4 pi y) tail below ~1e-10."""
    return QuadratureSpec(x_nodes=40, y_nodes=48, y_cutoff=max(6.0, 0.35 * k))


def _series_truncation(f: Eigenform, y: float) -> float:
    """Bound on |sum_{n > N} a_n q^n| at height y, via Deligne's bound
    |a_n| <= d(n) n^((k-1)/2) <= n^((k+1)/2) for the normalized eigenform f."""
    k = f.weight
    n0 = f.n_coeffs + 1
    log_t0 = ((k + 1) / 2) * math.log(n0) - 2.0 * math.pi * y * n0
    ratio = ((n0 + 1) / n0) ** ((k + 1) / 2) * math.exp(-2.0 * math.pi * y)
    if ratio >= 1.0:
        raise PrecisionError("q-series does not decay at the requested height")
    t0 = math.exp(log_t0) if log_t0 > -745 else 0.0
    return t0 / (1.0 - ratio)


def _eval_grid(f: Eigenform, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f(x + iy) and sum_n |a_n| |q|^n on matching-shape arrays, by Horner summation."""
    q = np.exp(2j * np.pi * x - 2.0 * np.pi * y)
    r = np.abs(q)
    acc = np.full(q.shape, f.a[-1], dtype=complex)
    acc_abs = np.full(r.shape, abs(f.a[-1]))
    for n in range(f.n_coeffs - 1, 0, -1):
        acc = acc * q + f.a[n - 1]
        acc_abs = acc_abs * r + abs(f.a[n - 1])
    return acc * q, acc_abs * r


def _integrand(
    f: Eigenform, g: Eigenform, k: int, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """f conj(g) y^(k-2) at the nodes, and its majorant F_abs G_abs y^(k-2)."""
    fv, fa = _eval_grid(f, x, y)
    gv, ga = (fv, fa) if g is f else _eval_grid(g, x, y)
    yk = y ** (k - 2)
    return fv * np.conj(gv) * yk, fa * ga * yk


@functools.lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], built once per n.

    The arrays are read-only, so no caller can alter the memoized rule.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _quadrature_value(
    f: Eigenform, g: Eigenform, k: int, spec: QuadratureSpec
) -> tuple[complex, float]:
    """The quadrature sum, and sum_nodes w F_abs G_abs y^(k-2) for its rounding bound."""
    xn, xw = _gauss_legendre(spec.x_nodes)
    yn, yw = _gauss_legendre(spec.y_nodes)
    xs = 0.5 * xn  # [-1/2, 1/2]
    xws = 0.5 * xw

    # box [-1/2, 1/2] x [1, y_cutoff]
    half = 0.5 * (spec.y_cutoff - 1.0)
    ys = 1.0 + half * (yn + 1.0)
    yws = half * yw
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    vals, mags = _integrand(f, g, k, gx, gy)
    box = np.einsum("i,j,ij->", xws, yws, vals)
    box_abs = np.einsum("i,j,ij->", xws, yws, mags)

    # arc strip: y from sqrt(1 - x^2) to 1, per x node
    lo = np.sqrt(1.0 - xs**2)
    halfs = 0.5 * (1.0 - lo)  # (nx,)
    ya = lo[:, None] + halfs[:, None] * (yn[None, :] + 1.0)  # (nx, ny)
    wa = halfs[:, None] * yw[None, :]
    xa = np.broadcast_to(xs[:, None], ya.shape)
    vals, mags = _integrand(f, g, k, xa, ya)
    arc = np.einsum("i,ij,ij->", xws, wa, vals)
    arc_abs = np.einsum("i,ij,ij->", xws, wa, mags)
    return box + arc, float(box_abs + arc_abs)


def _rounding_bound(f: Eigenform, g: Eigenform, spec: QuadratureSpec, mass: float) -> float:
    """Bound on the float rounding of one quadrature sum, mass = sum w F_abs G_abs y^(k-2).

    The node arguments carry an absolute error of at most (4 pi y + 2 pi) u,
    so |q| is off by a relative (4 pi y + 10) u after exp; a Horner step
    adds at most (sqrt 5 + 1) u < 6 u relative to the absolute series.  The
    term a_n q^n passes through n of each, so |f - fl(f)| is at most
    n_coeffs (4 pi y_cutoff + 16) u F_abs, likewise for g.  The product with
    y^(k-2) and the weights adds 10 u, and summing the 2 x_nodes y_nodes
    nonnegative-weight terms at most one u per node.
    """
    per_term = (f.n_coeffs + g.n_coeffs) * (4.0 * math.pi * spec.y_cutoff + 16.0) + 10.0
    return (2 * spec.x_nodes * spec.y_nodes + per_term) * _EPS * mass


def _cusp_tail(f: Eigenform, g: Eigenform, k: int, y0: float) -> float:
    """Certified bound on the integral above y = y0."""
    sf = sum(abs(a) * math.exp(-2.0 * math.pi * (n - 1) * y0) for n, a in enumerate(f.a, 1))
    sg = sum(abs(a) * math.exp(-2.0 * math.pi * (n - 1) * y0) for n, a in enumerate(g.a, 1))
    gi = upper_incomplete_gamma(k - 1, 4.0 * math.pi * y0)
    return sf * sg * (4.0 * math.pi) ** (1 - k) * (gi.value + gi.abs_err)


def petersson_inner(
    f: Eigenform, g: Eigenform, spec: QuadratureSpec | None = None
) -> ValueWithError:
    """(f, g) over the fundamental domain, unnormalized measure."""
    if f.weight != g.weight:
        raise DomainError("inner product requires equal weights")
    k = f.weight
    spec = spec or default_spec(k)

    trunc_f = _series_truncation(f, _MIN_Y)
    trunc_g = _series_truncation(g, _MIN_Y)
    fmax = sum(abs(a) * math.exp(-2.0 * math.pi * n * _MIN_Y) for n, a in enumerate(f.a, 1))
    gmax = sum(abs(a) * math.exp(-2.0 * math.pi * n * _MIN_Y) for n, a in enumerate(g.a, 1))
    if trunc_f > 1e-12 * max(1.0, fmax) or trunc_g > 1e-12 * max(1.0, gmax):
        raise PrecisionError("not enough coefficients for the q-decay requirement")
    # area of F below the cutoff is < 1; y^(k-2) peaks inside the box
    trunc_err = (trunc_f * gmax + trunc_g * fmax + trunc_f * trunc_g) * (
        spec.y_cutoff ** (k - 2) + 1.0
    )

    full, full_mass = _quadrature_value(f, g, k, spec)
    coarse_spec = QuadratureSpec(
        x_nodes=max(8, (2 * spec.x_nodes) // 3),
        y_nodes=max(8, (2 * spec.y_nodes) // 3),
        y_cutoff=spec.y_cutoff,
    )
    coarse, coarse_mass = _quadrature_value(f, g, k, coarse_spec)
    # estimate: the exact full-grid sum is within 2 |full - coarse| of the integral
    quad_err = 2.0 * float(abs(full - coarse))
    # the float sums are off from the exact ones by at most r_full and r_coarse:
    # once in the value itself, twice each through the estimate above
    r_full = _rounding_bound(f, g, spec, full_mass)
    r_coarse = _rounding_bound(f, g, coarse_spec, coarse_mass)
    rounding = 3.0 * r_full + 2.0 * r_coarse

    tail = _cusp_tail(f, g, k, spec.y_cutoff)
    value = float(full.real)
    err = quad_err + rounding + tail + trunc_err + float(abs(full.imag))
    return ValueWithError(value, err)


def petersson_norm_sq(f: Eigenform, spec: QuadratureSpec | None = None) -> ValueWithError:
    """The squared Petersson norm of f."""
    return petersson_inner(f, f, spec)


@dataclass(frozen=True)
class TriangleCheck:
    """Kernel coefficient vs. spectral sum for r_k(1), with their ratio."""

    k: int
    lhs: ValueWithError  # r_k(1) from the kernel series
    rhs: ValueWithError  # sum_f L*(f, k/2) / (16 Gamma(k/2) ||f||^2), Kohnen's identity at n = 1
    ratio: float


def triangle_check(k: int, eps: float = 1e-10, spec: QuadratureSpec | None = None) -> TriangleCheck:
    """Compare r_k(1) against the spectral sum that Kohnen's identity equates it to.

    Kohnen (J. Number Theory 67 (1997), after Cohen 1981) states, for the
    normalized Hecke eigenforms f of weight k and this module's Petersson
    norm,

        2 (2 pi)^(k/2) Gamma(k/2) n^(k/2-1) rho_k(n)
            = c_k sum_f L*(f, k/2) a_f(n) / ||f||^2,
        c_k = (-1)^(k/2) pi (k-2)! / 2^(k-2),  L*(f, s) = (2 pi)^-s Gamma(s) L(f, s).

    With r_k(n) = (8 pi)^(k/2-1) n^(k/2-1) rho_k(n) / (4 (k-2)!) and
    (-1)^(k/2) = 1 for k ≡ 0 (mod 4), the powers of 2 and pi cancel to

        r_k(n) = sum_f L*(f, k/2) a_f(n) / (16 Gamma(k/2) ||f||^2),

    and at n = 1, where a_f(1) = 1 and L*(f, k/2) / Gamma(k/2) =
    (2 pi)^(-k/2) L(f, k/2), the right side is
    sum_f L(f, k/2) / ||f||^2 / (16 (2 pi)^(k/2)).  Both sides are carried
    with explicit error bounds.  The ratio is reported as measured; no
    constant is fitted to it.
    """
    if k % 4 != 0 or not (12 <= k <= 28):
        raise DomainError(f"triangle_check covers k ≡ 0 (mod 4), 12 <= k <= 28, got {k}")
    lhs = r_k(k, 1, eps).value
    scale = 1.0 / (16.0 * (2.0 * math.pi) ** (k / 2))
    rhs_val = 0.0
    rhs_err = 0.0
    for f, lv in central_values(k, eps):
        norm = petersson_norm_sq(f, spec)
        rhs_val += scale * lv.value / norm.value
        rhs_err += scale * (
            lv.abs_err / abs(norm.value)
            + abs(lv.value) * norm.abs_err / norm.value**2
        )
    rhs = ValueWithError(rhs_val, rhs_err + 4 * _EPS * abs(rhs_val))
    return TriangleCheck(k=k, lhs=lhs, rhs=rhs, ratio=lhs.value / rhs.value)
