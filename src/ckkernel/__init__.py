"""Certified non-vanishing of central Hecke L-values.

For weights k ≡ 0 (mod 4), k >= 12, the first Fourier coefficient r_k(1)
of the Cohen-Kohnen kernel is evaluated with a certified truncation error
and shown to be nonzero, which forces L(f, k/2) != 0 for at least one
Hecke eigenform f of weight k.  Independent cross-validation goes through
exact q-expansion arithmetic, central L-values, and Petersson quadrature.
"""

from .errors import DomainError, PrecisionError, UnsupportedError
from .kernel import Certificate, KernelCoefficient, certify, global_bound, per_k_bound, r_k
from .lfunction import LValue, central_values, completed_l
from .ntheory import ValueWithError, bernoulli, gamma_sum
from .petersson import QuadratureSpec, petersson_norm_sq, triangle_check
from .qexpansion import Eigenform, QExpansion, delta, dim_cusp, eigenforms, eisenstein, miller_basis

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "PrecisionError",
    "UnsupportedError",
    "ValueWithError",
    "Certificate",
    "KernelCoefficient",
    "LValue",
    "QExpansion",
    "Eigenform",
    "QuadratureSpec",
    "bernoulli",
    "gamma_sum",
    "certify",
    "global_bound",
    "per_k_bound",
    "r_k",
    "central_values",
    "completed_l",
    "petersson_norm_sq",
    "triangle_check",
    "delta",
    "dim_cusp",
    "eigenforms",
    "eisenstein",
    "miller_basis",
]
