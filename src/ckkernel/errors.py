"""Exception types shared across the package, and the integer-argument gate."""

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PrecisionError(RuntimeError):
    """The requested accuracy cannot be certified with the available precision."""


class UnsupportedError(RuntimeError):
    """A structurally valid input hits a case the implementation does not cover."""


def _integer(name: str, x, lo: int, step: int = 1, hi: float = math.inf) -> int:
    """x as an int if it is one of lo, lo + step, lo + 2 step, ... up to hi;
    `DomainError` otherwise.  nan fails every comparison, -inf the first, and
    +inf the last or, with no hi, the test (inf - lo) % step == 0, as that is
    nan.  An integral float gives the int, so it gives the int's result."""
    if lo <= x <= hi and (x - lo) % step == 0:
        return int(x)
    top = "" if hi == math.inf else f" up to {hi}"
    raise DomainError(f"{name} must be an integer in {lo}, {lo + step}, ...{top}; got {x!r}")
