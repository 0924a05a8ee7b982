"""Exception types shared across the package, the integer-argument gate and
the one cap on every count an argument asks for."""

import math

# The most coefficients, terms or nodes any count may ask for: `eisenstein`,
# `delta`, `miller_basis`, `eigenforms` and `hecke_matrix` refuse more, and
# `deligne_count` gives up past it.  It also bounds what is shared across
# calls: the Miller table of `qexpansion`, the 64 incomplete-gamma rows of
# `lfunction` (at most _MAX_COUNT // 64 terms each), the 16 arc moment
# entries of `petersson` (at most 675 doubles each) and the tail table of
# `kernel`, one per weight of at most _MAX_COUNT + 1 fixed-point ints, about
# 3 MB at that depth (the deepest cut `r_k` makes, 4,333 terms, takes 0.2 MB).
_MAX_COUNT = 2**16


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PrecisionError(RuntimeError):
    """The requested accuracy cannot be certified with the available precision."""


class UnsupportedError(RuntimeError):
    """A structurally valid input hits a case the implementation does not cover."""


def _shown(x) -> str:
    """repr(x), or for an int past 64 bits its bit length, as `repr` refuses
    ints of more than 4,300 digits."""
    if isinstance(x, int) and x.bit_length() > 64:
        return f"an int of {x.bit_length()} bits"
    return repr(x)


def _integer(name: str, x, lo: int, step: int = 1, hi: float = math.inf) -> int:
    """x as an int if it is one of lo, lo + step, lo + 2 step, ... up to hi;
    `DomainError` otherwise.  nan fails every comparison, -inf the first, and
    +inf the last or, with no hi, the test (inf - lo) % step == 0, as that is
    nan.  An integral float gives the int, so it gives the int's result.  The
    message shows x by `_shown`."""
    if lo <= x <= hi and (x - lo) % step == 0:
        return int(x)
    top = "" if hi == math.inf else f" up to {hi}"
    raise DomainError(f"{name} must be an integer in {lo}, {lo + step}, ...{top}; got {_shown(x)}")
