"""Exception types, and the NaN-carrying max fold that gates use, shared
across the package."""

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class VerificationError(RuntimeError):
    """A numerical verification sweep failed (tolerance breach or no
    admissible parameter found)."""


def max_carrying_nan(*values):
    """The largest of ``values``, or NaN if any is NaN.

    The builtin ``max`` keeps a NaN only when it comes first, so a NaN sup
    folded into a running maximum would otherwise vanish and pass a gate.
    """
    for v in values:
        if v != v:
            return math.nan
    return max(values)
