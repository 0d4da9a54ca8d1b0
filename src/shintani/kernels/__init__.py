"""The two inner loops that dominate runtime: the truncated simplex sum of a
Shintani zeta series, for a block of shifts at once (with
`box_sum_roundoff`, its float error), and the prime-splitting scan for the
Euler-product oracle.  Both are NumPy code in `reference`; `BACKEND` names
it for benchmark stamps.  `scalar` evaluates the simplex sum of an exponent
s in 1/2 Z, 1 <= s <= 8, in Python floats, bit for bit as `reference` does,
for the jobs too small to pay for importing NumPy; `em` sums degree-2
cones row by row to infinity by Euler-Maclaurin, with its own certified
bound, for the deep ones, and is imported only by the jobs that take it.

Importing the package loads no NumPy: `box_sum_roundoff`, `scalar` and
`ZetaValue` are NumPy-free, and `box_sum`, `box_sums` and
`splitting_counts` import `reference` on first access (PEP 562)."""

import importlib
from collections import namedtuple

from . import scalar
from .scalar import box_sum_roundoff  # noqa: F401

BACKEND = "reference"

_REFERENCE = ("box_sum", "box_sums", "splitting_counts")


class ZetaValue(namedtuple("ZetaValue", "value error_bound terms radius")):
    """A truncated sum with its certified error bound, its number of terms
    and its radius: the simplex level of a Shintani sum, the prime cap of
    the Euler-product oracle.  The value is complex for an L-function."""

    __slots__ = ()


def __getattr__(name):
    if name not in _REFERENCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(".reference", __name__), name)
    globals()[name] = value
    return value
