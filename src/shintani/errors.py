"""Exception types shared across the library.

Every error the CLI can surface maps to one of these classes; the CLI
translates the class name into the machine-readable ``error`` field.
"""


class ShintaniError(Exception):
    """Base class for all library errors."""


# ---- input / validation errors (CLI exit code 2) ----

class InputError(ShintaniError):
    """Bad user input (field spec, units, job schema, ...)."""


class DegreeTooSmall(InputError):
    pass


class NotMonic(InputError):
    """The defining polynomial's leading coefficient is not 1."""


class NotSquarefree(InputError):
    pass


class NotTotallyReal(InputError):
    pass


class NotIrreducible(InputError):
    """The defining polynomial has a factor over Q."""


class ZeroElement(InputError):
    pass


class NotTotallyPositive(InputError):
    pass


class NotAUnit(InputError):
    pass


class DependentUnits(InputError):
    pass


class DependentBasis(InputError):
    pass


class ZeroIdeal(InputError):
    pass


class NotValidated(InputError):
    """User-supplied integral basis failed validation."""


class NonIntegralIdeal(InputError):
    """A class representative or a conductor is not an integral ideal."""


class UnitOutsideOrder(InputError):
    """A unit does not lie in the order the R-sets are enumerated in."""


class ClassResolutionMissing(InputError):
    """Nontrivial narrow class group but no class-resolution table given."""


class InvalidCharacter(InputError):
    """Not one character value per representative, or a modulus not 1 or 0."""


class NonMonogenicPrime(InputError):
    """Euler-product oracle hit a prime dividing the power-basis index."""


class SchemaError(InputError):
    """Malformed job JSON."""


# ---- precision / resource errors (CLI exit code 3) ----

class PrecisionError(ShintaniError):
    pass


class PrecisionCapExceeded(PrecisionError):
    """Adaptive refinement reached the configured bit cap without certifying."""


class UndecidableSign(PrecisionError):
    """A strict sign was required but the quantity appears to be exactly 0
    (only decidable for exact inputs) or refinement hit the cap."""


class TailBoundUnachievable(PrecisionError):
    """No truncation radius below the cap meets the requested error."""


# Exit code 1 (a net count != 1, falsifying the domain) is reported through
# the verify output rather than an exception: it is data, not a failure of
# the computation.
