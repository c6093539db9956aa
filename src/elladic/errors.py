"""Exception types shared across the package.

Every failure mode that a caller is expected to handle gets its own class.
Constructors refuse bad arguments with ValueError (ZeroDivisionError for a
zero denominator); jsonio._make reports that refusal of user input as
InputError.  A TypeError or AttributeError is a programming error, such as
an int operand where a LocalNumber is required.
"""


class ElladicError(Exception):
    """Base class for all library-level errors."""


class PrecisionLoss(ElladicError):
    """Cancellation destroyed every certified digit and the result cannot
    be certified nonzero."""


class NotIntegral(ElladicError):
    """An operation that requires valuation >= 0 received a value with a
    pole (negative valuation)."""


class NoSimpleRoot(ElladicError):
    """Hensel lifting was asked to lift a residue root that is not simple."""


class UnsupportedDegree(ElladicError):
    """The configured coefficient field is too small for the requested
    roots of unity or square roots."""


class ConfigMismatch(ElladicError):
    """Operands live in different coefficient-field configurations."""


class NoMatching(ElladicError):
    """Two parameter multisets have different residue multisets."""


class BadSquareRoot(ElladicError):
    """A claimed square root does not square to the expected value."""


class NotCongruent(ElladicError):
    """A congruence precondition between characteristic polynomials fails."""


class TooLarge(ElladicError):
    """An enumeration would exceed the configured cap."""


class InsufficientPrecision(ElladicError):
    """A local series does not carry enough coefficients to answer the
    question exactly."""


class UnsupportedPoint(ElladicError):
    """A tabulated local datum was queried off its domain of definition."""


class SpecMismatch(ElladicError):
    """Two global specifications disagree where they are required to agree."""


class IncompleteData(ElladicError):
    """A character family or specification lacks data at a required place."""


class InputError(ElladicError):
    """Malformed user-supplied input (CLI/JSON layer)."""
