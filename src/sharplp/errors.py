"""Exception types raised by the toolkit.

Every error is a subclass of :class:`SharpLpError`, which itself subclasses
``ValueError`` so callers that only care about "bad input" can catch one type.
"""


class SharpLpError(ValueError):
    """Base class for all toolkit errors."""


class UnknownPrecisionMode(SharpLpError):
    """SHARPLP_PRECISION names no evaluation mode."""


class BadShape(SharpLpError):
    """An input array does not have the shape the operation expects."""


# -- measure / norm layer -----------------------------------------------------

class MisalignedFunction(SharpLpError):
    """Function values and measure weights have different lengths."""


class InvalidInstance(SharpLpError):
    """An instance has no point, a mass that is not positive and finite, or a
    value that is not finite."""


class NonpositiveValueForNegativeP(SharpLpError):
    """An exponent region demanding strict positivity received a zero or
    negative value (p < 0 everywhere; also the reverse range 1 < p < 2)."""


class ZeroExponent(SharpLpError):
    """p = 0 is outside the family of power functionals."""


class ZeroSumPoint(SharpLpError):
    """f + g vanishes at some point, so the ratio f/(f+g) is undefined there."""


class NegativeInput(SharpLpError):
    """Inputs must be nonnegative for this operation."""


class ZeroNorm(SharpLpError):
    """A norm appearing in a denominator is zero."""


class NumericRange(SharpLpError):
    """A computed side is not a finite double: the exponent lies beyond the
    range the double-precision path can evaluate."""


class ZeroPair(SharpLpError):
    """Both functions vanish identically; nothing can be normalized."""


class NotProbabilitySpace(SharpLpError):
    """Weights do not sum to 1 within tolerance."""


class OutOfRangeAlpha(SharpLpError):
    """A ratio value lies outside the admissible range."""


class InvalidDraw(SharpLpError):
    """A seeded draw got a negative seed, no trials, or too few points per
    instance."""


# -- scalar means / factor layer ----------------------------------------------

class ExponentOutOfRange(SharpLpError):
    """The exponent lies outside the range this operation supports."""


class EndpointWithNegativeP(SharpLpError):
    """The value 0 cannot be raised to a negative power."""


class OutOfDomain(SharpLpError):
    """Argument outside the function's domain."""


# -- derivative-chain audit layer ---------------------------------------------

class TargetOutOfRange(SharpLpError):
    """Inversion target lies outside the attainable range."""


class SingularPoint(SharpLpError):
    """Quotient fields are singular at this point."""


class DomainError(SharpLpError):
    """Evaluation point outside the audited interval."""


class NameRequiresC(SharpLpError):
    """The named auxiliary function is not defined for this parameter value."""


class TooCoarse(SharpLpError):
    """Adjacent grid samples are sign-ambiguous; a finer grid is needed."""


# -- matrix layer ---------------------------------------------------------------

class DimOutOfRange(SharpLpError):
    """Matrix dimension outside the supported range."""


class NotPSD(SharpLpError):
    """Matrix is not positive semidefinite within tolerance."""


class UnsupportedExponent(SharpLpError):
    """The trace inequality is only verified for exponents 2, 4, 8, ...."""
