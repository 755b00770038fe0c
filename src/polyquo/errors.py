"""Exceptions raised by ring and polynomial operations."""


class AlgebraicError(Exception):
    """Base of the algebraic failures; each also keeps its builtin base, so either catches it."""


class NotInvertible(AlgebraicError, ZeroDivisionError):
    """The element has no multiplicative inverse in its ring."""


class DimensionMismatch(ValueError):
    """Matrix operands do not have the dimension the ring expects."""


class NotCentral(AlgebraicError, ValueError):
    """The divisor's leading coefficient does not commute with the divisor."""


class NotMonic(AlgebraicError, ValueError):
    """The operation requires a monic divisor."""


class UnsupportedSigma(AlgebraicError, ValueError):
    """The operation is only defined when the twist endomorphism is the identity."""


class NegativeLeftShift(AlgebraicError, ValueError):
    """Left whole shifts by a negative amount are not defined for skew polynomials."""


class UnsupportedOperation(AlgebraicError, ValueError):
    """The method or side asked for does not apply to the document's ring."""


class NoConvergence(AlgebraicError, RuntimeError):
    """An iteration exceeded its convergence cap; indicates a bug or unsupported input."""


class ParseError(ValueError):
    """A polynomial document could not be parsed or failed validation."""
