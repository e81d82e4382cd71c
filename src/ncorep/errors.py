"""Exception types shared across the package, and the quoting of user
text in their messages."""


def excerpt(text):
    """text quoted for an error message: whole up to 40 characters, else its
    first 40, marked as cut, with its length."""
    if len(text) <= 40:
        return repr(text)
    return "%r... (cut, %d characters)" % (text[:40], len(text))


class NCorepError(Exception):
    """Base class for all package errors."""


class UnknownParameter(NCorepError):
    """An expression mentions a parameter that was never declared."""


class ExpressionSyntax(NCorepError):
    """Malformed scalar expression string."""

    def __init__(self, message, pos=None):
        super().__init__(message if pos is None else "%s (at column %d)" % (message, pos + 1))
        self.pos = pos


class NumberTooLong(NCorepError):
    """A number has more digits than Python converts between int and text."""


class ExponentTooLarge(NCorepError):
    """A monomial's total degree reached 2^62, past the packed exponent's room."""


class DivisionByZero(NCorepError):
    """Division by the zero rational function."""


class DenominatorVanishes(NCorepError):
    """A substitution sent some denominator to the zero polynomial."""

    def __init__(self, message, param=None):
        super().__init__(message)
        self.param = param


class ContextMismatch(NCorepError):
    """Operation mixing scalars from incompatible parameter contexts."""


class MixedFamilies(NCorepError):
    """Relation sets over different generator families cannot be compared."""


class MissingImage(NCorepError):
    """A (anti)homomorphism was applied to a generator with no declared image."""


class UnknownGenerator(NCorepError):
    """Coalgebra operation hit a generator outside the matrix family."""


class PresentationMismatch(NCorepError):
    """Linear forms over different presentations cannot be combined."""


class NotInvertible(NCorepError):
    """A matrix (or form) required to be invertible is singular."""


class ShapeMismatch(NCorepError):
    """Tensor contraction with incompatible shapes or index pairs."""


class InvalidTheta(NCorepError):
    """A twisting tensor failed its structural validity conditions."""


class NotGroupCoefficient(NCorepError):
    """Coaction output has residual terms outside the expected line."""


class CommutationUnverified(NCorepError):
    """A claimed determinant commutation does not reduce to zero."""


class AnsatzFailed(NCorepError):
    """The trace ansatz does not hold, so the contraction identity is void."""


class OrderMissingGenerator(NCorepError):
    """A word mentions a generator absent from the term order's precedence."""


class SectionFailed(NCorepError):
    """An error that left a report section's body, its message led by the
    section's name."""


class InputFormat(NCorepError):
    """Malformed algebra input file."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else "%s (line %d)" % (message, line))
        self.line = line
