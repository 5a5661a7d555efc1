"""Exception types shared across the package.

Errors fall into three groups: user/configuration problems, ordinary
domain errors (poles, unstable cells, missing data), and internal
invariant violations.  The last group means a structural property the
whole computation relies on has failed, so results must not be trusted.

A message quotes an input text through ``clip``, so one long bad value in
a cache file cannot flood stderr.
"""

# The most characters of one input text that an error message quotes.
QUOTE_MAX = 48


def clip(text, form="%s"):
    """``form % text``, or for a text longer than ``QUOTE_MAX`` characters
    ``form`` of its first ``QUOTE_MAX``, "..." and the length of the
    whole."""
    if len(text) <= QUOTE_MAX:
        return form % (text,)
    return form % (text[:QUOTE_MAX],) + "... (%d characters)" % len(text)


class FramedVertexError(Exception):
    """Base class for all package errors."""


class ConfigError(FramedVertexError):
    """Bad user configuration or CLI usage."""


class InternalInvariantError(FramedVertexError):
    """A structural invariant failed; abort and report, never paper over."""


class DivisionByZero(FramedVertexError, ZeroDivisionError):
    """Division by zero: a zero Q(f) value, or a series that is zero
    through its known terms."""


class PoleAtFraming(FramedVertexError):
    """A denominator vanishes at the requested framing value."""


class ArityMismatch(FramedVertexError):
    """Polynomials live in rings with different variable counts."""


class IndexOutOfRange(FramedVertexError, IndexError):
    """Variable slot outside a polynomial's arity."""


class NotDivisible(InternalInvariantError):
    """Exact division left a remainder; upstream semantics are wrong."""


class InvalidComposition(FramedVertexError):
    """Series operation outside its supported shapes (a v^-1 integrand)."""


class InsufficientTruncation(InternalInvariantError):
    """A series lacks enough guaranteed terms for the requested operation."""


class NotInSpan(InternalInvariantError):
    """Polynomial failed to decompose in the phi-prime basis.

    Carries the partial decomposition for diagnostics.
    """

    def __init__(self, message, coefficients=None, residual=None):
        super().__init__(message)
        self.coefficients = coefficients
        self.residual = residual


class DegreeCapExceeded(InternalInvariantError):
    """A two-point kernel produced terms beyond its degree cap."""


class SupportBoundViolation(InternalInvariantError):
    """A bracket appeared outside the dimension bound."""


class SymmetryViolation(InternalInvariantError):
    """Extracted bracket values differ across index permutations."""


class MissingDependency(FramedVertexError):
    """A required lower cell has not been computed."""


class UnstableDependency(FramedVertexError):
    """An operation referenced an unstable (g, n) cell."""


class OutsideVerifiableSet(FramedVertexError):
    """Cut-join verification requested for a cell it cannot cover."""
