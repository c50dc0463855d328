"""Exception types shared across the toolkit."""

from __future__ import annotations


class BfomlError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(BfomlError, ValueError):
    """An argument outside the set of values a function accepts."""


class ParseError(BfomlError):
    """Malformed concrete syntax. Carries a 1-based source position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ArityMismatchError(ParseError):
    """A predicate name was used at two different arities in one formula."""

    def __init__(self, predicate: str, seen: int, expected: int,
                 line: int | None = None, column: int | None = None):
        super().__init__(
            f"predicate {predicate} used with arity {seen}, previously arity {expected}",
            line, column)
        self.predicate = predicate


class CaptureError(BfomlError):
    """A substitution would move a free variable under a binder of the same name."""


class FragmentError(BfomlError):
    """A formula lies outside the fragment a procedure is defined for."""


class ModelFormatError(BfomlError):
    """A model document does not follow the expected JSON shape."""


class InvalidModelError(BfomlError):
    """A model violates one of its structural invariants."""

    def __init__(self, violation) -> None:
        super().__init__(f"invalid model: {violation.code} at {violation.subject}: {violation.message}")
        self.violation = violation


class UnknownWorldError(BfomlError):
    """Evaluation was requested at a world the model does not contain."""


class UnboundVariableError(BfomlError):
    """The assignment does not cover every free variable of the formula."""


class IrrelevantAssignmentError(BfomlError):
    """An assignment maps a variable outside the local domain of the world."""


class ResourceLimitError(BfomlError):
    """A configurable work budget was exhausted before the search finished."""


class InternalSolverError(BfomlError):
    """An internal invariant failed; indicates a bug, not bad input."""
