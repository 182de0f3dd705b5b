"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "OcError",
    "CompositionError",
    "ClosedComponentError",
    "InfeasibleObjectError",
    "InvalidCobordismError",
    "InvalidValueError",
    "DslSyntaxError",
    "DslValidationError",
]


class OcError(Exception):
    """Base class for all domain errors raised by this package."""


class CompositionError(OcError):
    """Gluing failed: interface mismatch or incoherent boundary data."""


class ClosedComponentError(CompositionError):
    """Gluing produced a component with empty boundary.

    Closed surface components carry no anchoring data and are rejected by
    validation, so composition refuses to create them.  This cannot happen
    when both factors satisfy the b-condition (every component keeps some
    outgoing boundary).
    """


class InfeasibleObjectError(OcError):
    """No connected genus-zero realizer exists for the requested object.

    Raised when a permutation cycle is not brane-coherent: the connecting
    arcs of the would-be boundary circle would need two different labels.
    """


class InvalidCobordismError(OcError):
    """An operation that requires a valid cobordism met an invalid one.

    Raised where a wrong answer would otherwise come back silently, such
    as a mixed cycle without a unique least interval reference.
    """


class InvalidValueError(OcError, ValueError):
    """A value the constructor or operation it was passed to cannot take.

    Raised by the constructors of objects and surfaces (a non-bijective
    permutation, an undeclared label, a negative genus) and by operations
    given an argument out of range.  Also a ``ValueError``, so callers
    that catch that keep working.
    """


def wrong_type(kind: type, *values) -> InvalidValueError:
    """The error for an entry point given an argument that is not exactly
    of type ``kind``: it names the first of ``values`` that is not."""
    bad = next(x for x in values if type(x) is not kind)
    article = "an" if kind.__name__[0] in "aeiou" else "a"
    return InvalidValueError(
        f"expected {article} {kind.__name__}, got {type(bad).__name__}"
    )


def shown(value, form=repr) -> str:
    """``form(value)``, as an error message shows a caller's value.

    Where that raises, the value is described instead: an int too long for
    the interpreter to write in decimal by its size, anything else by its
    type.  So building a message cannot fail, whatever the value.
    """
    try:
        return form(value)
    except Exception:  # the message must be built, whatever the value raised
        if isinstance(value, int):
            return f"<an integer of {int.bit_length(value)} bits>"
        return f"<a {type(value).__name__} that cannot be shown>"


def not_iterable(what: str, exc: TypeError) -> InvalidValueError:
    """The error for a constructor that could not read its collection of
    ``what``, as ``exc`` says: not iterable, or an unhashable label."""
    return InvalidValueError(f"expected an iterable of {what}: {exc}")


class DslError(OcError):
    """Base class for text format errors.  Carries a source position."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self) -> str:  # pragma: no cover - trivial
        base = super().__str__()
        if self.line:
            return f"line {self.line}, column {self.column}: {base}"
        return base


class DslSyntaxError(DslError):
    """Tokenizer, grammar, or name-resolution failure."""


class DslValidationError(DslError):
    """The text parsed but a cobordism failed structural validation."""

    def __init__(self, message, line=0, column=0, violations=()):
        super().__init__(message, line, column)
        self.violations = tuple(violations)
