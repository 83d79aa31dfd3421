"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes, so new error kinds should
subclass one of the groups below rather than Exception directly.
"""
from __future__ import annotations

# Parsers refuse input nested deeper than this.  They, and every later
# pass over what they build, recurse once per level, so a bound here keeps
# them all clear of Python's recursion limit.
MAX_NESTING = 100


class EppError(Exception):
    """Base class for all errors raised by this package."""


class InputError(EppError):
    """Malformed user input: bad JSON shapes, alphabet clashes, arity errors."""


class ParseError(InputError):
    """Syntax error in a regex, formula, or word, with a position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class TrackMismatchError(InputError):
    """Operands disagree on track count or alphabet."""


class FragmentError(EppError):
    """The formula or action lies outside the fragment an operation supports."""


class ResourceLimitError(EppError):
    """A configured cap (states, classes, depth) was exceeded."""


class EmptyModelError(EppError):
    """A product update filtered out every world."""


class InfiniteDomainError(InputError):
    """An operation that needs a finite domain met a cyclic domain automaton."""


class VariableCaptureError(EppError):
    """A generated history variable collides with a variable of the formula."""
