"""Exception hierarchy shared by every module in the package.

All errors raised on purpose derive from :class:`PseudoformError`, so
callers (the command line driver in particular) can distinguish "the
input is bad" from a genuine crash.
"""

from __future__ import annotations

import functools


class PseudoformError(Exception):
    """Base class for all errors raised by this package."""


class MalformedFacetError(PseudoformError):
    """A facet row is not a set of distinct non-negative integer labels."""


class DimensionError(PseudoformError):
    """An operation received a complex of the wrong dimension."""


class MissingFaceError(PseudoformError):
    """A face that was assumed to be present is absent."""


class NotSurfaceError(PseudoformError):
    """A 2-complex fails the closed-surface conditions."""


class CycleError(PseudoformError):
    """A vertex sequence is not a usable simple cycle."""


class SpecError(PseudoformError, ValueError):
    """A generator spec or size argument is malformed or out of range."""


class FileReadError(PseudoformError, OSError):
    """A file could not be read; ``filename`` names it."""


class FileWriteError(PseudoformError, OSError):
    """A file could not be written; ``filename`` names it."""


class MoveError(PseudoformError):
    """A move precondition failed.

    ``details`` carries the offending witness (a short path, the common
    faces violating a link condition, ...) so callers can report it.
    """

    def __init__(self, message: str, details=None):
        super().__init__(message)
        self.details = details


class IsomorphismInconclusive(PseudoformError):
    """The isomorphism search exhausted its node budget with no verdict."""


class TraceFormatError(PseudoformError):
    """A construction-trace file does not follow the documented format."""


class ReplayError(PseudoformError):
    """Replaying a construction trace failed.

    ``index`` is the position of the failing move in the trace (or None
    when the seeds themselves are at fault).
    """

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


def _refusing(error: type):
    """Decorate a method of a value type so that a ``TypeError``,
    ``ValueError`` or ``AttributeError`` that a hand-built member of the
    wrong type raises in it is raised as ``error``, a package error."""
    def decorate(method):
        @functools.wraps(method)
        def refusing(self, *args):
            try:
                return method(self, *args)
            except (TypeError, ValueError, AttributeError) as e:
                raise error(f"{type(self).__name__} has a member of the wrong type: {e}") from None
        return refusing
    return decorate
