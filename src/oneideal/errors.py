"""Exception types shared across the package.

Each carries its command-line exit: ``code`` tags the stderr line
(``error [code]: ...``, or a bare ``error: ...`` when None) and
``exit_status`` is 2, or 3 for an internal consistency failure."""

from __future__ import annotations


class OneIdealError(Exception):
    """Base class for all package-specific errors."""

    code: str | None = None
    exit_status = 2


class FamilyValidationError(OneIdealError):
    """A graph family description violates one of the one-ideal hypotheses.

    ``code`` is one of ``ConditionK``, ``NoIdealEdge``, ``InfiniteSum``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class RegimeError(OneIdealError):
    """Operation not defined for this loop count / tail regime."""


class OutOfScopeComparison(OneIdealError):
    """Isomorphism comparison requested outside the finite-loop regime."""

    code = "OutOfScope"


class WorkLimitError(OneIdealError):
    """The request would exceed a documented bound on work or memory."""

    code = "WorkLimit"


class InternalConsistencyError(OneIdealError):
    """Two independent computation routes disagreed; signals a bug."""

    code = "InternalConsistency"
    exit_status = 3
