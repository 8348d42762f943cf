"""Exception hierarchy shared by all modules.

Every domain-level failure raises a subclass of :class:`DomainError`, so the
CLI can map any of them onto exit code 1 with a machine-readable payload.
"""

from __future__ import annotations


class DomainError(Exception):
    """Base class for all errors raised by the library on bad domain input."""


class FrontParseError(DomainError):
    """A front word failed lexing or validation."""


class UnknownToken(FrontParseError):
    pass


class PositionOutOfRange(FrontParseError):
    def __init__(self, message: str, event_index: int):
        super().__init__(message)
        self.event_index = event_index


class NonzeroFinalStrands(FrontParseError):
    pass


class MultipleComponents(FrontParseError):
    pass


class EmptyWord(FrontParseError):
    pass


class FrontEditError(DomainError, ValueError):
    """A stabilization or destabilization was asked for with bad arguments."""


class DiagramError(DomainError):
    """A surgery diagram is structurally malformed."""


class LinalgError(DomainError, ValueError):
    """A matrix or vector has the wrong shape or entries for the operation."""


class SingularMatrix(DomainError):
    pass


class MeridionalSlope(DomainError):
    pass


class MissingChi(DomainError):
    pass


class InvalidParams(DomainError):
    pass


class UnknownTag(DomainError):
    pass


class AmbientMismatch(DomainError):
    pass


class NotLoosened(DomainError):
    pass


class ContradictoryEvidence(DomainError):
    pass


class IncompatibleRelation(DomainError):
    pass
