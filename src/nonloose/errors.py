"""Exception hierarchy shared by all modules, :class:`Value`, the base of every
immutable value class, and the value rules: the strict field readers and the
chi rule.  They live here because every command loads this module.

Every domain-level failure raises a subclass of :class:`DomainError`, so the
CLI can map any of them onto exit code 1 with a machine-readable payload.

``json`` loads ``true`` as a ``bool``, which Python counts as an ``int``, and
``-16.7`` as a float that ``int()`` would truncate.  The readers accept only
the type a field documents and raise the caller's domain error for any other
value, so nothing is coerced silently.
"""

from __future__ import annotations


class Value:
    """Equality, hash and repr over ``_fields``, the constructor's parameters in
    order.  A subclass's ``__init__`` checks them and stores them with ``_set``;
    a derived slot outside ``_fields`` is set with ``object.__setattr__``.
    Copies and pickles rebuild a value through its constructor and its checks.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def replace(self, **changes):
        """A copy with the fields in ``changes`` replaced, built and checked anew."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


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


class NotLoosened(DomainError):
    pass


class ContradictoryEvidence(DomainError):
    pass


class IncompatibleRelation(DomainError):
    pass


def read_int(value: object, what: str, error: type[DomainError]) -> int:
    """``value`` if it is an integer and not a boolean; else raise ``error``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise error(f"{what} must be an integer, got {value!r}")


def read_str(value: object, what: str, error: type[DomainError]) -> str:
    """``value`` if it is a string; else raise ``error``."""
    if isinstance(value, str):
        return value
    raise error(f"{what} must be a string, got {value!r}")


def read_bool(value: object, what: str, error: type[DomainError]) -> bool:
    """``value`` if it is ``true`` or ``false``; else raise ``error``."""
    if isinstance(value, bool):
        return value
    raise error(f"{what} must be true or false, got {value!r}")


def check_chi(chi: int, odd: bool = True) -> None:
    """chi <= 1, and chi = 1 - 2g is odd for a knot's Seifert surface; a rational
    one may have several boundary components, so ``odd=False`` skips parity."""
    if chi > 1:
        raise InvalidParams(f"chi must be <= 1, got {chi}")
    if odd and chi % 2 == 0:
        raise InvalidParams(f"chi of a knot's Seifert surface is odd, got {chi}")
