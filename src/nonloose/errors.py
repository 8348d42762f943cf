"""Exception hierarchy shared by all modules, the value rules, and
:class:`Value`, the base of every immutable value class; every command loads
this module.  Every domain-level failure raises a :class:`DomainError`, which
the CLI maps onto exit code 1 with a machine-readable payload.

A rule is a function ``(value, what, error) -> stored value``: it returns the
value to store, in its immutable form (a tuple, a frozenset, a read-only
mapping, a ``Fraction``), or raises ``error`` with a message that begins with
``what``, the field's label.  ``json`` loads ``true`` as a ``bool``, which
Python counts as an ``int``, and ``-16.7`` as a float that ``int()`` would
truncate, so a rule accepts only the type its field documents.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from types import MappingProxyType


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


class DiagramError(DomainError):
    """A surgery diagram is structurally malformed."""


class SingularMatrix(DomainError):
    pass


class MeridionalSlope(DomainError):
    pass


class InvalidParams(DomainError):
    """An argument of the wrong type or value, to a constructor or a function."""


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


def read_mapping(value: object, what: str, error: type[DomainError]) -> Mapping:
    """A read-only copy of ``value`` if it is a mapping; else raise ``error``."""
    if type(value) is dict or isinstance(value, Mapping):
        return MappingProxyType(dict(value))
    raise error(f"{what} must be a mapping, got {value!r}")


def read_ints(value: object, what: str, error: type[DomainError]) -> frozenset[int]:
    """A list, tuple or set of integers (each read before a set merges True into 1) as a frozenset."""
    if not isinstance(value, (list, tuple, set, frozenset)):
        raise error(f"{what} must be a list of integers, got {value!r}")
    for entry in value:
        read_int(entry, f"{what} entry", error)
    return frozenset(value)


def optional(rule):
    """The rule: ``None``, or a value that ``rule`` reads."""

    def read(value, what, error):
        return None if value is None else rule(value, what, error)

    return read


def nonnegative(noun: str | None = None):
    """The rule: an integer, not a boolean, that is at least 0.  A negative
    one raises "``noun`` must be nonnegative", ``noun`` by default the label."""

    def read(value, what, error):
        if read_int(value, what, error) < 0:
            raise error(f"{noun or what} must be nonnegative")
        return value

    return read


# a count of stabilizations, and the smooth 4-ball genus of a knot
read_count = nonnegative("stabilization counts")
read_genus = nonnegative("smooth 4-ball genus")


def member(kind: type | tuple[type, ...]):
    """The rule: a ``kind`` value, such as a member of the enum ``kind``, or
    a value of any class in the tuple ``kind``."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    expected = " or ".join([f"{'an' if k.__name__[0] in 'AEIOU' else 'a'} {k.__name__}" for k in kinds])

    def read(value, what, error):
        if isinstance(value, kind):
            return value
        raise error(f"{what} must be {expected}, got {value!r}")

    return read


def members(kind: type):
    """The rule: any iterable of ``kind`` values, stored as a tuple."""

    def read(value, what, error):
        items = tuple(value) if isinstance(value, Iterable) else None
        bad = [value] if items is None else [item for item in items if not isinstance(item, kind)]
        if bad:
            raise error(f"{what} must be {kind.__name__} values, got {bad[0]!r}")
        return items

    return read


def check_chi(chi: int, odd: bool = True) -> None:
    """chi <= 1, and chi = 1 - 2g is odd for a knot's Seifert surface; a rational
    one may have several boundary components, so ``odd=False`` skips parity."""
    if chi > 1:
        raise InvalidParams(f"chi must be <= 1, got {chi}")
    if odd and chi % 2 == 0:
        raise InvalidParams(f"chi of a knot's Seifert surface is odd, got {chi}")


class Value:
    """Equality, hash and repr over ``_fields``, the constructor's parameters
    in order.  ``_rules`` maps each field to its rule, in the order in which
    faults are reported; ``_error`` is the error the rules raise, and
    ``_labels`` names a field whose name alone would not do in a message.
    A constructor stores the fields with ``_set``, which reads each with its
    rule, then checks the rules that join fields; a class with no such rule
    needs no ``__init__``.  Copies, pickles and ``replace`` rebuild a value
    through its constructor; a hot path builds one from fields derived from
    checked values with ``_derived``.  A derived slot is set directly.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _rules: dict = {}
    _error: type[DomainError] = InvalidParams
    _labels: dict[str, str] = {}
    # (field name, its place in ``_fields``, its rule, its label) in ``_rules`` order
    _checks: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._checks = tuple(
            (name, cls._fields.index(name), rule, cls._labels.get(name, name)) for name, rule in cls._rules.items()
        )

    def __init__(self, *values, **named):
        names = self._fields[len(values) :]
        if len(values) > len(self._fields) or named.keys() != set(names):
            raise TypeError(f"{type(self).__qualname__} takes the fields {', '.join(self._fields)}")
        self._set(*values, *[named[name] for name in names])

    def _set(self, *values) -> None:
        store, error = object.__setattr__, self._error
        for name, index, rule, what in self._checks:
            store(self, name, rule(values[index], what, error))

    @classmethod
    def _derived(cls, *values):
        """A value whose fields the library derived from checked ones, stored without reading them again."""
        value = object.__new__(cls)
        for name, field in zip(cls._fields, values):
            object.__setattr__(value, name, field)
        return value

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
        # a mappingproxy cannot be copied or pickled; the mapping rule wraps the dict again
        return type(self), tuple([dict(v) if type(v) is MappingProxyType else v for v in self._values()])

    def replace(self, **changes):
        """A copy with the fields in ``changes`` replaced, built and checked anew."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))
