"""The frozen dataclasses that the library's value classes replaced, kept as
oracles for the tests.

Each class is the library's definition as it stood before the values became
plain ``__slots__`` classes on ``nonloose.errors.Value``: same name, fields,
defaults and ``__post_init__`` checks.  ``test_value_classes`` holds the new
classes to these for repr, equality, hash, copy, pickle, ``replace`` and the
errors a bad field raises.  Nested values (a certificate's reasons, a word's
events, a diagram's components) are built from this module too.

``CheckedSurgeryDiagram`` is the ``Value`` class ``SurgeryDiagram`` as it
stood before ``build`` derived its diagram: ``build`` hands the matrix it
assembled to the constructor, which reads every component and entry again.
``test_diagram_build`` holds ``SurgeryDiagram.build`` to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Any, Mapping, Sequence

from nonloose import surgery
from nonloose.calculus import check_chi
from nonloose.certify import Verdict
from nonloose.diagram import Direction, EventKind, _Orientation, _trace
from nonloose.errors import DiagramError, InvalidParams, Value, members, read_int, read_str
from nonloose.knotdata import AMBIENT_TIGHT_S3
from nonloose.linalg import Matrix
from nonloose.surgery import _COEFFS, COEFF_PASSIVE

# calculus


@dataclass(frozen=True)
class ClassicalPair:
    tb: int
    rot: int
    chi: int | None = None

    def __post_init__(self):
        if self.chi is not None:
            check_chi(self.chi)


@dataclass(frozen=True)
class RationalData:
    tb_q: Fraction
    rot_q: Fraction
    order_r: int
    chi: int

    def __post_init__(self):
        object.__setattr__(self, "tb_q", Fraction(self.tb_q))
        object.__setattr__(self, "rot_q", Fraction(self.rot_q))
        check_chi(self.chi, odd=False)
        if self.order_r < 1:
            raise InvalidParams(f"homological order must be >= 1, got {self.order_r}")
        if self.order_r % self.tb_q.denominator or self.order_r % self.rot_q.denominator:
            raise InvalidParams(
                f"tb_q and rot_q must be multiples of 1/order_r, got tb_q {self.tb_q}, rot_q {self.rot_q}"
                f" and order_r {self.order_r}"
            )


# certify


@dataclass(frozen=True)
class Reason:
    rule: str
    note: str
    inputs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "inputs", MappingProxyType(dict(self.inputs)))


@dataclass(frozen=True)
class Certificate:
    verdict: Verdict
    details: Mapping[str, Any] = field(default_factory=dict)
    reasons: tuple[Reason, ...] = ()
    assumptions: Mapping[str, bool] = field(default_factory=dict)

    def __post_init__(self):
        if not self.reasons:
            raise InvalidParams("a certificate must carry at least one reason")
        object.__setattr__(self, "details", MappingProxyType(dict(self.details)))
        object.__setattr__(self, "reasons", tuple(self.reasons))
        object.__setattr__(self, "assumptions", MappingProxyType(dict(self.assumptions)))


@dataclass(frozen=True)
class Depth2Witness:
    surface_kind: str
    tw_boundary: int
    tw_curve: int
    essential: bool
    non_separating: bool
    orientation_preserving: bool

    def __post_init__(self):
        if self.surface_kind not in ("punctured-torus", "punctured-klein-bottle"):
            raise InvalidParams(
                f"surface_kind must name a once-punctured torus or Klein bottle, "
                f"got {self.surface_kind!r}"
            )


# diagram


@dataclass(frozen=True)
class FrontEvent:
    kind: EventKind
    position: int
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.kind, EventKind):
            raise InvalidParams(f"event kind must be an EventKind, got {self.kind!r}")
        position = self.position
        if not isinstance(position, int) or isinstance(position, bool) or position < 1:
            raise InvalidParams(f"event position must be an integer >= 1, got {position!r}")
        object.__setattr__(self, "text", f"{self.kind.value} {position}\n")


@dataclass(frozen=True)
class FrontWord:
    events: tuple[FrontEvent, ...]
    _orientation: _Orientation = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "_orientation", _trace(events))

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class OrientedFront:
    word: FrontWord
    base_direction: Direction
    arc_directions: tuple[Direction, ...]
    writhe: int
    up_cusps: int
    down_cusps: int


# knotdata


@dataclass(frozen=True)
class KnotRecord:
    family: str
    max_tb: int | None
    rot_at_max_tb: frozenset[int]
    chi: int
    g_s: int | None = None
    plus_one_surgery_overtwisted: bool | None = None
    ambient: str = AMBIENT_TIGHT_S3
    order_positive: bool = False

    def __post_init__(self):
        object.__setattr__(self, "rot_at_max_tb", frozenset(self.rot_at_max_tb))
        if self.chi > 1:
            raise InvalidParams(f"chi must be <= 1, got {self.chi}")
        if self.chi % 2 == 0:
            raise InvalidParams(f"chi of a knot's Seifert surface is odd, got {self.chi}")
        if self.g_s is not None and self.g_s < 0:
            raise InvalidParams("smooth 4-ball genus must be nonnegative")
        if self.ambient == AMBIENT_TIGHT_S3 and self.max_tb is not None:
            for r in self.rot_at_max_tb:
                if self.max_tb + abs(r) > -self.chi:
                    raise InvalidParams(
                        f"record violates the Bennequin bound: "
                        f"{self.max_tb} + |{r}| > {-self.chi}"
                    )


# surgery


@dataclass(frozen=True)
class SurgeryComponent:
    id: str
    tb: int
    rot: int
    coeff: str

    def __post_init__(self):
        if self.coeff not in _COEFFS:
            raise DiagramError(
                f"component {self.id!r}: coeff must be one of {_COEFFS}, got {self.coeff!r}"
            )


@dataclass(frozen=True)
class SurgeryDiagram:
    components: tuple[SurgeryComponent, ...]
    lk: Matrix
    distinguished: str

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "lk", tuple(tuple(row) for row in self.lk))
        ids = [c.id for c in self.components]
        if len(set(ids)) != len(ids):
            raise DiagramError("component ids must be unique")
        if self.distinguished not in ids:
            raise DiagramError(f"distinguished id {self.distinguished!r} not present")
        passive = [c.id for c in self.components if c.coeff == COEFF_PASSIVE]
        if passive != [self.distinguished]:
            raise DiagramError(
                "exactly the distinguished component must carry the passive coefficient"
            )
        n = len(self.components)
        if len(self.lk) != n or any(len(row) != n for row in self.lk):
            raise DiagramError("linking matrix shape must match the component count")
        for i, row in enumerate(self.lk):
            if row[i]:
                raise DiagramError(f"self-linking entry for {ids[i]!r} is not allowed")
            if any(row[j] != self.lk[j][i] for j in range(i)):
                raise DiagramError("linking matrix must be symmetric")


# surgery, before SurgeryDiagram.build derived its diagram

_SHAPE = "linking matrix shape must match the component count"


def _read_matrix(value, what, error) -> Matrix:
    """The rule of a matrix of integers, a tuple or a list of rows that are
    each a tuple or a list, stored as a tuple of rows."""
    if not isinstance(value, (tuple, list)):
        raise error(f"{what} must be a tuple or a list of rows, got {value!r}")
    rows = []
    for row in value:
        if not isinstance(row, (tuple, list)):
            raise error(f"{what} row must be a tuple or a list, got {row!r}")
        # a plain int, as nearly every entry is, needs no call to the rule
        rows.append(tuple([x if type(x) is int else read_int(x, f"{what} value", error) for x in row]))
    return tuple(rows)


class CheckedSurgeryDiagram(Value):
    """Ordered components, symmetric linking matrix, one passive component."""

    __slots__ = _fields = ("components", "lk", "distinguished")
    _rules = {"distinguished": read_str, "components": members(surgery.SurgeryComponent), "lk": _read_matrix}
    _error = DiagramError
    _labels = {"components": "a diagram's components"}

    def __init__(self, components: Sequence[surgery.SurgeryComponent], lk: Matrix, distinguished: str):
        self._set(components, lk, distinguished)
        components, lk = self.components, self.lk
        ids = [c.id for c in components]
        if len(set(ids)) != len(ids):
            raise DiagramError("component ids must be unique")
        if distinguished not in ids:
            raise DiagramError(f"distinguished id {distinguished!r} not present")
        passive = [c.id for c in components if c.coeff == COEFF_PASSIVE]
        if passive != [distinguished]:
            raise DiagramError("exactly the distinguished component must carry the passive coefficient")
        n = len(components)
        if len(lk) != n or any(len(row) != n for row in lk):
            raise DiagramError(_SHAPE)
        for i, row in enumerate(lk):
            if row[i]:
                raise DiagramError(f"self-linking entry for {ids[i]!r} is not allowed")
            if any(row[j] != lk[j][i] for j in range(i)):
                raise DiagramError("linking matrix must be symmetric")

    @classmethod
    def build(
        cls,
        components: Sequence[surgery.SurgeryComponent],
        lk_pairs: Sequence[tuple[str, str, int]],
        distinguished: str,
    ) -> "CheckedSurgeryDiagram":
        """Assemble the symmetric linking matrix from a list of [idA, idB, int] pairs (missing = 0)."""
        components = cls._rules["components"](components, cls._labels["components"], DiagramError)
        if not isinstance(lk_pairs, (list, tuple)):
            raise DiagramError(f"'lk' must be a list, got {lk_pairs!r}")
        index = {c.id: i for i, c in enumerate(components)}
        n = len(components)
        if len(index) != n:  # else a pair naming a repeated id reads as a self pair
            raise DiagramError("component ids must be unique")
        lk = [[0] * n for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for entry in lk_pairs:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
                raise DiagramError(f"bad lk entry {entry!r}; expected [idA, idB, int]")
            ida, idb, value = entry
            try:
                i, j = index[ida], index[idb]
            except (KeyError, TypeError):  # TypeError: an id that cannot be a key
                raise DiagramError(f"linking pair names unknown component: {ida!r}, {idb!r}") from None
            if i == j:
                raise DiagramError(f"self-linking entry for {ida!r} is not allowed")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise DiagramError(f"duplicate linking entry for ({ida!r}, {idb!r})")
            seen.add(key)
            lk[i][j] = lk[j][i] = value
        return cls(components, lk, distinguished)
