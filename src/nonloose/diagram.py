"""Combinatorial front diagrams of Legendrian knots.

A front word lists events left to right, each acting on a stack of strands
numbered upward from 1:

  * ``l i`` left cusp: inserts two strands, joined at the cusp, at heights
    i and i+1 (strands previously at height >= i move up by two);
  * ``r i`` right cusp: joins and removes the strands at heights i and i+1;
  * ``x i`` crossing: the strands at heights i and i+1 exchange heights.

A word is valid when every position is in range, the strand count starts and
ends at zero without dipping negative, and tracing the cusp identifications
closes up into a single component.  Knots only; words tracing out links are
rejected.

Sign conventions, fixed once here and inherited by everything downstream:

  * At a crossing the descending strand has the lesser slope and passes in
    front of the ascending one.
  * A crossing is positive exactly when its two strands point in the same
    horizontal direction.  With the resolution rule above this is the usual
    planar convention (positively oriented over/under tangent frame), and it
    gives the standard maximal-tb trefoil front
    ``l 1 ; l 2 ; x 1 ; x 1 ; x 1 ; r 2 ; r 1`` writhe +3.
  * A cusp counts as "up" when the traversal enters it on the lower strand
    and "down" when it enters on the upper strand, so a positive
    stabilization creates two down cusps.

With writhe w and cusp counts (u, d):  tb = w - (u + d)/2,  rot = (d - u)/2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import (
    EmptyWord,
    FrontEditError,
    FrontParseError,
    MultipleComponents,
    NonzeroFinalStrands,
    PositionOutOfRange,
    UnknownToken,
)


class EventKind(Enum):
    LEFT_CUSP = "l"
    RIGHT_CUSP = "r"
    CROSSING = "x"


class Direction(Enum):
    RIGHTWARD = "rightward"
    LEFTWARD = "leftward"

    @property
    def reversed(self) -> "Direction":
        return Direction.LEFTWARD if self is Direction.RIGHTWARD else Direction.RIGHTWARD


@dataclass(frozen=True)
class FrontEvent:
    kind: EventKind
    position: int


class _Orientation(NamedTuple):
    """Orientation of a valid word for a rightward base.

    ``arc_directions[a]`` is the direction the component runs along arc
    ``a``; the cusp counts follow the convention of the module docstring.
    """

    arc_directions: tuple[Direction, ...]
    writhe: int
    up_cusps: int
    down_cusps: int


def _trace(events: tuple[FrontEvent, ...]) -> _Orientation:
    """Validate a word and orient it for a rightward base, in one pass.

    Arcs are maximal strand segments between cusps, numbered in creation
    order, so the left cusp opening arcs 2m and 2m + 1 has arc 2m below.
    The sweep records which arc each arc meets at its right cusp and whether
    it is the lower strand there.  The traversal then starts on arc 0 moving
    rightward, alternating right cusps and left cusps until it is back on
    arc 0; a word is one component exactly when that visits every arc.
    """
    if not events:
        raise EmptyWord("a front word needs at least one event")
    left_cusp, crossing = EventKind.LEFT_CUSP, EventKind.CROSSING
    stack: list[int] = []
    n = 0  # len(stack)
    partner: list[int] = []  # arc -> the arc it meets at its right cusp
    lower: list[bool] = []  # arc -> it is the lower strand at its right cusp
    crossings: list[tuple[int, int]] = []  # (ascending arc, descending arc)

    for k, ev in enumerate(events):
        i = ev.position
        kind = ev.kind
        if kind is crossing:
            if not 1 <= i <= n - 1:
                raise PositionOutOfRange(
                    f"event {k}: crossing at {i} with {n} strands", event_index=k
                )
            asc, desc = stack[i - 1], stack[i]
            stack[i - 1], stack[i] = desc, asc
            crossings.append((asc, desc))
        elif kind is left_cusp:
            if not 1 <= i <= n + 1:
                raise PositionOutOfRange(
                    f"event {k}: left cusp at {i} with {n} strands", event_index=k
                )
            lo = len(partner)
            stack[i - 1 : i - 1] = (lo, lo + 1)
            n += 2
            partner += (-1, -1)
            lower += (False, False)
        else:
            if not 1 <= i <= n - 1:
                raise PositionOutOfRange(
                    f"event {k}: right cusp at {i} with {n} strands", event_index=k
                )
            lo, hi = stack[i - 1], stack[i]
            del stack[i - 1 : i + 1]
            n -= 2
            partner[lo], partner[hi] = hi, lo
            lower[lo] = True

    if stack:
        raise NonzeroFinalStrands(f"{n} strands left open at the end")

    rightward, leftward = Direction.RIGHTWARD, Direction.LEFTWARD
    dirs = [leftward] * len(partner)
    up = visited = arc = 0
    while True:
        dirs[arc] = rightward
        up += lower[arc]  # into a right cusp on the lower strand
        arc = partner[arc]  # then leftward along the partner
        up += not arc & 1  # into its left cusp on the lower strand
        arc ^= 1  # then rightward along the left cusp's other arc
        visited += 2
        if arc == 0:
            break
    if visited != len(partner):
        raise MultipleComponents("front word traces out more than one component")
    same = sum([dirs[asc] is dirs[desc] for asc, desc in crossings])
    return _Orientation(tuple(dirs), 2 * same - len(crossings), up, visited - up)


@dataclass(frozen=True)
class FrontWord:
    """A validated front word.  Construction rejects invalid words."""

    events: tuple[FrontEvent, ...]
    # orientation for a rightward base, found while validating
    _orientation: _Orientation = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "_orientation", _trace(events))

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class OrientedFront:
    """A front word with a traversal direction on every arc.

    ``arc_directions[a]`` is the horizontal direction in which the component
    runs along arc ``a``.  Reversing the base direction flips every flag.
    """

    word: FrontWord
    base_direction: Direction
    arc_directions: tuple[Direction, ...]
    writhe: int
    up_cusps: int
    down_cusps: int


_NUMBER_RE = re.compile(r"[0-9]+")
_KINDS = {k.value: k for k in EventKind}


def parse_front(text: str) -> FrontWord:
    """Parse the ``l/r/x <position>`` token stream into a validated word."""
    stripped = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    tokens = stripped.replace(";", " ").split()
    if not tokens:
        raise EmptyWord("no events in input")
    events: list[FrontEvent] = []
    pos = 0
    while pos < len(tokens):
        tok = tokens[pos]
        if tok not in _KINDS:
            raise UnknownToken(f"unknown token {tok!r}")
        if pos + 1 >= len(tokens):
            raise UnknownToken(f"missing position after {tok!r}")
        num = tokens[pos + 1]
        if not _NUMBER_RE.fullmatch(num):
            raise UnknownToken(f"expected a positive integer after {tok!r}, got {num!r}")
        try:
            value = int(num)
        except ValueError:  # more digits than int() converts
            raise PositionOutOfRange(
                f"event {len(events)}: a position of {len(num)} digits exceeds any strand count",
                event_index=len(events),
            ) from None
        if value < 1:
            raise PositionOutOfRange(
                f"event {len(events)}: position must be >= 1", event_index=len(events)
            )
        events.append(FrontEvent(_KINDS[tok], value))
        pos += 2
    return FrontWord(tuple(events))


def serialize_front(word: FrontWord) -> str:
    """One event per line; inverse of :func:`parse_front`."""
    # ``_value_`` is what the ``value`` property returns, without the property call
    return "".join([f"{e.kind._value_} {e.position}\n" for e in word.events])


def resolve_orientation(
    word: FrontWord, base_direction: Direction = Direction.RIGHTWARD
) -> OrientedFront:
    """Orient the component and derive writhe and cusp counts.

    The traversal starts on the lower strand of the first left cusp, moving
    in ``base_direction``.  The word was oriented for a rightward base when
    it was validated; a leftward base flips every arc and swaps up and down
    cusps, and leaves the writhe as it is.
    """
    o = word._orientation
    rightward, leftward = Direction.RIGHTWARD, Direction.LEFTWARD
    if base_direction is leftward:
        dirs = tuple([leftward if d is rightward else rightward for d in o.arc_directions])
        return OrientedFront(word, base_direction, dirs, o.writhe, o.down_cusps, o.up_cusps)
    return OrientedFront(word, base_direction, o.arc_directions, o.writhe, o.up_cusps, o.down_cusps)


def tb(front: OrientedFront) -> int:
    """Thurston-Bennequin number: writhe minus half the cusp count."""
    return front.writhe - (front.up_cusps + front.down_cusps) // 2


def rot(front: OrientedFront) -> int:
    """Rotation number: half the down-minus-up cusp count."""
    return (front.down_cusps - front.up_cusps) // 2


def reverse_orientation(front: OrientedFront) -> OrientedFront:
    """Flip every direction flag; tb is unchanged and rot negates."""
    return resolve_orientation(front.word, front.base_direction.reversed)


def stabilize_front(front: OrientedFront, sign: str) -> OrientedFront:
    """Insert a stabilization zigzag right after the first left cusp.

    The zigzag rides the lower strand of the first cusp, whose traversal
    direction equals the base direction; which of the two zigzag shapes gives
    the requested sign depends on that direction.  tb drops by 1 and rot
    moves by +1 or -1 according to ``sign``.
    """
    if sign not in ("+", "-"):
        raise FrontEditError("sign must be '+' or '-'")
    positive = sign == "+"
    onto_rightward = front.base_direction is Direction.RIGHTWARD
    if positive == onto_rightward:
        zigzag = (
            FrontEvent(EventKind.LEFT_CUSP, 1),
            FrontEvent(EventKind.RIGHT_CUSP, 2),
        )
    else:
        zigzag = (
            FrontEvent(EventKind.LEFT_CUSP, 2),
            FrontEvent(EventKind.RIGHT_CUSP, 1),
        )
    events = front.word.events[:1] + zigzag + front.word.events[1:]
    return resolve_orientation(FrontWord(events), front.base_direction)


def detect_syntactic_destabilization(word: FrontWord) -> tuple[int, int] | None:
    """Find a removable zigzag: adjacent left/right cusps at offset one.

    Returns the event-index pair of the first such zigzag, or None.  Absence
    does not certify that the knot admits no destabilization at all.
    """
    ev = word.events
    for k in range(len(ev) - 1):
        a, b = ev[k], ev[k + 1]
        if (
            a.kind is EventKind.LEFT_CUSP
            and b.kind is EventKind.RIGHT_CUSP
            and abs(a.position - b.position) == 1
        ):
            candidate = ev[:k] + ev[k + 2 :]
            try:
                FrontWord(candidate)
            except FrontParseError:
                continue
            return (k, k + 1)
    return None


def destabilize_front(word: FrontWord, pair: tuple[int, int]) -> FrontWord:
    """Remove the zigzag found by :func:`detect_syntactic_destabilization`."""
    i, j = pair
    ev = word.events
    if not (
        0 <= i < len(ev)
        and j == i + 1
        and j < len(ev)
        and ev[i].kind is EventKind.LEFT_CUSP
        and ev[j].kind is EventKind.RIGHT_CUSP
        and abs(ev[i].position - ev[j].position) == 1
    ):
        raise FrontEditError(f"events {pair} do not form a removable zigzag")
    return FrontWord(ev[:i] + ev[j + 1 :])
