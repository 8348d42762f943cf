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

Arcs are the strand segments between cusps, numbered by the left cusp that
opens them: the k-th left cusp opens arc 2k below and arc 2k + 1 above.
Only public construction (``FrontWord(...)``, ``FrontWord.replace``, copies
and pickles, and so :func:`parse_front`) traces a word; an edit derives the
edited word's orientation from its parent's.  A stabilization opens its
zigzag as the second left cusp, so its arcs become 2 and 3, every later arc
moves up by two, and the continuation of arc 0 past the zigzag is now arc 2
or 3.  A destabilization deletes the two arcs of the removed left cusp,
every later arc moves down by two, and the strand that ran into the zigzag
takes over its continuation.  The writhe never changes.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from .errors import (
    EmptyWord,
    InvalidParams,
    MultipleComponents,
    NonzeroFinalStrands,
    PositionOutOfRange,
    UnknownToken,
    Value,
    member,
    members,
    read_int,
    read_str,
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


class FrontEvent(Value):
    # ``text`` is the event's line in :func:`serialize_front`, fixed when it is built.  Parsing builds
    # thousands, so the two fields are checked and stored here, not through a rule table.
    __slots__ = ("kind", "position", "text")
    _fields = ("kind", "position")

    def __init__(self, kind: EventKind, position: int):
        if not isinstance(kind, EventKind):
            raise InvalidParams(f"event kind must be an EventKind, got {kind!r}")
        if not isinstance(position, int) or isinstance(position, bool) or position < 1:
            raise InvalidParams(f"event position must be an integer >= 1, got {position!r}")
        store = object.__setattr__
        store(self, "kind", kind)
        store(self, "position", position)
        store(self, "text", f"{kind.value} {position}\n")


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


class FrontWord(Value):
    """A validated front word.  Construction rejects invalid words."""

    # ``_orientation`` is the orientation for a rightward base, found while validating
    __slots__ = ("events", "_orientation")
    _fields = ("events",)
    _rules = {"events": members(FrontEvent)}

    def __init__(self, events: tuple[FrontEvent, ...]):
        self._set(events)
        object.__setattr__(self, "_orientation", _trace(self.events))

    def __len__(self) -> int:
        return len(self.events)


class OrientedFront(Value):
    """A front word with a traversal direction on every arc.

    ``arc_directions[a]`` is the horizontal direction in which the component
    runs along arc ``a``.  Reversing the base direction flips every flag.
    """

    __slots__ = _fields = ("word", "base_direction", "arc_directions", "writhe", "up_cusps", "down_cusps")
    _rules = {
        "word": member(FrontWord), "base_direction": member(Direction), "arc_directions": members(Direction),
        "writhe": read_int, "up_cusps": read_int, "down_cusps": read_int,
    }


# The rules of the value arguments below, built here from the classes: a
# tracer may rebind the module global ``FrontWord``.
_read_word = OrientedFront._rules["word"]
_read_front = member(OrientedFront)


_NUMBER_RE = re.compile(r"[0-9]+")
# A comment runs from '#' to the next line boundary of ``str.splitlines``.
_COMMENT_RE = re.compile(r"#[^\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029]*")
_KINDS = {k.value: k for k in EventKind}


def _parse_event(tok: str, num: str | None, index: int) -> FrontEvent:
    """Check one ``token number`` pair (``num`` None when the stream ends
    after ``tok``) and build its event, the ``index``-th of the word."""
    if tok not in _KINDS:
        raise UnknownToken(f"unknown token {tok!r}")
    if num is None:
        raise UnknownToken(f"missing position after {tok!r}")
    if not _NUMBER_RE.fullmatch(num):
        raise UnknownToken(f"expected a positive integer after {tok!r}, got {num!r}")
    try:
        value = int(num)
    except ValueError:  # more digits than int() converts
        raise PositionOutOfRange(
            f"event {index}: a position of {len(num)} digits exceeds any strand count",
            event_index=index,
        ) from None
    if value < 1:
        raise PositionOutOfRange(f"event {index}: position must be >= 1", event_index=index)
    return FrontEvent(_KINDS[tok], value)


def parse_front(text: str) -> FrontWord:
    """Parse the ``l/r/x <position>`` token stream into a validated word.

    Each distinct ``token number`` pair is checked and built once, in order
    of first occurrence; its later occurrences share that (frozen) event.
    ``text`` must be a ``str``, or ``InvalidParams`` is raised.
    """
    tokens = _COMMENT_RE.sub("", read_str(text, "text", InvalidParams)).replace(";", " ").split()
    if not tokens:
        raise EmptyWord("no events in input")
    events: list[FrontEvent] = []
    known: dict[tuple[str, str], FrontEvent] = {}
    for pair in zip(tokens[::2], tokens[1::2]):
        event = known.get(pair)
        if event is None:
            event = known[pair] = _parse_event(*pair, len(events))
        events.append(event)
    if len(tokens) % 2:
        _parse_event(tokens[-1], None, len(events))
    return FrontWord(tuple(events))


def serialize_front(word: FrontWord) -> str:
    """One event per line; inverse of :func:`parse_front`."""
    return "".join([e.text for e in _read_word(word, "word", InvalidParams).events])


def resolve_orientation(word: FrontWord, base_direction: Direction = Direction.RIGHTWARD) -> OrientedFront:
    """Orient the component and derive writhe and cusp counts.

    The traversal starts on the lower strand of the first left cusp, moving
    in ``base_direction``.  The word was oriented for a rightward base when
    it was validated; a leftward base flips every arc and swaps up and down
    cusps, and leaves the writhe as it is.  Only ``base_direction`` is read
    again: the rest is derived from the word.
    """
    o = _read_word(word, "word", InvalidParams)._orientation
    OrientedFront._rules["base_direction"](base_direction, "base_direction", InvalidParams)
    rightward, leftward = Direction.RIGHTWARD, Direction.LEFTWARD
    if base_direction is leftward:
        dirs = tuple([leftward if d is rightward else rightward for d in o.arc_directions])
        return OrientedFront._derived(word, base_direction, dirs, o.writhe, o.down_cusps, o.up_cusps)
    return OrientedFront._derived(word, base_direction, o.arc_directions, o.writhe, o.up_cusps, o.down_cusps)


def tb(front: OrientedFront) -> int:
    """Thurston-Bennequin number: writhe minus half the cusp count."""
    front = _read_front(front, "front", InvalidParams)
    return front.writhe - (front.up_cusps + front.down_cusps) // 2


def rot(front: OrientedFront) -> int:
    """Rotation number: half the down-minus-up cusp count."""
    front = _read_front(front, "front", InvalidParams)
    return (front.down_cusps - front.up_cusps) // 2


def reverse_orientation(front: OrientedFront) -> OrientedFront:
    """Flip every direction flag; tb is unchanged and rot negates."""
    front = _read_front(front, "front", InvalidParams)
    return resolve_orientation(front.word, front.base_direction.reversed)


def _edited(word: FrontWord, events: tuple[FrontEvent, ...], orientation: _Orientation) -> FrontWord:
    """A word of ``word``'s class with a known orientation, built without a
    trace.  The class comes from ``word``, not from the module global
    ``FrontWord``, which a tracer may rebind."""
    edited = type(word)._derived(events)
    object.__setattr__(edited, "_orientation", orientation)
    return edited


# The two zigzags, inserted after the first left cusp.  ``l 1 r 2`` runs arc 0
# into its right cusp from above and back along arc 3: two down cusps for a
# rightward base.  ``l 2 r 1`` runs arc 0 in from below and back along arc 2:
# two up cusps.
_ZIGZAG_DOWN = (FrontEvent(EventKind.LEFT_CUSP, 1), FrontEvent(EventKind.RIGHT_CUSP, 2))
_ZIGZAG_UP = (FrontEvent(EventKind.LEFT_CUSP, 2), FrontEvent(EventKind.RIGHT_CUSP, 1))


def stabilize_front(front: OrientedFront, sign: str) -> OrientedFront:
    """Insert a stabilization zigzag right after the first left cusp.

    The zigzag rides the lower strand of the first cusp, whose traversal
    direction equals the base direction; which of the two zigzag shapes gives
    the requested sign depends on that direction.  tb drops by 1 and rot
    moves by +1 or -1 according to ``sign``.
    """
    if sign not in ("+", "-"):
        raise InvalidParams(f"sign must be '+' or '-', got {sign!r}")
    word = _read_front(front, "front", InvalidParams).word
    o = word._orientation
    dirs = o.arc_directions
    rightward, leftward = Direction.RIGHTWARD, Direction.LEFTWARD
    if (sign == "+") == (front.base_direction is rightward):
        zigzag = _ZIGZAG_DOWN
        o = _Orientation(dirs[:2] + (rightward, leftward) + dirs[2:], o.writhe, o.up_cusps, o.down_cusps + 2)
    else:
        zigzag = _ZIGZAG_UP
        o = _Orientation(dirs[:2] + (leftward, rightward) + dirs[2:], o.writhe, o.up_cusps + 2, o.down_cusps)
    events = word.events[:1] + zigzag + word.events[1:]
    return resolve_orientation(_edited(word, events, o), front.base_direction)


def _is_zigzag(a: FrontEvent, b: FrontEvent) -> bool:
    """A left cusp followed by a right cusp at offset one: a removable zigzag."""
    return a.kind is EventKind.LEFT_CUSP and b.kind is EventKind.RIGHT_CUSP and abs(a.position - b.position) == 1


def detect_syntactic_destabilization(word: FrontWord) -> tuple[int, int] | None:
    """Find a removable zigzag: adjacent left/right cusps at offset one.

    Returns the event-index pair of the first such zigzag, or None.  Every
    such pair rides a single strand, so removing it always leaves a valid
    word.  Absence does not certify that the knot admits no destabilization
    at all.
    """
    ev = _read_word(word, "word", InvalidParams).events
    for k in range(len(ev) - 1):
        if _is_zigzag(ev[k], ev[k + 1]):
            return (k, k + 1)
    return None


def destabilize_front(word: FrontWord, pair: tuple[int, int]) -> FrontWord:
    """Remove the zigzag found by :func:`detect_syntactic_destabilization`.

    The zigzag's left cusp opens arcs 2m and 2m + 1, where m counts the left
    cusps before it.  Both of its cusps are up when arc 2m runs leftward
    (for a rightward base) and down otherwise.
    """
    ev = _read_word(word, "word", InvalidParams).events
    i, j = pair if isinstance(pair, (tuple, list)) and len(pair) == 2 else (-1, -1)
    positions = type(i) is int and type(j) is int and 0 <= i < len(ev) and j == i + 1 < len(ev)
    if not (positions and _is_zigzag(ev[i], ev[j])):
        raise InvalidParams(f"events {pair!r} do not form a removable zigzag")
    left_cusp = EventKind.LEFT_CUSP
    lo = 2 * sum([e.kind is left_cusp for e in ev[:i]])
    o = word._orientation
    dirs = o.arc_directions
    up = 2 * (dirs[lo] is Direction.LEFTWARD)  # cusps removed that were up
    o = _Orientation(dirs[:lo] + dirs[lo + 2 :], o.writhe, o.up_cusps - up, o.down_cusps - (2 - up))
    return _edited(word, ev[:i] + ev[j + 1 :], o)
