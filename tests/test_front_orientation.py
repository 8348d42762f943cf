"""FrontWord validates and orients a word in one pass; these tests hold that
pass to an independent recount and pin down the word's value semantics."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonloose.diagram import (
    Direction,
    EventKind,
    FrontEvent,
    FrontWord,
    destabilize_front,
    detect_syntactic_destabilization,
    parse_front,
    resolve_orientation,
    reverse_orientation,
    serialize_front,
    stabilize_front,
)
from nonloose.errors import (
    EmptyWord,
    FrontParseError,
    InvalidParams,
    MultipleComponents,
    NonzeroFinalStrands,
    PositionOutOfRange,
)
from examples import TREFOIL, UNKNOT
from wordgen import random_front_word

words = st.randoms(use_true_random=False).map(random_front_word)
bases = st.sampled_from(list(Direction))


def recount(events, base):
    """Orientation of ``events`` by a separate trace of the arcs and a walk
    over the cusp identifications; raises the error FrontWord must raise.

    Returns (arc directions, writhe, up cusps, down cusps).
    """
    if not events:
        raise EmptyWord("empty")
    stack, arcs = [], 0
    left, right, crossings = {}, {}, []  # arc -> (partner, is lower strand)
    for k, ev in enumerate(events):
        n, i = len(stack), ev.position
        if ev.kind is EventKind.LEFT_CUSP:
            if not 1 <= i <= n + 1:
                raise PositionOutOfRange("left cusp", event_index=k)
            lo, hi = arcs, arcs + 1
            arcs += 2
            stack[i - 1 : i - 1] = [lo, hi]
            left[lo], left[hi] = (hi, True), (lo, False)
        elif ev.kind is EventKind.RIGHT_CUSP:
            if not 1 <= i <= n - 1:
                raise PositionOutOfRange("right cusp", event_index=k)
            lo, hi = stack[i - 1], stack[i]
            del stack[i - 1 : i + 1]
            right[lo], right[hi] = (hi, True), (lo, False)
        else:
            if not 1 <= i <= n - 1:
                raise PositionOutOfRange("crossing", event_index=k)
            crossings.append((stack[i - 1], stack[i]))
            stack[i - 1], stack[i] = stack[i], stack[i - 1]
    if stack:
        raise NonzeroFinalStrands("open")

    walk, arc, moving_right = [], 0, True
    while True:
        partner, entered_lower = (right if moving_right else left)[arc]
        walk.append((arc, moving_right, entered_lower))
        arc, moving_right = partner, not moving_right
        if arc == 0 and moving_right:
            break
    if len(walk) != arcs:
        raise MultipleComponents("links")

    flip = base is Direction.LEFTWARD
    dirs = [None] * arcs
    up = down = 0
    for arc, moving_right, entered_lower in walk:
        dirs[arc] = Direction.RIGHTWARD if moving_right != flip else Direction.LEFTWARD
        if entered_lower != flip:
            up += 1
        else:
            down += 1
    writhe = sum(1 if dirs[a] is dirs[d] else -1 for a, d in crossings)
    return tuple(dirs), writhe, up, down


def oriented_data(front):
    return front.arc_directions, front.writhe, front.up_cusps, front.down_cusps


@settings(max_examples=200, deadline=None)
@given(words, bases)
def test_orientation_matches_recount(word, base):
    f = resolve_orientation(word, base)
    assert f.word is word and f.base_direction is base
    assert oriented_data(f) == recount(word.events, base)


@settings(max_examples=100, deadline=None)
@given(words, bases, st.sampled_from(["+", "-"]))
def test_edited_words_match_recount(word, base, sign):
    g = stabilize_front(resolve_orientation(word, base), sign)
    assert oriented_data(g) == recount(g.word.events, base)
    r = reverse_orientation(g)
    assert oriented_data(r) == recount(g.word.events, base.reversed)
    pair = detect_syntactic_destabilization(g.word)
    h = destabilize_front(g.word, pair)
    assert oriented_data(resolve_orientation(h, base)) == recount(h.events, base)


event_lists = st.lists(
    st.builds(FrontEvent, st.sampled_from(list(EventKind)), st.integers(1, 4)),
    max_size=10,
)


def cusps(k, last):
    """``l 1`` k times, then ``r last``: 2k arcs from k + 1 events."""
    return [FrontEvent(EventKind.LEFT_CUSP, 1)] * k + [FrontEvent(EventKind.RIGHT_CUSP, last)]


X1 = FrontEvent(EventKind.CROSSING, 1)


# Words with more arcs than events, and a shared event that is out of range
# at 1002 after it was in range at 1 to 1000: the random lists never reach them.
@example(cusps(3, 2))
@example(cusps(3, 1))
@example(cusps(1000, 2))
@example(cusps(1000, 1))
@example([FrontEvent(EventKind.LEFT_CUSP, 1), *[X1] * 1000, FrontEvent(EventKind.RIGHT_CUSP, 1), X1])
@settings(max_examples=400, deadline=None)
@given(event_lists)
def test_validation_matches_recount(events):
    """Arbitrary event lists: FrontWord accepts exactly what the recount
    accepts, and rejects the rest with the same error."""
    try:
        want = recount(events, Direction.RIGHTWARD)
    except FrontParseError as exc:
        with pytest.raises(type(exc)) as got:
            FrontWord(events)
        if isinstance(exc, PositionOutOfRange):
            assert got.value.event_index == exc.event_index
        return
    assert oriented_data(resolve_orientation(FrontWord(events))) == want


class TestValueSemantics:
    def test_two_renderings_compare_and_hash_equal(self):
        a = parse_front(TREFOIL)
        b = parse_front("# trefoil\n" + serialize_front(a))
        c = FrontWord(list(a.events))
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
        assert len({a, b, c}) == 1

    def test_different_words_differ(self):
        assert parse_front(TREFOIL) != parse_front(UNKNOT)

    def test_repr_shows_only_events(self):
        word = parse_front(UNKNOT)
        assert repr(word) == f"FrontWord(events={word.events!r})"

    def test_replace_reorients(self):
        trefoil = parse_front(TREFOIL)
        stabilized = stabilize_front(resolve_orientation(trefoil), "+").word
        word = trefoil.replace(events=stabilized.events)
        assert word == stabilized
        for base in Direction:
            assert oriented_data(resolve_orientation(word, base)) == recount(stabilized.events, base)

    def test_replace_validates(self):
        with pytest.raises(MultipleComponents):
            parse_front(TREFOIL).replace(events=parse_front("l 1 ; r 1").events * 2)


class TestBadFrontEdits:
    def test_bad_sign_is_invalid_params(self):
        with pytest.raises(InvalidParams, match="sign must be '\\+' or '-'"):
            stabilize_front(resolve_orientation(parse_front("l 1 r 1")), "x")

    @pytest.mark.parametrize("pair", [(0, 2), (0, 1), (5, 6), (-1, 0)])
    def test_bad_pair_is_invalid_params(self, pair):
        with pytest.raises(InvalidParams, match=r"events \(.*\) do not form a removable zigzag"):
            destabilize_front(parse_front(TREFOIL), pair)

