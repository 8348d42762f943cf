"""Edits derive a word's orientation from its parent's, parsing builds each
distinct token pair once, and serializing joins each event's fixed text.
These tests hold all three to the slower code they replaced, kept here as
oracles, and to the independent recount."""

import copy
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonloose import diagram
from nonloose.diagram import (
    Direction,
    EventKind,
    FrontEvent,
    FrontWord,
    destabilize_front,
    detect_syntactic_destabilization,
    parse_front,
    resolve_orientation,
    rot,
    serialize_front,
    stabilize_front,
    tb,
)
from nonloose.errors import EmptyWord, FrontParseError, InvalidParams, PositionOutOfRange, UnknownToken
from test_front_orientation import oriented_data, recount
from wordgen import random_front_word

LEFT, RIGHT = EventKind.LEFT_CUSP, EventKind.RIGHT_CUSP


def with_zigzags(rng: random.Random, word: FrontWord, count: int) -> FrontWord:
    """``word`` with ``count`` zigzags inserted on random strands at random
    places, each of a random shape (``l h r h+1`` or ``l h+1 r h``)."""
    events = list(word.events)
    for _ in range(count):
        strands, widths = 0, []  # strand count before each event
        for ev in events:
            widths.append(strands)
            strands += {LEFT: 2, RIGHT: -2}.get(ev.kind, 0)
        k = rng.choice([k for k, n in enumerate(widths) if n])
        h = rng.randint(1, widths[k])
        lo, hi = (h, h + 1) if rng.random() < 0.5 else (h + 1, h)
        events[k:k] = [FrontEvent(LEFT, lo), FrontEvent(RIGHT, hi)]
    return FrontWord(tuple(events))


def zigzags(word: FrontWord) -> list[tuple[int, int]]:
    ev = word.events
    return [
        (k, k + 1)
        for k in range(len(ev) - 1)
        if ev[k].kind is LEFT and ev[k + 1].kind is RIGHT and abs(ev[k].position - ev[k + 1].position) == 1
    ]


def old_detect(word: FrontWord) -> tuple[int, int] | None:
    """The search that validated each candidate in turn."""
    ev = word.events
    for k in range(len(ev) - 1):
        a, b = ev[k], ev[k + 1]
        if a.kind is LEFT and b.kind is RIGHT and abs(a.position - b.position) == 1:
            try:
                FrontWord(ev[:k] + ev[k + 2 :])
            except FrontParseError:
                continue
            return (k, k + 1)
    return None


@st.composite
def zigzag_words(draw):
    rng = draw(st.randoms(use_true_random=False))
    return with_zigzags(rng, random_front_word(rng), draw(st.integers(0, 4)))


bases = st.sampled_from(list(Direction))


@settings(max_examples=200, deadline=None)
@given(zigzag_words(), bases)
def test_every_zigzag_destabilizes_like_a_retrace(word, base):
    parent = resolve_orientation(word, base)
    for pair in zigzags(word):
        edited = destabilize_front(word, pair)
        assert type(edited) is FrontWord
        assert edited == FrontWord(edited.events)
        f = resolve_orientation(edited, base)
        assert oriented_data(f) == recount(edited.events, base)
        assert tb(f) == tb(parent) + 1 and abs(rot(f) - rot(parent)) == 1


@settings(max_examples=100, deadline=None)
@given(zigzag_words(), bases, st.sampled_from(["+", "-"]))
def test_every_zigzag_of_a_stabilized_word_destabilizes_like_a_retrace(word, base, sign):
    g = stabilize_front(resolve_orientation(word, base), sign)
    assert oriented_data(g) == recount(g.word.events, base)
    for pair in zigzags(g.word):
        edited = destabilize_front(g.word, pair)
        assert oriented_data(resolve_orientation(edited, base)) == recount(edited.events, base)


@settings(max_examples=200, deadline=None)
@given(zigzag_words(), bases, st.sampled_from(["+", "-"]))
def test_detect_matches_the_validating_search(word, base, sign):
    assert detect_syntactic_destabilization(word) == old_detect(word)
    stabilized = stabilize_front(resolve_orientation(word, base), sign).word
    assert detect_syntactic_destabilization(stabilized) == old_detect(stabilized) == (1, 2)


def pipeline(text: str) -> list:
    word = parse_front(text)
    out = [serialize_front(word)]
    for base in Direction:
        for sign in ("+", "-"):
            g = stabilize_front(resolve_orientation(word, base), sign)
            pair = detect_syntactic_destabilization(g.word)
            h = destabilize_front(g.word, pair)
            out += [oriented_data(g), serialize_front(g.word), pair, oriented_data(resolve_orientation(h, base))]
            out.append(serialize_front(h))
    return out


def test_edits_do_not_look_up_the_module_global(monkeypatch):
    """A tracer rebinds ``diagram.FrontWord`` to a wrapper function; edits
    still build real words, and only parsing goes through the global."""
    rng = random.Random(6)
    texts = [serialize_front(with_zigzags(rng, random_front_word(rng), 2)) for _ in range(20)]
    want = [pipeline(text) for text in texts]
    original, calls = diagram.FrontWord, []

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(diagram, "FrontWord", wrapper)
    assert [pipeline(text) for text in texts] == want
    assert len(calls) == len(texts)


def old_parse_front(text: str) -> FrontWord:
    """The parser that checked and built every event in turn."""
    stripped = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    tokens = stripped.replace(";", " ").split()
    if not tokens:
        raise EmptyWord("no events in input")
    kinds = {k.value: k for k in EventKind}
    events: list[FrontEvent] = []
    pos = 0
    while pos < len(tokens):
        tok = tokens[pos]
        if tok not in kinds:
            raise UnknownToken(f"unknown token {tok!r}")
        if pos + 1 >= len(tokens):
            raise UnknownToken(f"missing position after {tok!r}")
        num = tokens[pos + 1]
        if not re.fullmatch(r"[0-9]+", num):
            raise UnknownToken(f"expected a positive integer after {tok!r}, got {num!r}")
        try:
            value = int(num)
        except ValueError:
            raise PositionOutOfRange(
                f"event {len(events)}: a position of {len(num)} digits exceeds any strand count",
                event_index=len(events),
            ) from None
        if value < 1:
            raise PositionOutOfRange(
                f"event {len(events)}: position must be >= 1", event_index=len(events)
            )
        events.append(FrontEvent(kinds[tok], value))
        pos += 2
    return FrontWord(tuple(events))


kind_tokens = st.sampled_from(["l", "r", "x", "y", "L", "lx", "1", "#"])
number_tokens = st.one_of(
    st.integers(0, 5).map(str),
    st.sampled_from(["007", "00", "-1", "+1", "1.0", "١", "²", "x", "9" * 5000, "0" * 4400 + "1"]),
)
pair_streams = st.lists(st.tuples(kind_tokens, number_tokens), max_size=24).map(
    lambda pairs: [t for pair in pairs for t in pair]
)
token_streams = st.one_of(
    pair_streams,
    st.tuples(pair_streams, kind_tokens).map(lambda s: s[0] + [s[1]]),  # odd count
    st.lists(st.one_of(kind_tokens, number_tokens), max_size=24),
)


def outcome(parse, text):
    try:
        return "ok", parse(text).events
    except FrontParseError as exc:
        return type(exc), str(exc), getattr(exc, "event_index", None)


@settings(max_examples=600, deadline=None)
@given(token_streams, st.sampled_from([" ", "\n", " ; "]))
def test_parse_matches_the_event_by_event_loop(tokens, sep):
    text = sep.join(tokens)
    assert outcome(parse_front, text) == outcome(old_parse_front, text)


@pytest.mark.parametrize("seed", range(10))
def test_parse_matches_the_event_by_event_loop_on_words(seed):
    rng = random.Random(seed)
    text = serialize_front(with_zigzags(rng, random_front_word(rng, 200), 5))
    assert outcome(parse_front, text) == outcome(old_parse_front, text)


@pytest.mark.parametrize(
    "text, index",
    [
        ("l 1 x 0 r 1 x 0", 1),
        ("l 1 l 2 x 1 x 1 x 00 r 2 x 00 r 1", 4),
        ("l 1 l 1 r 2 l 1 r " + "9" * 5000 + " r " + "9" * 5000, 4),
    ],
)
def test_a_failing_pair_names_its_first_occurrence(text, index):
    with pytest.raises(PositionOutOfRange) as exc:
        parse_front(text)
    assert exc.value.event_index == index and str(exc.value).startswith(f"event {index}: ")
    assert outcome(parse_front, text) == outcome(old_parse_front, text)


def test_repeated_pairs_share_one_event():
    word = parse_front("l 1 l 1 r 2 l 01 r 2 r 1")
    ev = word.events
    assert ev[0] is ev[1] and ev[2] is ev[4]
    assert ev[3] == ev[0] and ev[3] is not ev[0]  # "01" is a different token


# Every code point at which str.splitlines ends a line; a '#' comment runs
# to the first of them.
LINE_BOUNDARIES = ["\n", "\x0b", "\x0c", "\r", "\r\n", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_line_boundaries_are_those_of_splitlines():
    ends = [c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) == 2]
    assert ends == [b for b in LINE_BOUNDARIES if len(b) == 1]


separators = st.tuples(
    st.sampled_from(["", "# note", "#"]), st.sampled_from([" ", " ; ", *LINE_BOUNDARIES])
).map("".join)


@settings(max_examples=600, deadline=None)
@given(
    token_streams.flatmap(
        lambda tokens: st.tuples(st.just(tokens), st.lists(separators, min_size=len(tokens), max_size=len(tokens)))
    )
)
def test_comments_end_where_the_event_by_event_loop_ends_them(stream):
    tokens, seps = stream
    text = "".join(t + s for t, s in zip(tokens, seps))
    assert outcome(parse_front, text) == outcome(old_parse_front, text)


@pytest.mark.parametrize(
    "text, events",
    [
        ("l 1 # c\rr 1\n", [("l", 1), ("r", 1)]),
        ("l 1 # x 1\nr 1", [("l", 1), ("r", 1)]),
        ("l 1 # ; x 1 ; 2 3 r 1 # r 1", [("l", 1), ("r", 1)]),
        ("# l 1 r 1\x85l 1 #x 1;x 1\x1cr 1 #", [("l", 1), ("r", 1)]),
        ("l 1;# 12 ;\r\nl 2 # l\x0bx 1 #\x0cx 1 #\x1dx 1 #\x1er 2 # r 1", [
            ("l", 1), ("l", 2), ("x", 1), ("x", 1), ("x", 1), ("r", 2), ("r", 1)
        ]),
    ],
)
def test_comments_hold_separators_digits_and_events(text, events):
    word = parse_front(text)
    assert [(e.kind.value, e.position) for e in word.events] == events
    assert outcome(parse_front, text) == outcome(old_parse_front, text)


def old_serialize_front(word: FrontWord) -> str:
    """The serializer that formatted every event on every call."""
    return "".join(f"{e.kind.value} {e.position}\n" for e in word.events)


@settings(max_examples=200, deadline=None)
@given(zigzag_words(), bases, st.sampled_from(["+", "-"]))
def test_serialize_matches_formatting_every_event(word, base, sign):
    stabilized = stabilize_front(resolve_orientation(word, base), sign).word
    words = [word, stabilized, destabilize_front(stabilized, detect_syntactic_destabilization(stabilized))]
    words += [destabilize_front(word, pair) for pair in zigzags(word)]
    for w in words:
        assert serialize_front(w) == old_serialize_front(w)
        assert serialize_front(parse_front(serialize_front(w))) == serialize_front(w)


@pytest.mark.parametrize("kind", list(EventKind))
def test_front_events_keep_their_value_semantics(kind):
    event = FrontEvent(kind, 12)
    assert repr(event) == f"FrontEvent(kind={kind!r}, position=12)"
    assert event == FrontEvent(kind, 12) and event != FrontEvent(kind, 13)
    assert hash(event) == hash((kind, 12))
    assert event.text == f"{kind.value} 12\n"
    assert FrontEvent(LEFT, 1) == parse_front("l 01 r 1").events[0]


@pytest.mark.parametrize(
    "rebuild",
    [
        FrontEvent.replace,
        lambda e: e.replace(position=e.position + 3),
        lambda e: e.replace(kind=EventKind.CROSSING),
        copy.copy,
        copy.deepcopy,
        lambda e: pickle.loads(pickle.dumps(e)),
    ],
    ids=["replace", "replace position", "replace kind", "copy", "deepcopy", "pickle"],
)
def test_event_text_survives_every_way_of_building_an_event(rebuild):
    for event in [*diagram._ZIGZAG_DOWN, *diagram._ZIGZAG_UP, *parse_front("l 1 l 2 x 1 x 1 x 1 r 2 r 1").events]:
        made = rebuild(event)
        assert made.text == f"{made.kind.value} {made.position}\n"


@pytest.mark.parametrize(
    "build",
    [
        lambda: FrontWord((FrontEvent(LEFT, True), FrontEvent(RIGHT, True))),
        lambda: FrontEvent("l", 1),
        lambda: FrontEvent(LEFT, 0),
        lambda: FrontEvent(LEFT, -1),
        lambda: FrontEvent(LEFT, 1.0),
        lambda: FrontEvent(LEFT, "1"),
        lambda: FrontEvent(LEFT, 1).replace(position=0),
    ],
    ids=["bool position", "str kind", "position 0", "position -1", "float position", "str position", "replace to 0"],
)
def test_front_event_checks_its_fields(build):
    """An event holds an ``EventKind`` and an int position >= 1, so its text
    always parses back; anything else is a domain error when it is built."""
    with pytest.raises(InvalidParams):
        build()
