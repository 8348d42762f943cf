"""The library's value classes are immutable, check the type of each field,
and behave as the frozen dataclasses they replaced, kept in ``value_oracles``."""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction
from typing import NamedTuple

import pytest
import value_oracles
from hypothesis import given, settings
from hypothesis import strategies as st
from wordgen import random_front_word

from nonloose.calculus import ClassicalPair, RationalData
from nonloose.certify import Certificate, Depth2Witness, Reason, Verdict
from nonloose.diagram import (
    Direction, EventKind, FrontEvent, FrontWord, OrientedFront, parse_front, resolve_orientation
)
from nonloose.knotdata import AMBIENT_TIGHT_S3, KnotRecord, ambient_overtwisted_s3, negative_torus_record
from nonloose.surgery import SurgeryComponent, SurgeryDiagram, diagram_from_json

README_DIAGRAM = {
    "components": [
        {"id": "Lstar", "tb": -16, "rot": -1, "coeff": "passive"},
        {"id": "L", "tb": -15, "rot": -2, "coeff": "+1"},
    ],
    "lk": [["Lstar", "L", -15]],
    "distinguished": "Lstar",
}

# one value of each class, and the fields its constructor takes
VALUES = [
    (ClassicalPair(3, 0, -1), ("tb", "rot", "chi", "oriented")),
    (RationalData(Fraction(1, 14), Fraction(8, 7), 14, -7), ("tb_q", "rot_q", "order_r", "chi")),
    (Reason("rule", "note", {"tb": 3}), ("rule", "note", "inputs")),
    (
        Certificate(Verdict.NO_OBSTRUCTION, {"tb": 3}, (Reason("rule", "note"),), {"tight": True}),
        ("verdict", "details", "reasons", "assumptions"),
    ),
    (
        Depth2Witness("punctured-torus", 0, 1, True, True, True),
        ("surface_kind", "tw_boundary", "tw_curve", "essential", "non_separating", "orientation_preserving"),
    ),
    (FrontEvent(EventKind.LEFT_CUSP, 1), ("kind", "position")),
    (parse_front("l 1 ; r 1"), ("events",)),
    (
        resolve_orientation(parse_front("l 1 ; l 2 ; x 1 ; x 1 ; x 1 ; r 2 ; r 1")),
        ("word", "base_direction", "arc_directions", "writhe", "up_cusps", "down_cusps"),
    ),
    (
        negative_torus_record(-5, 3),
        (
            "family", "max_tb", "rot_at_max_tb", "chi", "g_s", "plus_one_surgery_overtwisted", "ambient",
            "order_positive",
        ),
    ),
    (SurgeryComponent("L", -15, -2, "+1"), ("id", "tb", "rot", "coeff")),
    (diagram_from_json(README_DIAGRAM), ("components", "lk", "distinguished")),
]


@pytest.mark.parametrize("value, names", VALUES, ids=[type(v).__name__ for v, _ in VALUES])
def test_no_field_can_be_set_or_deleted(value, names):
    before = repr(value)
    for name in (*names, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


# ---------------------------------------------------------------------------
# The value classes against the frozen dataclasses they replaced.


class Recipe(NamedTuple):
    """A value to build from either set of classes: the class name and the
    constructor's arguments in field order; a nested recipe, or a tuple of
    them, is built from the same set."""

    name: str
    args: tuple


NEW = {
    cls.__name__: cls
    for cls in (
        ClassicalPair, RationalData, Reason, Certificate, Depth2Witness, FrontEvent, FrontWord, OrientedFront,
        KnotRecord, SurgeryComponent, SurgeryDiagram,
    )
}
OLD = {name: getattr(value_oracles, name) for name in NEW}


def make(classes: dict, arg):
    if isinstance(arg, Recipe):
        return classes[arg.name](*[make(classes, a) for a in arg.args])
    if isinstance(arg, tuple):
        return tuple(make(classes, a) for a in arg)
    return arg


def outcome(build):
    """("value", the value) or ("raised", exception type, message)."""
    try:
        return "value", build()
    except Exception as exc:
        return "raised", type(exc), str(exc)


def assert_same(new, old):
    """Both built values that agree in repr and derived slots, or both raised alike."""
    assert new[0] == old[0], (new, old)
    if new[0] == "raised":
        assert new[1:] == old[1:]
        return
    new, old = new[1], old[1]
    assert repr(new) == repr(old)
    for derived in ("text", "_orientation"):
        assert getattr(new, derived, None) == getattr(old, derived, None)
    hashes = outcome(lambda: hash(new)), outcome(lambda: hash(old))
    assert hashes[0][0] == hashes[1][0] and hashes[0][1:] == hashes[1][1:]


def recipe(name, *fields):
    return st.tuples(*fields).map(lambda args: Recipe(name, args))


small = st.integers(-12, 12)
chi = st.integers(-9, 3)  # even and positive values are rejected
rational = st.one_of(small, st.fractions(-12, 12, max_denominator=9))
names = st.text("abc", max_size=3)
mapping = st.dictionaries(names, small, max_size=3)
kinds, directions = st.sampled_from(EventKind), st.sampled_from(Direction)


@st.composite
def event_lists(draw):
    """The events of a valid word, or of a random (mostly invalid) one."""
    if draw(st.integers(0, 3)):
        word = random_front_word(random.Random(draw(st.integers(0, 2**16))), max_events=16)
        return tuple(Recipe("FrontEvent", (e.kind, e.position)) for e in word.events)
    return tuple(draw(st.lists(recipe("FrontEvent", kinds, st.integers(1, 4)), max_size=8)))


coeffs = st.sampled_from(["+1", "-1", "passive", "0"])


@st.composite
def diagrams(draw):
    """A valid diagram of up to three components, passive one first, or one
    whose ids, coefficients, matrix size or distinguished id may be off."""
    n = draw(st.integers(1, 3))
    ids, surgered, size, distinguished = "abc"[:n], st.sampled_from(["+1", "-1"]), n, "a"
    if not draw(st.integers(0, 2)):
        ids, surgered = draw(st.lists(names, min_size=n, max_size=n)), coeffs
        size, distinguished = n + draw(st.sampled_from([0, 1])), draw(names)
    comps = [
        Recipe("SurgeryComponent", (cid, draw(small), draw(small), "passive" if k == 0 else draw(surgered)))
        for k, cid in enumerate(ids)
    ]
    upper = draw(st.lists(st.integers(-2, 2), min_size=size * size, max_size=size * size))
    lk = tuple(tuple(0 if i == j else upper[min(i, j) * size + max(i, j)] for j in range(size)) for i in range(size))
    return Recipe("SurgeryDiagram", (tuple(comps), lk, distinguished))


reasons = recipe("Reason", names, names, mapping)
words = event_lists().map(lambda events: Recipe("FrontWord", (events,)))
RECIPES = {
    "ClassicalPair": recipe("ClassicalPair", small, small, st.none() | chi, st.booleans()),
    "RationalData": recipe("RationalData", rational, rational, st.integers(-2, 9), chi),
    "Reason": reasons,
    "Certificate": recipe(
        "Certificate", st.sampled_from(Verdict), mapping, st.lists(reasons, max_size=2).map(tuple),
        st.dictionaries(names, st.booleans(), max_size=2),
    ),
    "Depth2Witness": recipe(
        "Depth2Witness", st.sampled_from(["punctured-torus", "punctured-klein-bottle", "annulus"]), small, small,
        st.booleans(), st.booleans(), st.booleans(),
    ),
    "FrontEvent": recipe("FrontEvent", kinds, st.integers(-1, 12)),
    "FrontWord": words,
    "OrientedFront": recipe(
        "OrientedFront", words, directions, st.lists(directions, max_size=4).map(tuple), small, small, small
    ),
    "KnotRecord": recipe(
        "KnotRecord", names, st.none() | small, st.frozensets(small, max_size=3), chi, st.none() | st.integers(-1, 4),
        st.none() | st.booleans(), st.sampled_from([AMBIENT_TIGHT_S3, ambient_overtwisted_s3(-1)]), st.booleans(),
    ),
    "SurgeryComponent": recipe("SurgeryComponent", names, small, small, coeffs),
    "SurgeryDiagram": diagrams(),
}
REBUILDS = (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v)))


@pytest.mark.parametrize("name", sorted(NEW))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_values_behave_as_the_dataclasses_did(name, data):
    a = data.draw(RECIPES[name], label="a")
    new, old = outcome(lambda: make(NEW, a)), outcome(lambda: make(OLD, a))
    assert_same(new, old)
    if new[0] == "raised":
        return
    new, old = new[1], old[1]
    assert new.__eq__(old) is NotImplemented and new != a.args

    b = data.draw(st.just(a) | RECIPES[name], label="b")
    other = outcome(lambda: make(NEW, b)), outcome(lambda: make(OLD, b))
    assert_same(*other)
    if other[0][0] == "value":
        assert (new == other[0][1], new != other[0][1]) == (old == other[1][1], old != other[1][1])

    # Every value copies and pickles to an equal one; the dataclasses
    # Reason and Certificate could not, for their mappingproxy fields.
    for rebuild in REBUILDS:
        made, old_made = outcome(lambda: rebuild(new)), outcome(lambda: rebuild(old))
        assert made[0] == "value" and made[1] == new
        if old_made[0] == "value":
            assert_same(made, old_made)
            assert old_made[1] == old

    c = data.draw(RECIPES[name], label="c")
    fields = data.draw(st.sets(st.sampled_from(NEW[name]._fields)), label="fields")
    changes = {field: c.args[NEW[name]._fields.index(field)] for field in fields}
    assert_same(
        outcome(lambda: new.replace(**{k: make(NEW, v) for k, v in changes.items()})),
        outcome(lambda: dataclasses.replace(old, **{k: make(OLD, v) for k, v in changes.items()})),
    )
