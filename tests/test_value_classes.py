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
from examples import README_DIAGRAM, TREFOIL, UNKNOT
from hypothesis import given, settings
from hypothesis import strategies as st
from wordgen import random_front_word

from nonloose.calculus import ClassicalPair, RationalData
from nonloose.certify import Certificate, Depth2Witness, Reason, Verdict
from nonloose.diagram import (
    Direction, EventKind, FrontEvent, FrontWord, OrientedFront, parse_front, resolve_orientation
)
from nonloose.errors import DiagramError, InvalidParams
from nonloose.knotdata import AMBIENT_TIGHT_S3, KnotRecord, ambient_overtwisted_s3, negative_torus_record
from nonloose.surgery import SurgeryComponent, SurgeryDiagram, diagram_from_json

# one value of each class, and the fields its constructor takes
VALUES = [
    (ClassicalPair(3, 0, -1), ("tb", "rot", "chi")),
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
    (parse_front(UNKNOT), ("events",)),
    (
        resolve_orientation(parse_front(TREFOIL)),
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
# a surgery component's tb (even) and rot (odd): tb + rot is odd, as for any
# Legendrian knot, and stays odd when a replace takes either from another value
even, odd = small.map(lambda x: x - x % 2), small.map(lambda x: x - x % 2 + 1)


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
        Recipe("SurgeryComponent", (cid, draw(even), draw(odd), "passive" if k == 0 else draw(surgered)))
        for k, cid in enumerate(ids)
    ]
    upper = draw(st.lists(st.integers(-2, 2), min_size=size * size, max_size=size * size))
    lk = tuple(tuple(0 if i == j else upper[min(i, j) * size + max(i, j)] for j in range(size)) for i in range(size))
    return Recipe("SurgeryDiagram", (tuple(comps), lk, distinguished))


reasons = recipe("Reason", names, names, mapping)
words = event_lists().map(lambda events: Recipe("FrontWord", (events,)))
RECIPES = {
    "ClassicalPair": recipe("ClassicalPair", small, small, st.none() | chi),
    # 2520, the lcm of 1 to 9, puts every drawn rational on the lattice (1/r) Z
    "RationalData": recipe("RationalData", rational, rational, st.integers(-2, 9) | st.just(2520), chi),
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
    "SurgeryComponent": recipe("SurgeryComponent", names, even, odd, coeffs),
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


# ---------------------------------------------------------------------------
# Every field of every value class rejects an ill-typed value with the class's
# DomainError, never a bare Python error and never a value.

# the candidate values of each wrong type: beside 1.5, an integral float and
# numeric strings and a Direction's values, which a lax rule would convert,
# and False beside True
CANDIDATES = {
    "float": (1.5, 0.5, 0.1, -2.5),
    "integral float": (-3.0, -1.0, -16.0),
    "bool": (True, False),
    "str": ("false", "1", "2", "3/2", "rightward", "leftward"),
    "None": (None,),
    "Fraction": (Fraction(2),),
    "list": ([1.5], [-3.0], [True], [False], ["2"]),
    "int list": ([2],),
    "int matrix": ([[2]],),
    "dict": ({"k": 1.5},),
}
INT, STR, BOOL, MAPPING, COLLECTION = set(), {"str"}, {"bool"}, {"dict"}, set()
# the oracle: each field's candidate kinds that are well typed for it
WELL_TYPED = {
    "ClassicalPair": {"tb": INT, "rot": INT, "chi": {"None"}},
    "RationalData": {"tb_q": {"Fraction"}, "rot_q": {"Fraction"}, "order_r": INT, "chi": INT},
    "Reason": {"rule": STR, "note": STR, "inputs": MAPPING},
    "Certificate": {"verdict": set(), "details": MAPPING, "reasons": COLLECTION, "assumptions": MAPPING},
    "Depth2Witness": {
        "surface_kind": set(), "tw_boundary": INT, "tw_curve": INT, "essential": BOOL, "non_separating": BOOL,
        "orientation_preserving": BOOL,
    },
    "FrontEvent": {"kind": set(), "position": INT},
    "FrontWord": {"events": COLLECTION},
    "OrientedFront": {
        "word": set(), "base_direction": set(), "arc_directions": COLLECTION, "writhe": INT, "up_cusps": INT,
        "down_cusps": INT,
    },
    "KnotRecord": {
        "family": STR, "max_tb": {"None"}, "rot_at_max_tb": {"int list"}, "chi": INT, "g_s": {"None"},
        "plus_one_surgery_overtwisted": {"bool", "None"}, "ambient": STR, "order_positive": BOOL,
    },
    "SurgeryComponent": {"id": STR, "tb": INT, "rot": INT, "coeff": STR},
    # [[2]] is a matrix, of the wrong shape for the diagram but not of the wrong type
    "SurgeryDiagram": {"components": COLLECTION, "lk": {"int matrix"}, "distinguished": STR},
}


def whole(start):
    """The start of a collection field's message: a string or a mapping is one
    value, named whole, not by its first character or its first key."""
    named = f"{start}, got {{value!r}}"
    return {"str": named, "dict": named, "other": start}


# the oracle: how the error message for an ill-typed field starts, the field's
# label first (or a start by kind), formatted with the candidate as ``value``
INTEGER = "must be an integer"
MESSAGES = {
    "ClassicalPair": {"tb": f"tb {INTEGER}", "rot": f"rot {INTEGER}", "chi": f"chi {INTEGER}"},
    "RationalData": {
        "tb_q": f"tb_q {INTEGER} or a Fraction", "rot_q": f"rot_q {INTEGER} or a Fraction",
        "order_r": f"order_r {INTEGER}", "chi": f"chi {INTEGER}",
    },
    "Reason": {"rule": "rule must be a string", "note": "note must be a string", "inputs": "inputs must be a mapping"},
    "Certificate": {
        "verdict": "verdict must be a Verdict", "details": "details must be a mapping",
        "reasons": whole("a certificate's reasons must be Reason values"),
        "assumptions": "assumptions must be a mapping",
    },
    "Depth2Witness": {
        "surface_kind": "surface_kind must name a once-punctured torus or Klein bottle",
        "tw_boundary": f"tw_boundary {INTEGER}", "tw_curve": f"tw_curve {INTEGER}",
        "essential": "essential must be true or false", "non_separating": "non_separating must be true or false",
        "orientation_preserving": "orientation_preserving must be true or false",
    },
    "FrontEvent": {"kind": "event kind must be an EventKind", "position": f"event position {INTEGER} >= 1"},
    "FrontWord": {"events": whole("events must be FrontEvent values")},
    "OrientedFront": {
        "word": "word must be a FrontWord", "base_direction": "base_direction must be a Direction",
        "arc_directions": whole("arc_directions must be Direction values"), "writhe": f"writhe {INTEGER}",
        "up_cusps": f"up_cusps {INTEGER}", "down_cusps": f"down_cusps {INTEGER}",
    },
    "KnotRecord": {
        "family": "family must be a string", "max_tb": f"max_tb {INTEGER}",
        # a list names its ill-typed entry
        "rot_at_max_tb": {
            "list": f"rot_at_max_tb entry {INTEGER}", "int matrix": f"rot_at_max_tb entry {INTEGER}",
            "other": "rot_at_max_tb must be a list of integers",
        },
        "chi": f"chi {INTEGER}", "g_s": f"g_s {INTEGER}",
        "plus_one_surgery_overtwisted": "plus_one_surgery_overtwisted must be true or false",
        "ambient": "ambient must be a string", "order_positive": "order_positive must be true or false",
    },
    "SurgeryComponent": {
        "id": "component id must be a string", "tb": f"component tb {INTEGER}", "rot": f"component rot {INTEGER}",
        "coeff": "component coeff must be a string",
    },
    "SurgeryDiagram": {
        "components": whole("a diagram's components must be SurgeryComponent values"),
        "lk": {
            "list": "lk row must be a tuple or a list", "int list": "lk row must be a tuple or a list",
            "other": "lk must be a tuple or a list of rows",
        },
        "distinguished": "distinguished must be a string",
    },
}
ERRORS = {"SurgeryComponent": DiagramError, "SurgeryDiagram": DiagramError}


def test_the_oracle_names_every_field():
    for oracle in (WELL_TYPED, MESSAGES):
        assert {name: list(fields) for name, fields in oracle.items()} == {
            name: list(cls._fields) for name, cls in NEW.items()
        }


# every (value, field, kind) with the kind not well typed for the field: one
# case each, so a failure names the field and the kind it lets through
ILL_TYPED = [
    (value, names, field, kind)
    for value, names in VALUES
    for field in names
    for kind in sorted(set(CANDIDATES) - WELL_TYPED[type(value).__name__][field])
]


@pytest.mark.parametrize(
    "value, names, field, kind", ILL_TYPED, ids=[f"{type(v).__name__}-{f}-{k}" for v, _, f, k in ILL_TYPED]
)
def test_an_ill_typed_field_raises_the_class_error(value, names, field, kind):
    """Every candidate of the kind in place of the field's value in an
    otherwise valid value of the class."""
    name = type(value).__name__
    start = MESSAGES[name][field]
    if isinstance(start, dict):
        start = start.get(kind, start["other"])
    for candidate in CANDIDATES[kind]:
        args = [getattr(value, other) for other in names]
        args[names.index(field)] = copy.deepcopy(candidate)
        with pytest.raises(ERRORS.get(name, InvalidParams)) as exc:
            NEW[name](*args)
        assert str(exc.value).startswith(start.format(value=candidate)), candidate


@pytest.mark.parametrize(
    "build",
    [
        lambda: Depth2Witness("punctured-torus", 0, 1, True, True),
        lambda: Depth2Witness("punctured-torus", 0, 1, True, True, True, True),
        lambda: Depth2Witness("punctured-torus", 0, 1, True, True, orientation_preserving=True, extra=1),
        lambda: Depth2Witness("punctured-torus", 0, 1, True, True, essential=True),
    ],
    ids=["missing field", "extra field", "unknown name", "field given twice"],
)
def test_a_value_takes_exactly_its_fields(build):
    with pytest.raises(TypeError, match="Depth2Witness takes the fields surface_kind, tw_boundary"):
        build()
