"""Strict fields at the JSON boundary and in the value classes: every value
either is read as the type its field documents or ends in a DomainError,
never a coercion or a traceback."""

import copy
import json

import pytest
from examples import LINKS_DIAGRAM, README_DIAGRAM
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nonloose.calculus import RationalData
from nonloose.errors import DiagramError, DomainError, InvalidParams
from nonloose.knotdata import KnotRecord, record_from_dict
from nonloose.surgery import SurgeryComponent, SurgeryDiagram, diagram_from_json

RECORD = {
    "family": "k",
    "max_tb": -3,
    "rot_at_max_tb": [0],
    "chi": -5,
    "g_s": 2,
    "order_positive": False,
    "plus_one_surgery_overtwisted": None,
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


# (where in the diagram document, the value the loaded diagram holds there)
DIAGRAM_FIELDS = {
    "passive tb": (("components", 0, "tb"), lambda d: d.components[0].tb),
    "passive rot": (("components", 0, "rot"), lambda d: d.components[0].rot),
    "surgered tb": (("components", 1, "tb"), lambda d: d.components[1].tb),
    "surgered rot": (("components", 1, "rot"), lambda d: d.components[1].rot),
    "lk value": (("lk", 0, 2), lambda d: d.lk[0][1]),
}


def put(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def odd_pairs(doc):
    """Each component of the document has tb + rot odd, as any Legendrian knot has."""
    return all((c["tb"] + c["rot"]) % 2 for c in doc["components"])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(DIAGRAM_FIELDS)), json_values)
def test_diagram_integer_fields(field, value):
    path, read_back = DIAGRAM_FIELDS[field]
    doc = put(README_DIAGRAM, path, value)
    try:
        diag = diagram_from_json(doc)
    except DomainError:
        assert not (is_int(value) and odd_pairs(doc))
        return
    assert is_int(value) and odd_pairs(doc)
    assert read_back(diag) == value


@pytest.mark.parametrize("field", ["passive tb", "passive rot", "surgered tb", "surgered rot"])
def test_diagram_rejects_an_even_tb_plus_rot(field):
    """One past the README's tb or rot makes tb + rot even, which no Legendrian
    knot has: a DiagramError that names the component and its pair."""
    path, read_back = DIAGRAM_FIELDS[field]
    doc = put(README_DIAGRAM, path, read_back(diagram_from_json(README_DIAGRAM)) + 1)
    component = doc["components"][path[1]]
    with pytest.raises(DiagramError) as raised:
        diagram_from_json(doc)
    assert str(raised.value) == (
        f"component {component['id']!r}: tb + rot must be odd, got tb {component['tb']} and rot {component['rot']}"
    )


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["components", "lk", ("components", 1), ("lk", 0)]), json_values)
def test_diagram_structure_fields(where, value):
    path = (where,) if isinstance(where, str) else where
    try:
        diagram_from_json(put(README_DIAGRAM, path, value))
    except DomainError:
        pass


@settings(max_examples=50, deadline=None)
@given(json_values)
def test_diagram_whole_document(value):
    try:
        diagram_from_json(value)
    except DomainError:
        pass


@pytest.mark.parametrize("value", [True, False, -16.7, -16.0, "-16", None, [-16]])
def test_diagram_rejects_non_integers(value):
    with pytest.raises(DiagramError):
        diagram_from_json(put(README_DIAGRAM, ("components", 0, "rot"), value))
    with pytest.raises(DiagramError):
        diagram_from_json(put(README_DIAGRAM, ("lk", 0, 2), value))


def rename_passive(value):
    """The README diagram with the passive component's id set to ``value``
    wherever that id appears."""
    doc = put(README_DIAGRAM, ("components", 0, "id"), value)
    doc = put(doc, ("lk", 0, 0), value)
    return put(doc, ("distinguished",), value)


# (the diagram document holding the value, the value the loaded diagram holds there)
DIAGRAM_STRING_FIELDS = {
    "component id": (rename_passive, lambda d: d.components[0].id),
    "coeff": (lambda v: put(README_DIAGRAM, ("components", 1, "coeff"), v), lambda d: d.components[1].coeff),
    "lk first id": (lambda v: put(README_DIAGRAM, ("lk", 0, 0), v), lambda d: d.components[0].id),
    "lk second id": (lambda v: put(README_DIAGRAM, ("lk", 0, 1), v), lambda d: d.components[1].id),
    "distinguished": (lambda v: put(README_DIAGRAM, ("distinguished",), v), lambda d: d.distinguished),
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(DIAGRAM_STRING_FIELDS)), json_values | st.sampled_from(["Lstar", "L", "-1"]))
def test_diagram_string_fields(field, value):
    build, read_back = DIAGRAM_STRING_FIELDS[field]
    try:
        diag = diagram_from_json(build(value))
    except DomainError as exc:
        assert isinstance(exc, DiagramError)
        return
    assert isinstance(value, str) and read_back(diag) == value


NON_STRING_DIAGRAMS = {
    "list component id": rename_passive([2]),
    "integer component id": rename_passive(2),
    "integer coeff": put(README_DIAGRAM, ("components", 1, "coeff"), -1),
}


@pytest.mark.parametrize("name", sorted(NON_STRING_DIAGRAMS))
def test_diagram_rejects_non_strings(name):
    with pytest.raises(DiagramError):
        diagram_from_json(NON_STRING_DIAGRAMS[name])


# where in the diagram document a key goes, the keys its shape names there,
# and the start of the message that names an unknown one
KNOWN_DIAGRAM_KEYS = {
    "document": ((), {"components", "lk", "distinguished"}, "unknown diagram keys"),
    "passive component": (("components", 0), {"id", "tb", "rot", "coeff"}, "component 'Lstar': unknown keys"),
    "surgered component": (("components", 1), {"id", "tb", "rot", "coeff"}, "component 'L': unknown keys"),
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(KNOWN_DIAGRAM_KEYS)), st.text(max_size=5), json_values)
def test_diagram_rejects_an_unknown_key(where, key, value):
    path, known, message = KNOWN_DIAGRAM_KEYS[where]
    assume(key not in known)
    with pytest.raises(DiagramError) as raised:
        diagram_from_json(put(README_DIAGRAM, (*path, key), value))
    assert str(raised.value) == f"{message}: {[key]}"


@pytest.mark.parametrize(
    "doc, message",
    [
        (LINKS_DIAGRAM, "unknown diagram keys: ['links']"),
        (dict(README_DIAGRAM, zeta=1, alpha=2), "unknown diagram keys: ['alpha', 'zeta']"),
        (put(README_DIAGRAM, ("components", 1, "rotation"), 0), "component 'L': unknown keys: ['rotation']"),
        (
            put(put(README_DIAGRAM, ("components", 0, "tb_q"), 1), ("components", 0, "name"), "K"),
            "component 'Lstar': unknown keys: ['name', 'tb_q']",
        ),
    ],
    ids=["links for lk", "two document keys", "component key", "two component keys"],
)
def test_diagram_unknown_keys_are_named_sorted(doc, message):
    with pytest.raises(DiagramError) as raised:
        diagram_from_json(doc)
    assert str(raised.value) == message


INT_FIELDS = ("max_tb", "chi", "g_s")
OPTIONAL_FIELDS = ("max_tb", "g_s", "plus_one_surgery_overtwisted")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(RECORD) + ["rot_at_max_tb entry"]), json_values)
def test_record_fields(field, value):
    if field == "rot_at_max_tb entry":
        doc = dict(RECORD, rot_at_max_tb=[value])
    else:
        doc = dict(RECORD, **{field: value})
    try:
        rec = record_from_dict(doc)
    except DomainError as exc:
        assert isinstance(exc, InvalidParams)
        return
    if field == "rot_at_max_tb entry":
        assert is_int(value) and rec.rot_at_max_tb == {value}
        return
    got = getattr(rec, field)
    if value is None and field in OPTIONAL_FIELDS:
        assert got is None
    elif field in INT_FIELDS:
        assert is_int(value) and got == value
    elif field in ("order_positive", "plus_one_surgery_overtwisted"):
        assert isinstance(value, bool) and got is value
    elif field == "rot_at_max_tb":
        assert isinstance(value, list) and all(is_int(r) for r in value)
        assert got == frozenset(value)
    else:  # family: any JSON value names a family
        assert got == str(value)


@pytest.mark.parametrize(
    "field, value",
    [
        ("chi", "x"),
        ("chi", -5.0),
        ("chi", True),
        ("max_tb", -3.5),
        ("g_s", "2"),
        ("rot_at_max_tb", [False]),
        ("rot_at_max_tb", "0"),
        ("order_positive", "false"),
        ("order_positive", 0),
        ("plus_one_surgery_overtwisted", "false"),
        ("plus_one_surgery_overtwisted", 1),
    ],
)
def test_record_rejects(field, value):
    with pytest.raises(InvalidParams):
        record_from_dict(dict(RECORD, **{field: value}))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["family", "ambient"]), json_values)
def test_record_string_fields(field, value):
    try:
        rec = record_from_dict(dict(RECORD, **{field: value}))
    except DomainError as exc:
        assert isinstance(exc, InvalidParams)
        assert not isinstance(value, str)
        return
    assert isinstance(value, str) and getattr(rec, field) == value


@pytest.mark.parametrize("field, value", [("family", None), ("family", 7), ("ambient", 7), ("ambient", None)])
def test_record_rejects_non_strings(field, value):
    with pytest.raises(InvalidParams):
        record_from_dict(dict(RECORD, **{field: value}))


def test_record_defaults():
    rec = record_from_dict({"family": "k", "chi": -5})
    assert rec.max_tb is None and rec.g_s is None
    assert rec.rot_at_max_tb == frozenset()
    assert rec.order_positive is False
    assert rec.plus_one_surgery_overtwisted is None


MALFORMED_DIAGRAMS = {
    "non-integer lk": put(
        put(README_DIAGRAM, ("lk", 0), ["Lstar", "L", "x"]), ("components", 0, "tb"), -2
    ),
    "float tb": put(README_DIAGRAM, ("components", 0, "tb"), -16.7),
    "boolean rot": put(README_DIAGRAM, ("components", 0, "rot"), True),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_DIAGRAMS))
def test_cli_malformed_diagram(run_cli, name):
    code, doc = run_cli.json("surgery-invariants - --chi -7", json.dumps(MALFORMED_DIAGRAMS[name]))
    assert code == 1
    assert doc["error"]["type"] == "DiagramError"


@pytest.mark.parametrize(
    "field, value",
    [("chi", "x"), ("order_positive", "false"), ("plus_one_surgery_overtwisted", "false")],
)
def test_cli_malformed_record(run_cli, tmp_path, field, value):
    path = tmp_path / "records.json"
    path.write_text(json.dumps([{"family": "k", "max_tb": -3, "rot_at_max_tb": [0], "chi": -5, field: value}]))
    code, doc = run_cli.json(["--records", str(path), "knot-record", "--name", "k"])
    assert code == 1
    assert doc["error"]["type"] == "InvalidParams"


@pytest.mark.parametrize("name", sorted(NON_STRING_DIAGRAMS))
def test_cli_non_string_diagram_field(run_cli, name):
    code, doc = run_cli.json("surgery-invariants - --chi -7", json.dumps(NON_STRING_DIAGRAMS[name]))
    assert code == 1
    assert doc["error"]["type"] == "DiagramError"


@pytest.mark.parametrize(
    "record",
    [
        {"family": None, "max_tb": -3, "rot_at_max_tb": [0], "chi": -5},
        # tb + |rot| = 6 > -chi: a tight-S3 record this would fail the Bennequin check
        {"family": "k", "max_tb": 6, "rot_at_max_tb": [0], "chi": -5, "ambient": 7},
    ],
    ids=["null family", "numeric ambient"],
)
def test_cli_non_string_record_field(run_cli, tmp_path, record):
    path = tmp_path / "records.json"
    path.write_text(json.dumps([record]))
    code, doc = run_cli.json(["--records", str(path), "knot-record", "--name", str(record["family"])])
    assert code == 1
    assert doc["error"]["type"] == "InvalidParams"


# ---------------------------------------------------------------------------
# Values built directly, not read from JSON, check their integer fields too.


@settings(max_examples=80, deadline=None)
@given(st.fractions(-12, 12, max_denominator=12), st.fractions(-12, 12, max_denominator=12), st.integers(1, 12))
def test_rational_data_lies_on_its_lattice(tb_q, rot_q, r):
    """tb_Q and rot_Q lie in (1/r) Z: a value off that lattice is an
    InvalidParams naming both values and r, never a RationalData."""
    on = (r * tb_q).denominator == 1 and (r * rot_q).denominator == 1
    try:
        data = RationalData(tb_q, rot_q, r, -1)
    except InvalidParams as raised:
        assert not on
        assert str(raised) == (
            f"tb_q and rot_q must be multiples of 1/order_r, got tb_q {tb_q}, rot_q {rot_q} and order_r {r}"
        )
        return
    assert on and (data.tb_q, data.rot_q, data.order_r) == (tb_q, rot_q, r)


def test_knot_record_keeps_a_bool_beside_its_integer():
    # frozenset({1, True}) would drop True: each entry is read before the set is built
    with pytest.raises(InvalidParams):
        KnotRecord("k", -3, [0, False], -5)


def components(tb=-16, rot=-1):
    return SurgeryComponent("Lstar", tb, rot, "passive"), SurgeryComponent("L", -15, -2, "+1")


@pytest.mark.parametrize(
    "lk",
    [
        ((0, 1.5), (1.5, 0)),
        ((0, -15.0), (-15.0, 0)),
        ((0, True), (1, 0)),
        ((0, 1), (True, 0)),
        ((0.0, -15), (-15, 0)),
        ((0, -15), (-15, False)),
    ],
    ids=["float", "integral float", "bool above", "bool below", "float diagonal", "bool diagonal"],
)
def test_surgery_diagram_lk_entries(lk):
    with pytest.raises(DiagramError, match="lk value must be an integer"):
        SurgeryDiagram(components(), lk, "Lstar")
