"""Library calls given values outside their domain raise InvalidParams."""

import re
from fractions import Fraction
from math import inf, nan

import pytest

from nonloose.calculus import ClassicalPair, RationalData
from nonloose.certify import Certificate, Reason, Verdict, bundle_is_consistent, certificate_bounds, check_consistency
from nonloose.diagram import FrontWord
from nonloose.errors import DiagramError, InvalidParams
from nonloose.knotdata import KnotRecord, record_from_dict
from nonloose.surgery import SurgeryComponent, SurgeryDiagram, diagram_from_json


PASSIVE = SurgeryComponent("a", 1, 0, "passive")


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: KnotRecord(3, -1, [0], 1), InvalidParams, "family must be a string, got 3"),
        (lambda: KnotRecord("k", -1, [0], 1, ambient=7), InvalidParams, "ambient must be a string, got 7"),
        (
            lambda: KnotRecord("k", -1, [0], 1, plus_one_surgery_overtwisted="false"),
            InvalidParams,
            "plus_one_surgery_overtwisted must be true or false, got 'false'",
        ),
        (
            lambda: KnotRecord("k", -1, [0], 1, order_positive="false"),
            InvalidParams,
            "order_positive must be true or false, got 'false'",
        ),
        (lambda: SurgeryComponent(5, 1, 0, "passive"), DiagramError, "component id must be a string, got 5"),
        (lambda: SurgeryComponent("a", 1, 0, 1), DiagramError, "component coeff must be a string, got 1"),
        (
            lambda: SurgeryDiagram((PASSIVE,), ((0,),), ["a"]),
            DiagramError,
            "distinguished must be a string, got ['a']",
        ),
        (lambda: SurgeryDiagram((PASSIVE,), (1,), "a"), DiagramError, "lk row must be a tuple or a list, got 1"),
        (
            lambda: SurgeryDiagram(("a",), ((0,),), "a"),
            DiagramError,
            "a diagram's components must be SurgeryComponent values, got 'a'",
        ),
        (lambda: KnotRecord("k", -1, 5, 1), InvalidParams, "rot_at_max_tb must be a list of integers, got 5"),
        (
            lambda: SurgeryDiagram.build((PASSIVE, SurgeryComponent("b", 1, 0, "+1")), [["a", "b"]], "a"),
            DiagramError,
            "bad lk entry ['a', 'b']; expected [idA, idB, int]",
        ),
        (
            lambda: SurgeryDiagram.build((PASSIVE, SurgeryComponent("b", 1, 0, "+1")), [(["a"], "b", 1)], "a"),
            DiagramError,
            "linking pair names unknown component: ['a'], 'b'",
        ),
        (
            lambda: SurgeryDiagram.build(("a",), [], "a"),
            DiagramError,
            "a diagram's components must be SurgeryComponent values, got 'a'",
        ),
        (
            lambda: SurgeryDiagram.build(None, [], "a"),
            DiagramError,
            "a diagram's components must be SurgeryComponent values, got None",
        ),
        (lambda: SurgeryDiagram.build((PASSIVE,), None, "a"), DiagramError, "'lk' must be a list, got None"),
        (
            lambda: SurgeryDiagram(5, ((0,),), "a"),
            DiagramError,
            "a diagram's components must be SurgeryComponent values, got 5",
        ),
        (lambda: FrontWord("abc"), InvalidParams, "events must be FrontEvent values, got 'abc'"),
        (
            lambda: SurgeryDiagram.build((PASSIVE, SurgeryComponent("b", 1, 0, "+1")), ["ab1"], "a"),
            DiagramError,
            "bad lk entry 'ab1'; expected [idA, idB, int]",
        ),
    ],
    ids=["family", "ambient", "plus_one_surgery_overtwisted", "order_positive", "component id", "coeff",
         "distinguished", "lk row not a sequence", "component not a SurgeryComponent", "rot_at_max_tb not iterable",
         "lk entry of two", "unhashable lk id", "build from a str component", "build from None components",
         "build from None lk pairs", "non-iterable components", "events a string", "lk entry a string of three"],
)
def test_value_fields_checked_at_construction(build, error, message):
    """A value built directly checks each field as its JSON reader does."""
    with pytest.raises(error, match=re.escape(message)):
        build()


def test_direct_values_fail_as_their_json_readers_do():
    """A record or lk entry built directly is rejected with the message its JSON reader gives."""
    with pytest.raises(InvalidParams, match=re.escape("rot_at_max_tb must be a list of integers, got 5")):
        record_from_dict({"family": "k", "max_tb": -1, "rot_at_max_tb": 5, "chi": 1})
    doc = {
        "components": [
            {"id": "a", "tb": 1, "rot": 0, "coeff": "passive"},
            {"id": "b", "tb": 1, "rot": 0, "coeff": "+1"},
        ],
        "lk": [["a", "b"]],
        "distinguished": "a",
    }
    with pytest.raises(DiagramError, match=re.escape("bad lk entry ['a', 'b']; expected [idA, idB, int]")):
        diagram_from_json(doc)


def test_record_names_its_first_bad_field():
    doc = {"family": 3, "chi": 1, "ambient": 7, "order_positive": "x", "plus_one_surgery_overtwisted": "y"}
    with pytest.raises(InvalidParams, match="plus_one_surgery_overtwisted must be"):
        record_from_dict(doc)
    with pytest.raises(InvalidParams, match="family must be"):
        record_from_dict(dict(doc, plus_one_surgery_overtwisted=None))


def test_calculus_values_keep_integers_exact():
    assert ClassicalPair(1, -2, None).chi is None
    data = RationalData(3, Fraction(1, 2), 2, -2)
    assert (data.tb_q, data.rot_q) == (Fraction(3), Fraction(1, 2))
    assert type(data.tb_q) is Fraction


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Certificate(Verdict.INCONCLUSIVE, {}, (r for r in ())), "at least one reason"),
        (lambda: Certificate(Verdict.INCONCLUSIVE, {}, ()), "at least one reason"),
        (lambda: Certificate(Verdict.INCONCLUSIVE, {}, ("r",)), "must be Reason values"),
        (lambda: Certificate(Verdict.INCONCLUSIVE, {}, (Reason("r", "n"), None)), "must be Reason values"),
        (lambda: Certificate("LooseCertified", {}, (Reason("r", "n"),)), "must be a Verdict"),
        (lambda: Certificate(None, {}, (Reason("r", "n"),)), "must be a Verdict"),
    ],
    ids=["empty generator", "empty tuple", "str reason", "None reason", "str verdict", "None verdict"],
)
def test_certificate_needs_reasons_and_a_verdict(build, message):
    with pytest.raises(InvalidParams, match=message):
        build()


def test_certificate_takes_its_reasons_from_any_iterable():
    cert = Certificate(Verdict.INCONCLUSIVE, {}, (r for r in [Reason("r", "n")]))
    assert cert.reasons == (Reason("r", "n"),)
    assert cert.to_dict()["reasons"] == [{"rule": "r", "note": "n", "inputs": {}}]


def _cert(details):
    return Certificate(Verdict.INCONCLUSIVE, details=details, reasons=(Reason("r", "n"),))


CHECKS = (certificate_bounds, bundle_is_consistent, lambda c: check_consistency([c]))

BAD_VALUES = ["x", "1", None, True, False, 1.0, 0.5, -inf, nan, [1], {"v": 1}, 1j]


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
@pytest.mark.parametrize(
    "key", ["depth_min", "depth_max", "tension_min", "tension_max", "order_bar_min", "order_bar_max"]
)
def test_bad_bound_in_details(check, value, key):
    with pytest.raises(InvalidParams, match=f"{key} must be"):
        check(_cert({key: value}))


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("key", ["depth", "tension", "order_bar"])
def test_bad_bound_in_if_nonloose(check, value, key):
    conditional = {"depth": 1, "tension": 1, "order_bar": 0, key: value}
    with pytest.raises(InvalidParams, match=f"if_nonloose {key} must be"):
        check(_cert({"if_nonloose": conditional}))


def test_bad_if_nonloose_bound_raises_even_when_details_override_it():
    cert = _cert({"if_nonloose": {"depth": "x", "tension": 1, "order_bar": 0}, "depth_min": 1, "depth_max": 1})
    with pytest.raises(InvalidParams, match="if_nonloose depth must be"):
        certificate_bounds(cert)


@pytest.mark.parametrize(
    "details, windows, consistent",
    [
        ({"depth_min": 2, "depth_max": inf}, {"depth": (2, inf)}, True),
        ({"tension_min": Fraction(1, 2), "tension_max": Fraction(3, 2)},
         {"tension": (Fraction(1, 2), Fraction(3, 2))}, True),
        ({"order_bar_min": 3, "tension_max": Fraction(5, 2)},
         {"order_bar": (3, inf), "tension": (0, Fraction(5, 2))}, False),
        ({"depth_min": float("inf")}, {"depth": (inf, inf)}, True),
        ({"if_nonloose": {"depth": Fraction(2), "tension": 1, "order_bar": inf}},
         {"order_bar": (0, inf), "tension": (1, 1), "depth": (2, 2)}, True),
    ],
)
def test_good_bounds(details, windows, consistent):
    cert = _cert(details)
    got = certificate_bounds(cert)
    for measure, window in windows.items():
        assert got[measure] == window
    assert bundle_is_consistent(cert) is consistent
    assert check_consistency([cert]) == ([] if consistent else [cert])
