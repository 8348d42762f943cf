"""One test for each branch no other test reaches: the empty tension search
in both renderings, records lookups that find nothing, a negative search
budget on the command line, rejected knot records, directly built malformed
surgery diagrams, a zero self-linking pair and the infinite-order sentinel's
repr."""

import pytest

from linalg_oracles import INFINITE
from nonloose import cli
from nonloose.certify import Certificate, Reason, Verdict
from nonloose.errors import DiagramError, InvalidParams
from nonloose.knotdata import KnotRecord, record_from_dict
from nonloose.surgery import SurgeryComponent, SurgeryDiagram, diagram_from_json


def test_certify_tension_without_a_witness(run_cli):
    code, doc = run_cli.json("certify-tension --tb -5 --rot 0 --chi 1")
    assert code == 0
    assert doc == {"bound": None, "witness": None, "max_n": 64}


def test_certify_tension_text_rendering(run_cli):
    code, out = run_cli("--format text certify-tension --tb 3 --rot 0 --chi -1")
    assert code == 0
    assert out == "bound: 3\nwitness: [0, 3]\nmax_n: 64\n"


def test_knot_record_name_without_records_file(run_cli, monkeypatch, tmp_path):
    missing = tmp_path / "missing.json"
    monkeypatch.setattr(cli, "DEFAULT_RECORDS_PATH", missing)
    code, doc = run_cli.json("knot-record --name foo")
    assert code == 1
    assert doc == {"error": {"type": "DomainError", "message": f"--name needs a --records file or one at {missing}"}}


def test_knot_record_unknown_name(run_cli):
    code, doc = run_cli.json("--records my_records.json knot-record --name foo")
    assert code == 1
    assert doc == {"error": {"type": "DomainError", "message": "no record named 'foo' in my_records.json"}}


@pytest.mark.parametrize("p_max", [-1, -5])
def test_example_search_rejects_negative_budget(run_cli, p_max):
    code, doc = run_cli.json(["search-examples", "--p-max", str(p_max)])
    assert code == 1
    assert doc == {"error": {"type": "InvalidParams", "message": "p_max must be nonnegative"}}


def test_example_search_takes_a_zero_budget(run_cli):
    assert run_cli.json("search-examples --p-max 0") == (0, {"certificates": []})


def test_certificate_serializes_frozenset_details_sorted():
    cert = Certificate(Verdict.ORDER_ZERO, {"rots": frozenset({3, -1, 1})}, (Reason("rule", "note"),))
    assert cert.to_dict()["details"] == {"rots": [-1, 1, 3]}


def test_knot_record_rejects_bad_chi_and_genus():
    with pytest.raises(InvalidParams, match="chi must be <= 1"):
        KnotRecord("unknot", -1, frozenset({0}), 2)
    with pytest.raises(InvalidParams, match="smooth 4-ball genus must be nonnegative"):
        KnotRecord("unknot", -1, frozenset({0}), 1, g_s=-1)


def test_record_from_dict_rejects_non_objects_and_missing_keys():
    with pytest.raises(InvalidParams, match="record entry must be an object, got list"):
        record_from_dict([])
    with pytest.raises(InvalidParams, match="record entry missing key 'chi'"):
        record_from_dict({"family": "house"})


PASSIVE = SurgeryComponent("K", -1, 0, "passive")
PLUS = SurgeryComponent("L", -1, 0, "+1")


@pytest.mark.parametrize(
    "components, lk, message",
    [
        ((PASSIVE, PASSIVE), ((0, 0), (0, 0)), "component ids must be unique"),
        ((PASSIVE, PLUS), ((0, 1),), "linking matrix shape must match the component count"),
        ((PASSIVE, PLUS), ((0, 1), (2, 0)), "linking matrix must be symmetric"),
        ((PASSIVE, PLUS), ((7, 1), (1, 0)), "self-linking entry for 'K' is not allowed"),
    ],
)
def test_surgery_diagram_rejects_malformed_fields(components, lk, message):
    with pytest.raises(DiagramError, match=message):
        SurgeryDiagram(components, lk, "K")


def test_zero_self_linking_pair_is_rejected_too():
    doc = {
        "components": [{"id": "K", "tb": -1, "rot": 0, "coeff": "passive"}],
        "lk": [["K", "K", 0]],
        "distinguished": "K",
    }
    with pytest.raises(DiagramError, match="self-linking entry for 'K' is not allowed"):
        diagram_from_json(doc)


def test_infinite_repr():
    assert repr(INFINITE) == "Infinite"
