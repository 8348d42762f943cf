"""A knot record's JSON keys are its fields (``KnotRecord._fields``), in declaration order.
The golden row "readme knot-record family" pins the command's text of one."""

import json

import pytest

from nonloose.knotdata import (
    KnotRecord,
    named_example,
    negative_torus_record,
    record_from_dict,
    record_to_dict,
    unknot_record,
)

RECORDS = [unknot_record(), negative_torus_record(-7, 5), named_example("L2q(5)"), named_example("LOSSfamily(3)")]


@pytest.mark.parametrize("rec", RECORDS, ids=lambda rec: rec.family)
def test_keys_follow_the_fields(rec):
    doc = record_to_dict(rec)
    assert list(doc) == list(KnotRecord._fields)
    assert doc["rot_at_max_tb"] == sorted(rec.rot_at_max_tb)
    assert record_from_dict(json.loads(json.dumps(doc))) == rec


def test_negative_torus_document():
    assert record_to_dict(negative_torus_record(-5, 3)) == {
        "family": "torus(-5,3)",
        "max_tb": -15,
        "rot_at_max_tb": [-2],
        "chi": -7,
        "g_s": None,
        "plus_one_surgery_overtwisted": True,
        "ambient": "tight-S3",
        "order_positive": False,
    }
