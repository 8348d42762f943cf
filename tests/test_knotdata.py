import json
from math import gcd

import pytest

from nonloose.errors import InvalidParams, UnknownTag
from nonloose.knotdata import (
    AMBIENT_TIGHT_S3,
    KnotRecord,
    load_records,
    named_example,
    negative_torus_record,
    positive_torus_record,
    record_from_dict,
    record_to_dict,
    unknot_record,
)


def negative_params(p_bound, q_bound):
    for p in range(-p_bound, -2):
        for q in range(2, min(-p, q_bound + 1)):
            if gcd(p, q) == 1:
                yield p, q


def positive_params(bound):
    for p in range(2, bound + 1):
        for q in range(2, bound + 1):
            if gcd(p, q) == 1:
                yield p, q


class TestNegativeTorus:
    def test_flagship(self):
        rec = negative_torus_record(-5, 3)
        assert rec.max_tb == -15
        assert -2 in rec.rot_at_max_tb
        assert rec.chi == -7
        assert rec.plus_one_surgery_overtwisted is True
        assert rec.ambient == AMBIENT_TIGHT_S3

    def test_small(self):
        rec = negative_torus_record(-3, 2)
        assert (rec.max_tb, rec.chi) == (-6, -1)
        assert rec.rot_at_max_tb == frozenset({-1})

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            negative_torus_record(-4, 2)  # not coprime
        with pytest.raises(InvalidParams):
            negative_torus_record(-2, 1)  # unknot
        with pytest.raises(InvalidParams):
            negative_torus_record(-3, 4)  # wrong ordering
        with pytest.raises(InvalidParams):
            negative_torus_record(3, 2)

    def test_chi_matches_genus(self):
        for p, q in negative_params(12, 12):
            rec = negative_torus_record(p, q)
            genus = (-p - 1) * (q - 1) // 2
            assert rec.chi == 1 - 2 * genus

    def test_dual_tension_precondition(self):
        # tb + rot + 2 < chi reduces to 2(p + 1) < 0
        for p, q in negative_params(12, 12):
            rec = negative_torus_record(p, q)
            rot = p + q
            assert rec.max_tb + rot + 2 < rec.chi


class TestPositiveTorus:
    def test_examples(self):
        rec = positive_torus_record(2, 3)
        assert (rec.max_tb, rec.g_s, rec.chi) == (1, 1, -1)
        rec = positive_torus_record(3, 5)
        assert (rec.max_tb, rec.g_s, rec.chi) == (7, 4, -7)

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            positive_torus_record(1, 5)
        with pytest.raises(InvalidParams):
            positive_torus_record(2, 4)

    def test_sharp_slice_bennequin(self):
        for p, q in positive_params(12):
            rec = positive_torus_record(p, q)
            assert rec.max_tb == 2 * rec.g_s - 1


class TestBennequinGuard:
    def test_all_tight_records(self):
        records = [unknot_record()]
        records += [negative_torus_record(p, q) for p, q in negative_params(12, 12)]
        records += [positive_torus_record(p, q) for p, q in positive_params(12)]
        for rec in records:
            assert rec.ambient == AMBIENT_TIGHT_S3
            for r in rec.rot_at_max_tb:
                assert rec.max_tb + abs(r) <= -rec.chi

    def test_guard_rejects_violation(self):
        with pytest.raises(InvalidParams):
            KnotRecord("fake", max_tb=0, rot_at_max_tb=frozenset({0}), chi=1)


class TestNamedExamples:
    def test_l2q(self):
        rec = named_example("L2q(3)")
        assert rec.max_tb == 3
        assert rec.rot_at_max_tb == frozenset({0})
        assert rec.chi == -1
        assert rec.ambient == "overtwisted-S3(hopf=-1)"

    def test_loss_family(self):
        rec = named_example("LOSSfamily(2)")
        assert rec.family == "torus(2,3)"
        assert rec.order_positive is True
        assert rec.max_tb is None
        assert rec.ambient == "overtwisted-S3(hopf=-3)"

    def test_unknown(self):
        with pytest.raises(UnknownTag):
            named_example("mystery")
        with pytest.raises(UnknownTag):
            named_example("L2q(4)")
        with pytest.raises(UnknownTag):
            named_example("LOSSfamily(1)")


class TestRecordFiles:
    def test_round_trip(self, tmp_path):
        records = [unknot_record(), negative_torus_record(-5, 3), named_example("L2q(5)")]
        path = tmp_path / "records.json"
        path.write_text(json.dumps([record_to_dict(r) for r in records]))
        assert load_records(path) == tuple(records)

    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidParams):
            record_from_dict({"family": "x", "chi": 1, "bogus": 2})

    def test_not_a_list(self, tmp_path):
        path = tmp_path / "records.json"
        path.write_text("{}")
        with pytest.raises(InvalidParams):
            load_records(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidParams):
            load_records(tmp_path / "absent.json")
