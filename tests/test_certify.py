import json
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonloose.calculus import ClassicalPair, RationalData
from nonloose.certify import (
    Certificate,
    CheckResult,
    Depth2Witness,
    Reason,
    Verdict,
    bennequin_null,
    bennequin_rational,
    bundle_is_consistent,
    certificate_bounds,
    check_consistency,
    depth2_check,
    depth_one_dual,
    order_bounds,
    order_zero_by_tb_bound,
    possurg_depth_one,
    tension_certificate,
    tension_less_than_depth_search,
    tension_one_dual,
    tension_refinement,
    tension_upper_bound,
    transverse_bennequin,
    transverse_transfer,
    unknot_verdict,
)
from nonloose.errors import (
    ContradictoryEvidence,
    IncompatibleRelation,
    InvalidParams,
    NotLoosened,
)
from test_tension_pins import _violates


class TestBennequinChecks:
    def test_classical(self):
        assert bennequin_null(ClassicalPair(0, 3, -1)) is CheckResult.VIOLATED
        assert bennequin_null(ClassicalPair(-1, 0, 1)) is CheckResult.HOLDS
        assert bennequin_null(ClassicalPair(-15, -2, -7)) is CheckResult.HOLDS

    def test_classical_needs_chi(self):
        with pytest.raises(InvalidParams, match="needs chi"):
            bennequin_null(ClassicalPair(0, 0))

    def test_rational(self):
        assert (
            bennequin_rational(RationalData(Fraction(1, 14), Fraction(8, 7), 14, -7))
            is CheckResult.VIOLATED
        )
        assert (
            bennequin_rational(RationalData(Fraction(15, 14), Fraction(1, 7), 14, -7))
            is CheckResult.HOLDS
        )
        # (0, 0) with chi = 1 sits above the bound -chi/r = -1, so it violates
        assert bennequin_rational(RationalData(0, 0, 1, 1)) is CheckResult.VIOLATED

    def test_transverse(self):
        assert transverse_bennequin(1, 1, 1) is CheckResult.VIOLATED
        assert transverse_bennequin(-13, -7, 1) is CheckResult.HOLDS
        assert transverse_bennequin(Fraction(-15, 14), -7, 14) is CheckResult.HOLDS


class TestUnknotVerdict:
    def test_family_classification(self):
        for n in range(1, 21):
            for r in range(-n - 2, n + 3):
                cert = unknot_verdict(ClassicalPair(n, r))
                if abs(r) == n - 1:
                    assert cert.verdict is not Verdict.LOOSE_CERTIFIED
                else:
                    assert cert.verdict is Verdict.LOOSE_CERTIFIED

    def test_never_both_loose_and_depth_one(self):
        for n in range(-3, 6):
            for r in range(-6, 7):
                cert = unknot_verdict(ClassicalPair(n, r))
                assert cert.verdict is not Verdict.DEPTH_ONE


class TestTensionUpperBound:
    def test_l2q_examples(self):
        assert tension_upper_bound(ClassicalPair(3, 0, -1), 10) == (3, (0, 3))
        assert tension_upper_bound(ClassicalPair(5, 0, -3), 10)[0] == 5

    def test_dual_positive_only(self):
        data = RationalData(Fraction(15, 14), Fraction(1, 7), 14, -7)
        assert tension_upper_bound(data, 10, "positive_only") == (1, (1, 0))

    def test_no_violation_within_budget(self):
        assert tension_upper_bound(ClassicalPair(-5, 0, 1), 20) is None

    def test_zero_bound_when_already_violated(self):
        assert tension_upper_bound(ClassicalPair(0, 3, -1), 5) == (0, (0, 0))

    def test_needs_chi(self):
        with pytest.raises(InvalidParams, match="needs chi"):
            tension_upper_bound(ClassicalPair(3, 0), 5)

    def test_bad_side(self):
        with pytest.raises(InvalidParams):
            tension_upper_bound(ClassicalPair(3, 0, -1), 5, "sideways")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-6, 8), st.integers(-6, 6), st.sampled_from([1, -1, -3, -5]))
    def test_repeating_the_violating_sign_stays_violating(self, tb, rot, chi):
        p = ClassicalPair(tb, rot, chi)
        found = tension_upper_bound(p, 12, "both")
        if found is None:
            return
        _, (a, b) = found
        if rot + a - b >= 0:
            assert _violates(p, a + 1, b)
        else:
            assert _violates(p, a, b + 1)


class TestSearch:
    def test_p_max_five(self):
        certs = tension_less_than_depth_search(5)
        knots = [c.details["knot"] for c in certs]
        assert "torus(-5,2)" in knots and "torus(-5,3)" in knots
        for cert in certs:
            assert cert.verdict is Verdict.TENSION_EXACTLY_ONE
            assert cert.details["tension_max"] == 1
            assert cert.details["depth_min"] == 2

    def test_p_max_three(self):
        assert [c.details["knot"] for c in tension_less_than_depth_search(3)] == [
            "torus(-3,2)"
        ]

    def test_p_max_one_empty(self):
        assert tension_less_than_depth_search(1) == []

    def test_agrees_with_tension_one_dual(self):
        for cert in tension_less_than_depth_search(8):
            d = cert.details
            again = tension_one_dual(d["tb"], d["rot"], d["chi"], True)
            assert again.verdict is Verdict.TENSION_EXACTLY_ONE

    def test_consistency(self):
        assert check_consistency(tension_less_than_depth_search(8)) == []


class TestDepth2:
    def test_bad_surface_kind(self):
        with pytest.raises(InvalidParams):
            Depth2Witness("sphere", 0, 1, True, True, True)


class TestOrder:
    def test_not_loosened(self):
        with pytest.raises(NotLoosened):
            order_bounds(1, 1, False)

    def test_contradictory_evidence(self):
        with pytest.raises(ContradictoryEvidence):
            order_zero_by_tb_bound(True, order_positive=True)


class TestTransfer:
    def test_negative_tension_needs_pushoff_relation(self):
        src = tension_refinement(True, True, True)
        with pytest.raises(IncompatibleRelation):
            transverse_transfer(src, "approximation")

    def test_bad_relation(self):
        with pytest.raises(IncompatibleRelation):
            transverse_transfer(_witness_cert(1, 0), "sibling")


class TestCertificateStructure:
    def test_reason_required(self):
        with pytest.raises(InvalidParams):
            Certificate(Verdict.INCONCLUSIVE)

    def test_to_dict_serializes_fractions(self):
        cert = Certificate(
            Verdict.TENSION_UPPER_BOUND,
            details={"tb_q": Fraction(1, 14)},
            reasons=(Reason("bennequin-rational", "x", {"rot_q": Fraction(8, 7)}),),
        )
        doc = cert.to_dict()
        assert doc["details"]["tb_q"] == "1/14"
        assert doc["reasons"][0]["inputs"]["rot_q"] == "8/7"

    def test_consistency_rejects_bad_bundle(self):
        bad = Certificate(
            Verdict.ORDER_BOUNDS,
            details={"order_bar_min": 2, "tension_max": 1},
            reasons=(Reason("stabilization-order-bound", "made-up"),),
        )
        assert not bundle_is_consistent(bad)
        assert check_consistency([bad]) == [bad]

    @pytest.mark.parametrize(
        "details",
        [
            {"tension_min": 2, "tension_max": 1},
            {"depth_min": 3, "depth_max": 2},
            {"order_bar_min": 3, "order_bar_max": 1},
        ],
    )
    def test_consistency_rejects_empty_window(self, details):
        bad = Certificate(
            Verdict.ORDER_BOUNDS,
            details=details,
            reasons=(Reason("stabilization-order-bound", "made-up"),),
        )
        assert not bundle_is_consistent(bad)
        assert check_consistency([bad]) == [bad]

    @pytest.mark.parametrize(
        "if_nonloose, problem",
        [
            ({"tension": 1, "order_bar": 0}, "lacks depth"),
            ({"depth": 1, "order_bar": 0}, "lacks tension"),
            ({"depth": 1, "tension": 1}, "lacks order_bar"),
            ({"depth": 1}, "lacks tension, order_bar"),
            ({}, "lacks depth, tension, order_bar"),
            ([1, 1, 0], "must be a mapping"),
            (1, "must be a mapping"),
            ("depth", "must be a mapping"),
        ],
    )
    def test_malformed_if_nonloose(self, if_nonloose, problem):
        cert = Certificate(
            Verdict.INCONCLUSIVE,
            details={"if_nonloose": if_nonloose},
            reasons=(Reason("unknot-classification", "made-up"),),
        )
        for check in (certificate_bounds, bundle_is_consistent, lambda c: check_consistency([c])):
            with pytest.raises(InvalidParams, match=problem):
                check(cert)

    def test_consistency_accepts_emitted_certificates(self):
        certs = [
            unknot_verdict(ClassicalPair(2, 1)),
            unknot_verdict(ClassicalPair(0, 0)),
            depth_one_dual(True, True),
            possurg_depth_one(7, 4),
            order_bounds(2, 3, True),
            order_zero_by_tb_bound(True),
            tension_refinement(True, True, True),
        ]
        assert check_consistency(certs) == []


def _witness_cert(a, b):
    return Certificate(
        Verdict.TENSION_UPPER_BOUND,
        details={"tension_max": a + b, "witness": (a, b)},
        reasons=(Reason("stabilization-violation-search", "test input"),),
    )


_DEPTH2_WITNESS = Depth2Witness("punctured-torus", 0, 1, True, True, True)


class TestPinnedCertificates:
    """One certificate from every verdict branch, pinned as exact JSON text
    (key order included) and as bound windows."""

    CASES = {
        "unknot tb nonpositive": (
            lambda: unknot_verdict(ClassicalPair(0, 1)),
            '{"verdict": "LooseCertified", "details": {"knot_type": "unknot", '
            '"tb": 0, "rot": 1, "depth_min": 0, "depth_max": 0, "tension_min": 0, '
            '"tension_max": 0, "order_bar_max": 0}, '
            '"reasons": [{"rule": "unknot-tb-nonpositive", '
            '"note": "a Legendrian unknot with tb <= 0 in an overtwisted structure is loose", '
            '"inputs": {"tb": 0}}], "assumptions": {}}'
        ),
        "unknot tb negative": (
            lambda: unknot_verdict(ClassicalPair(-3, 2)),
            '{"verdict": "LooseCertified", "details": {"knot_type": "unknot", '
            '"tb": -3, "rot": 2, "depth_min": 0, "depth_max": 0, "tension_min": 0, '
            '"tension_max": 0, "order_bar_max": 0}, '
            '"reasons": [{"rule": "unknot-tb-nonpositive", '
            '"note": "a Legendrian unknot with tb <= 0 in an overtwisted structure is loose", '
            '"inputs": {"tb": -3}}], "assumptions": {}}'
        ),
        "unknot rot off the classification": (
            lambda: unknot_verdict(ClassicalPair(2, 0)),
            '{"verdict": "LooseCertified", "details": {"knot_type": "unknot", '
            '"tb": 2, "rot": 0, "depth_min": 0, "depth_max": 0, "tension_min": 0, '
            '"tension_max": 0, "order_bar_max": 0}, '
            '"reasons": [{"rule": "unknot-classification", '
            '"note": "no non-loose unknot has these invariants, '
            'so the knot is loose", "inputs": {"tb": 2, "rot": 0}}], '
            '"assumptions": {}}'
        ),
        "unknot possibly nonloose": (
            lambda: unknot_verdict(ClassicalPair(2, 1)),
            '{"verdict": "Inconclusive", "details": {"knot_type": "unknot", '
            '"tb": 2, "rot": 1, "possibly_nonloose": true, '
            '"if_nonloose": {"depth": 1, "tension": 1, "order_bar": 0}, '
            '"order_bar_max": 0}, "reasons": [{"rule": "unknot-classification", '
            '"note": "(tb, rot) = (n, '
            '+-(n-1)) matches a classified non-loose unknot", "inputs": {"tb": 2, '
            '"rot": 1}}, {"rule": "unknot-depth-tension", '
            '"note": "every non-loose unknot has depth = tension = 1", '
            '"inputs": {}}, {"rule": "tb-bound-order-zero", '
            '"note": "non-loose unknots have tb >= 1, '
            'so the torsion order vanishes", "inputs": {}}], "assumptions": {}}'
        ),
        "tension found": (
            lambda: tension_certificate(ClassicalPair(3, 0, -1), 10),
            '{"verdict": "TensionUpperBound", "details": {"tension_max": 3, '
            '"witness": [0, 3], "side": "both"}, '
            '"reasons": [{"rule": "stabilization-violation-search", '
            '"note": "the witness stabilization violates the applicable Bennequin bound, '
            'so the stabilized knot is loose", "inputs": {"witness": [0, 3], '
            '"side": "both"}}], "assumptions": {}}'
        ),
        "tension not found": (
            lambda: tension_certificate(ClassicalPair(-5, 0, 1), 20),
            '{"verdict": "NoObstruction", "details": {"max_n": 20, '
            '"side": "both"}, '
            '"reasons": [{"rule": "stabilization-violation-search", '
            '"note": "no stabilization within the budget violates the applicable Bennequin bound", '
            '"inputs": {"max_n": 20, "side": "both"}}], "assumptions": {}}'
        ),
        "depth one dual loose": (
            lambda: depth_one_dual(True, False),
            '{"verdict": "LooseCertified", "details": {"depth_min": 0, '
            '"depth_max": 0, "tension_min": 0, "tension_max": 0}, '
            '"reasons": [{"rule": "loose-complement", '
            '"note": "an overtwisted complement is the definition of loose", '
            '"inputs": {}}], "assumptions": {"is_stabilization": true, '
            '"complement_tight": false}}'
        ),
        "depth one dual loose, not a stabilization": (
            lambda: depth_one_dual(False, False),
            '{"verdict": "LooseCertified", "details": {"depth_min": 0, "depth_max": 0, '
            '"tension_min": 0, "tension_max": 0}, "reasons": [{"rule": '
            '"loose-complement", "note": "an overtwisted complement is the definition '
            'of loose", "inputs": {}}], "assumptions": {"is_stabilization": false, '
            '"complement_tight": false}}'
        ),
        "depth one dual one": (
            lambda: depth_one_dual(True, True),
            '{"verdict": "DepthOne", "details": {"depth_min": 1, "depth_max": 1}, '
            '"reasons": [{"rule": "dual-depth-characterization", '
            '"note": "(+1)-surgery on a stabilization caps off an overtwisted disk meeting the dual once", '
            '"inputs": {}}], "assumptions": {"is_stabilization": true, '
            '"complement_tight": true}}'
        ),
        "depth one dual at least two": (
            lambda: depth_one_dual(False, True),
            '{"verdict": "DepthAtLeastTwo", "details": {"depth_min": 2}, '
            '"reasons": [{"rule": "dual-depth-characterization", '
            '"note": "depth one of the dual forces the surgered knot to destabilize", '
            '"inputs": {}}], "assumptions": {"is_stabilization": false, '
            '"complement_tight": true}}'
        ),
        "tension one dual failed": (
            lambda: tension_one_dual(-2, 1, -1, False),
            '{"verdict": "Inconclusive", "details": {"tb": -2, "rot": 1, '
            '"chi": -1, "failed_conditions": ["rot < 0", "tb + rot + 2 < chi", '
            '"surgery_overtwisted"]}, '
            '"reasons": [{"rule": "dual-tension-criterion", '
            '"note": "hypotheses of the dual tension-one criterion are not all met", '
            '"inputs": {"tb": -2, "rot": 1, "chi": -1}}], '
            '"assumptions": {"surgery_overtwisted": false}}'
        ),
        "tension one dual failed rot": (
            lambda: tension_one_dual(-2, 1, -1, True),
            '{"verdict": "Inconclusive", "details": {"tb": -2, "rot": 1, "chi": -1, '
            '"failed_conditions": ["rot < 0", "tb + rot + 2 < chi"]}, "reasons": '
            '[{"rule": "dual-tension-criterion", "note": "hypotheses of the dual '
            'tension-one criterion are not all met", "inputs": {"tb": -2, "rot": 1, '
            '"chi": -1}}], "assumptions": {"surgery_overtwisted": true}}'
        ),
        "tension one dual failed overtwisted": (
            lambda: tension_one_dual(-15, -2, -7, False),
            '{"verdict": "Inconclusive", "details": {"tb": -15, "rot": -2, "chi": -7, '
            '"failed_conditions": ["surgery_overtwisted"]}, "reasons": [{"rule": '
            '"dual-tension-criterion", "note": "hypotheses of the dual tension-one '
            'criterion are not all met", "inputs": {"tb": -15, "rot": -2, '
            '"chi": -7}}], "assumptions": {"surgery_overtwisted": false}}'
        ),
        "tension one dual exactly one": (
            lambda: tension_one_dual(-15, -2, -7, True),
            '{"verdict": "TensionExactlyOne", "details": {"tb": -15, "rot": -2, '
            '"chi": -7, "tension_min": 1, "tension_max": 1}, '
            '"reasons": [{"rule": "dual-tension-criterion", '
            '"note": "a positive stabilization of the dual violates the rational Bennequin bound, '
            'and the dual itself is non-loose", "inputs": {"tb": -15, "rot": -2, '
            '"chi": -7}}], "assumptions": {"surgery_overtwisted": true}}'
        ),
        "tension less than depth": (
            lambda: tension_less_than_depth_search(3)[0],
            '{"verdict": "TensionExactlyOne", "details": {"knot": "torus(-3,2)", '
            '"tb": -6, "rot": -1, "chi": -1, "tension_min": 1, "tension_max": 1, '
            '"depth_min": 2, "dual_tb_q": "1/5", "dual_rot_q": "6/5", '
            '"dual_order_r": 5}, "reasons": [{"rule": "dual-tension-criterion", '
            '"note": "a positive stabilization of the dual violates the rational Bennequin bound, '
            'and the dual itself is non-loose", "inputs": {"tb": -6, "rot": -1, '
            '"chi": -1}}, {"rule": "dual-depth-characterization", '
            '"note": "depth one of the dual forces the surgered knot to destabilize", '
            '"inputs": {}}, {"rule": "max-tb-witness", '
            '"note": "tb equals the classified maximum, '
            'ruling out a destabilization", "inputs": {"tb": -6, "max_tb": -6}}, '
            '{"rule": "bennequin-rational", '
            '"note": "the stabilized dual violates the rational Bennequin bound", '
            '"inputs": {"tb_q": "1/5", "rot_q": "6/5", "r": 5, "chi": -1}}], '
            '"assumptions": {"surgery_overtwisted": true, '
            '"complement_tight": true}}'
        ),
        "depth two failed": (
            lambda: depth2_check(Depth2Witness("punctured-klein-bottle", 1, 0, True, True, False), True, True),
            '{"verdict": "Inconclusive", '
            '"details": {"surface_kind": "punctured-klein-bottle", '
            '"failed_conditions": ["not_a_stabilization", "tw_boundary == 0", '
            '"tw_curve == +1", "orientation_preserving"]}, '
            '"reasons": [{"rule": "depth-two-witness", '
            '"note": "a clause of the depth-two characterization fails", '
            '"inputs": {"surface_kind": "punctured-klein-bottle"}}], '
            '"assumptions": {"is_stabilization": true, "complement_tight": true}}'
        ),
        "depth two failed stabilization": (
            lambda: depth2_check(_DEPTH2_WITNESS, True, True),
            '{"verdict": "Inconclusive", "details": {"surface_kind": '
            '"punctured-torus", "failed_conditions": ["not_a_stabilization"]}, '
            '"reasons": [{"rule": "depth-two-witness", "note": "a clause of the '
            'depth-two characterization fails", "inputs": {"surface_kind": '
            '"punctured-torus"}}], "assumptions": {"is_stabilization": true, '
            '"complement_tight": true}}'
        ),
        "depth two failed twisting": (
            lambda: depth2_check(Depth2Witness("punctured-klein-bottle", 0, 0, True, True, True), False, True),
            '{"verdict": "Inconclusive", "details": {"surface_kind": '
            '"punctured-klein-bottle", "failed_conditions": ["tw_curve == +1"]}, '
            '"reasons": [{"rule": "depth-two-witness", "note": "a clause of the '
            'depth-two characterization fails", "inputs": {"surface_kind": '
            '"punctured-klein-bottle"}}], "assumptions": {"is_stabilization": false, '
            '"complement_tight": true}}'
        ),
        "depth two exactly": (
            lambda: depth2_check(_DEPTH2_WITNESS, False, True),
            '{"verdict": "DepthExactlyTwo", '
            '"details": {"surface_kind": "punctured-torus", "depth_min": 2, '
            '"depth_max": 2}, "reasons": [{"rule": "depth-two-witness", '
            '"note": "the punctured surface compresses to an overtwisted disk met twice, '
            'and no destabilization lowers the depth to 1", '
            '"inputs": {"surface_kind": "punctured-torus"}}], '
            '"assumptions": {"is_stabilization": false, "complement_tight": true}}'
        ),
        "possurg failed": (
            lambda: possurg_depth_one(1, 1),
            '{"verdict": "Inconclusive", "details": {"tb": 1, "g_s": 1, '
            '"failed_conditions": ["tb > 1"]}, '
            '"reasons": [{"rule": "positive-surgery-tight", '
            '"note": "the sharp slice-Bennequin hypothesis does not hold", '
            '"inputs": {"tb": 1, "g_s": 1}}], "assumptions": {}}'
        ),
        "possurg failed sharpness": (
            lambda: possurg_depth_one(5, 2),
            '{"verdict": "Inconclusive", "details": {"tb": 5, "g_s": 2, '
            '"failed_conditions": ["tb == 2*g_s - 1"]}, "reasons": [{"rule": '
            '"positive-surgery-tight", "note": "the sharp slice-Bennequin hypothesis '
            'does not hold", "inputs": {"tb": 5, "g_s": 2}}], "assumptions": {}}'
        ),
        "possurg depth one": (
            lambda: possurg_depth_one(7, 4),
            '{"verdict": "DepthOne", "details": {"tb": 7, "g_s": 4, '
            '"depth_min": 1, "depth_max": 1, '
            '"applies_to": "meridian-surgered image"}, '
            '"reasons": [{"rule": "positive-surgery-tight", '
            '"note": "tb = 2 g_s - 1 > 1 makes (+1)-surgery tight, '
            'so the image knot meets an overtwisted disk exactly once", '
            '"inputs": {"tb": 7, "g_s": 4}}], "assumptions": {}}'
        ),
        "order bounds": (
            lambda: order_bounds(2, 3, True),
            '{"verdict": "OrderBounds", "details": {"order_max": 2, '
            '"order_reversed_max": 3, "order_bar_max": 5}, '
            '"reasons": [{"rule": "stabilization-order-bound", '
            '"note": "positive stabilizations multiply the invariant by U, '
            'negative ones fix it", "inputs": {"a": 2, "b": 3}}], '
            '"assumptions": {"loosened": true}}'
        ),
        "order bounds positive only": (
            lambda: order_bounds(1, 0, True),
            '{"verdict": "OrderBounds", "details": {"order_max": 1, '
            '"order_reversed_max": 0, "order_bar_max": 1}, "reasons": [{"rule": '
            '"stabilization-order-bound", "note": "positive stabilizations multiply '
            'the invariant by U, negative ones fix it", "inputs": {"a": 1, "b": 0}}], '
            '"assumptions": {"loosened": true}}'
        ),
        "order bounds loose": (
            lambda: order_bounds(0, 0, True),
            '{"verdict": "OrderBounds", "details": {"order_max": 0, '
            '"order_reversed_max": 0, "order_bar_max": 0}, '
            '"reasons": [{"rule": "stabilization-order-bound", '
            '"note": "the knot itself is loose, '
            'so the invariant and both orders vanish", "inputs": {"a": 0, '
            '"b": 0}}], "assumptions": {"loosened": true}}'
        ),
        "order zero inconclusive": (
            lambda: order_zero_by_tb_bound(False),
            '{"verdict": "Inconclusive", "details": {}, '
            '"reasons": [{"rule": "tb-bound-order-zero", '
            '"note": "no tb lower bound supplied; nothing follows", '
            '"inputs": {}}], "assumptions": {"has_tb_lower_bound": false}}'
        ),
        "order zero": (
            lambda: order_zero_by_tb_bound(True),
            '{"verdict": "OrderZero", "details": {"order_bar_min": 0, '
            '"order_bar_max": 0, "t_plus_finite": true, "t_minus_finite": true}, '
            '"reasons": [{"rule": "tb-bound-order-zero", '
            '"note": "stabilizing past the tb bound loosens the knot with either sign, '
            'so the invariant vanishes and both signed tensions are finite", '
            '"inputs": {}}], "assumptions": {"has_tb_lower_bound": true}}'
        ),
        "refinement loose": (
            lambda: tension_refinement(True, True, False),
            '{"verdict": "LooseCertified", "details": {"depth_min": 0, '
            '"depth_max": 0, "tension_min": 0, "tension_max": 0}, '
            '"reasons": [{"rule": "loose-complement", '
            '"note": "an overtwisted complement is the definition of loose", '
            '"inputs": {}}], "assumptions": {"is_positive_stab_of_pushoff": true, '
            '"contact_invariant_nonzero": true, "complement_tight": false}}'
        ),
        "refinement failed": (
            lambda: tension_refinement(False, True, True),
            '{"verdict": "Inconclusive", '
            '"details": {"failed_conditions": ["is_positive_stab_of_pushoff"]}, '
            '"reasons": [{"rule": "signed-tension-refinement", '
            '"note": "the construction needs the surgered knot to be a positive stabilization of a push-off", '
            '"inputs": {}}], "assumptions": {"is_positive_stab_of_pushoff": false, '
            '"contact_invariant_nonzero": true, "complement_tight": true}}'
        ),
        "refinement signed": (
            lambda: tension_refinement(True, False, True),
            '{"verdict": "SignedTensionBound", "details": {"t_minus_min": 1, '
            '"t_minus_max": 1, "tension_min": 1, "tension_max": 1}, '
            '"reasons": [{"rule": "signed-tension-refinement", '
            '"note": "one negative stabilization of the dual removes the single intersection with the capped-off overtwisted disk", '
            '"inputs": {}}], "assumptions": {"is_positive_stab_of_pushoff": true, '
            '"contact_invariant_nonzero": false, "complement_tight": true}}'
        ),
        "refinement signed with t_plus": (
            lambda: tension_refinement(True, True, True),
            '{"verdict": "SignedTensionBound", "details": {"t_minus_min": 1, '
            '"t_minus_max": 1, "tension_min": 1, "tension_max": 1, '
            '"t_plus_min": 2}, "reasons": [{"rule": "signed-tension-refinement", '
            '"note": "one negative stabilization of the dual removes the single intersection with the capped-off overtwisted disk", '
            '"inputs": {}}, {"rule": "signed-tension-refinement", '
            '"note": "(-1)-surgery on a positive stabilization of the dual keeps a nonzero contact class, '
            'so one positive stabilization stays non-loose", "inputs": {}}], '
            '"assumptions": {"is_positive_stab_of_pushoff": true, '
            '"contact_invariant_nonzero": true, "complement_tight": true}}'
        ),
        "transfer hopf binding": (
            lambda: transverse_transfer(_witness_cert(1, 0), "pushoff", is_negative_hopf_stabilization=True),
            '{"verdict": "DepthOne", "details": {"depth_min": 1, "depth_max": 1, '
            '"tension_min": 1, "tension_max": 1}, '
            '"reasons": [{"rule": "hopf-binding-depth", '
            '"note": "plumbing a positive Hopf band exposes an overtwisted disk met once by the binding", '
            '"inputs": {}}], '
            '"assumptions": {"is_negative_hopf_stabilization": true}}'
        ),
        "transfer unknot": (
            lambda: transverse_transfer(unknot_verdict(ClassicalPair(2, 1)), "approximation"),
            '{"verdict": "LooseCertified", "details": {"knot_type": "unknot", '
            '"depth_min": 0, "depth_max": 0, "tension_min": 0, "tension_max": 0}, '
            '"reasons": [{"rule": "transverse-unknot-loose", '
            '"note": "every transverse unknot in an overtwisted structure is loose", '
            '"inputs": {}}], '
            '"assumptions": {"is_negative_hopf_stabilization": false}}'
        ),
        "transfer finite negative tension": (
            lambda: transverse_transfer(tension_refinement(True, True, True), "pushoff"),
            '{"verdict": "LooseCertified", "details": {"depth_min": 0, '
            '"depth_max": 0, "tension_min": 0, "tension_max": 0}, '
            '"reasons": [{"rule": "pushoff-loose", '
            '"note": "negative stabilizations do not move the push-off, '
            'so a finite negative tension looses it", '
            '"inputs": {"t_minus_max": 1}}], '
            '"assumptions": {"is_negative_hopf_stabilization": false}}'
        ),
        "transfer loose pushoff": (
            lambda: transverse_transfer(depth_one_dual(True, False), "pushoff"),
            '{"verdict": "LooseCertified", "details": {"depth_min": 0, '
            '"depth_max": 0, "tension_min": 0, "tension_max": 0}, '
            '"reasons": [{"rule": "pushoff-loose", '
            '"note": "the push-off of a loose knot is loose (zero negative tension)", '
            '"inputs": {}}], '
            '"assumptions": {"is_negative_hopf_stabilization": false}}'
        ),
        "transfer purely negative loosening": (
            lambda: transverse_transfer(tension_certificate(ClassicalPair(3, 0, -1), 10), "approximation"),
            '{"verdict": "LooseCertified", "details": {"depth_min": 0, '
            '"depth_max": 0, "tension_min": 0, "tension_max": 0}, '
            '"reasons": [{"rule": "pushoff-loose", '
            '"note": "a purely negative loosening leaves the transverse knot unchanged, '
            'so it is loose", "inputs": {}}], '
            '"assumptions": {"is_negative_hopf_stabilization": false}}'
        ),
        "transfer approximation tension": (
            lambda: transverse_transfer(_witness_cert(3, 2), "approximation"),
            '{"verdict": "TensionUpperBound", "details": {"tension_max": 3, '
            '"positive_stabs_used": 3}, '
            '"reasons": [{"rule": "approximation-tension", '
            '"note": "only the positive stabilizations of an approximation survive as stabilizations of the transverse knot", '
            '"inputs": {"positive_stabs_used": 3}}], '
            '"assumptions": {"is_negative_hopf_stabilization": false}}'
        ),
        "transfer no rule": (
            lambda: transverse_transfer(order_zero_by_tb_bound(True), "approximation"),
            '{"verdict": "Inconclusive", '
            '"details": {"source_verdict": "OrderZero"}, '
            '"reasons": [{"rule": "transverse-transfer", '
            '"note": "no transfer rule applies to the supplied certificate", '
            '"inputs": {}}], '
            '"assumptions": {"is_negative_hopf_stabilization": false}}'
        ),
    }

    BOUNDS = {
        "unknot tb nonpositive": {"order_bar": (0, 0), "tension": (0, 0), "depth": (0, 0)},
        "unknot tb negative": {"order_bar": (0, 0), "tension": (0, 0), "depth": (0, 0)},
        "unknot rot off the classification": {"order_bar": (0, 0), "tension": (0, 0), "depth": (0, 0)},
        "unknot possibly nonloose": {"order_bar": (0, 0), "tension": (1, 1), "depth": (1, 1)},
        "tension found": {"order_bar": (0, inf), "tension": (0, 3), "depth": (0, inf)},
        "tension not found": {"order_bar": (0, inf), "tension": (0, inf), "depth": (0, inf)},
        "depth one dual loose": {"order_bar": (0, inf), "tension": (0, 0), "depth": (0, 0)},
        "depth one dual loose, not a stabilization": {"order_bar": (0, inf), "tension": (0, 0), "depth": (0, 0)},
        "depth one dual one": {"order_bar": (0, inf), "tension": (0, inf), "depth": (1, 1)},
        "depth one dual at least two": {"order_bar": (0, inf), "tension": (0, inf), "depth": (2, inf)},
        "tension one dual failed": {"order_bar": (0, inf), "tension": (0, inf), "depth": (0, inf)},
        "tension one dual failed rot": {"order_bar": (0, inf), "tension": (0, inf), "depth": (0, inf)},
        "tension one dual failed overtwisted": {"order_bar": (0, inf), "tension": (0, inf), "depth": (0, inf)},
        "tension one dual exactly one": {"order_bar": (0, inf), "tension": (1, 1), "depth": (0, inf)},
        "tension less than depth": {"order_bar": (0, inf), "tension": (1, 1), "depth": (2, inf)},
        "depth two failed": {"order_bar": (0, inf), "tension": (0, inf), "depth": (0, inf)},
        "depth two failed stabilization": {"order_bar": (0, inf), "tension": (0, inf), "depth": (0, inf)},
        "depth two failed twisting": {"order_bar": (0, inf), "tension": (0, inf), "depth": (0, inf)},
        "depth two exactly": {"order_bar": (0, inf), "tension": (0, inf), "depth": (2, 2)},
        "possurg failed": {"order_bar": (0, inf), "tension": (0, inf), "depth": (0, inf)},
        "possurg failed sharpness": {"order_bar": (0, inf), "tension": (0, inf), "depth": (0, inf)},
        "possurg depth one": {"order_bar": (0, inf), "tension": (0, inf), "depth": (1, 1)},
        "order bounds": {"order_bar": (0, 5), "tension": (0, inf), "depth": (0, inf)},
        "order bounds positive only": {"order_bar": (0, 1), "tension": (0, inf), "depth": (0, inf)},
        "order bounds loose": {"order_bar": (0, 0), "tension": (0, inf), "depth": (0, inf)},
        "order zero inconclusive": {"order_bar": (0, inf), "tension": (0, inf), "depth": (0, inf)},
        "order zero": {"order_bar": (0, 0), "tension": (0, inf), "depth": (0, inf)},
        "refinement loose": {"order_bar": (0, inf), "tension": (0, 0), "depth": (0, 0)},
        "refinement failed": {"order_bar": (0, inf), "tension": (0, inf), "depth": (0, inf)},
        "refinement signed": {"order_bar": (0, inf), "tension": (1, 1), "depth": (0, inf)},
        "refinement signed with t_plus": {"order_bar": (0, inf), "tension": (1, 1), "depth": (0, inf)},
        "transfer hopf binding": {"order_bar": (0, inf), "tension": (1, 1), "depth": (1, 1)},
        "transfer unknot": {"order_bar": (0, inf), "tension": (0, 0), "depth": (0, 0)},
        "transfer finite negative tension": {"order_bar": (0, inf), "tension": (0, 0), "depth": (0, 0)},
        "transfer loose pushoff": {"order_bar": (0, inf), "tension": (0, 0), "depth": (0, 0)},
        "transfer purely negative loosening": {"order_bar": (0, inf), "tension": (0, 0), "depth": (0, 0)},
        "transfer approximation tension": {"order_bar": (0, inf), "tension": (0, 3), "depth": (0, inf)},
        "transfer no rule": {"order_bar": (0, inf), "tension": (0, inf), "depth": (0, inf)},
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_json_text(self, name):
        make, expected = self.CASES[name]
        assert json.dumps(make().to_dict()) == expected

    @pytest.mark.parametrize("name", list(CASES))
    def test_bound_windows(self, name):
        make, _ = self.CASES[name]
        assert certificate_bounds(make()) == self.BOUNDS[name]
        assert bundle_is_consistent(make())
