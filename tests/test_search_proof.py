"""``tension_less_than_depth_search`` builds one certificate per coprime pair
from the proof in its docstring, with no test of its own hypotheses.  The
guarded loop it replaced, which checked each hypothesis through the library
before building a certificate, is kept here as its oracle, and each of those
checks is asserted for every pair.  Also: a tension bound with no witness
does not transfer to a transverse knot."""

from fractions import Fraction
from math import gcd

import pytest

from nonloose import knotdata
from nonloose.calculus import ClassicalPair, dual_invariants
from nonloose.certify import (
    Certificate,
    CheckResult,
    Reason,
    Verdict,
    bennequin_rational,
    depth_one_dual,
    tension_certificate,
    tension_less_than_depth_search,
    tension_one_dual,
    transverse_transfer,
)
from nonloose.errors import InvalidParams
from nonloose.knotdata import negative_torus_record

P_MAX = 40


def guarded_search(p_max):
    """The search with a check of every hypothesis, skipping a pair that fails one."""
    out = []
    for p in range(-3, -p_max - 1, -1):
        for q in range(2, -p):
            try:
                rec = negative_torus_record(p, q)
            except InvalidParams:
                continue
            tb, chi = rec.max_tb, rec.chi
            rot = p + q
            tension = tension_one_dual(tb, rot, chi, rec.plus_one_surgery_overtwisted)
            if tension.verdict is not Verdict.TENSION_EXACTLY_ONE:
                continue
            if tb != rec.max_tb:  # a stabilization drops tb below the classified maximum
                continue
            depth = depth_one_dual(is_stabilization=False, complement_tight=True)
            dual = dual_invariants(tb, rot, 1, 0, chi)
            if bennequin_rational(dual) is not CheckResult.VIOLATED:
                continue
            out.append(
                Certificate(
                    Verdict.TENSION_EXACTLY_ONE,
                    details={
                        "knot": rec.family,
                        "tb": tb,
                        "rot": rot,
                        "chi": chi,
                        "tension_min": 1,
                        "tension_max": 1,
                        "depth_min": 2,
                        "dual_tb_q": dual.tb_q,
                        "dual_rot_q": dual.rot_q,
                        "dual_order_r": dual.order_r,
                    },
                    reasons=tuple(tension.reasons)
                    + tuple(depth.reasons)
                    + (
                        Reason(
                            "max-tb-witness",
                            "tb equals the classified maximum, ruling out a destabilization",
                            {"tb": tb, "max_tb": rec.max_tb},
                        ),
                        Reason(
                            "bennequin-rational",
                            "the stabilized dual violates the rational Bennequin bound",
                            {"tb_q": dual.tb_q, "rot_q": dual.rot_q, "r": dual.order_r, "chi": chi},
                        ),
                    ),
                    assumptions={"surgery_overtwisted": True, "complement_tight": True},
                )
            )
    return out


def coprime_pairs(p_max):
    return [(p, q) for p in range(-3, -p_max - 1, -1) for q in range(2, -p) if gcd(p, q) == 1]


@pytest.mark.parametrize("p_max", range(P_MAX + 1))
def test_search_matches_the_guarded_loop(p_max):
    got = [cert.to_dict() for cert in tension_less_than_depth_search(p_max)]
    assert got == [cert.to_dict() for cert in guarded_search(p_max)]
    assert [d["details"]["knot"] for d in got] == [f"torus({p},{q})" for p, q in coprime_pairs(p_max)]


def test_search_takes_rot_from_p_and_q(monkeypatch):
    """The search reads rot = p + q, not the record's one rotation number: a
    record holding the full set +-(p + q) leaves every certificate as it was."""

    def both_signs(p, q):
        rec = negative_torus_record(p, q)
        return rec.replace(rot_at_max_tb=frozenset({p + q, -(p + q)}))

    expected = [cert.to_dict() for cert in tension_less_than_depth_search(P_MAX)]
    monkeypatch.setattr(knotdata, "negative_torus_record", both_signs)
    assert [cert.to_dict() for cert in tension_less_than_depth_search(P_MAX)] == expected


@pytest.mark.parametrize("p, q", coprime_pairs(P_MAX))
def test_every_pair_meets_every_hypothesis(p, q):
    rec = negative_torus_record(p, q)
    tb, chi = rec.max_tb, rec.chi
    assert (tb, rec.rot_at_max_tb, chi) == (p * q, {p + q}, q - p + p * q)
    assert rec.plus_one_surgery_overtwisted is True
    tension = tension_one_dual(tb, p + q, chi, rec.plus_one_surgery_overtwisted)
    assert tension.verdict is Verdict.TENSION_EXACTLY_ONE
    assert tb == rec.max_tb
    dual = dual_invariants(tb, p + q, 1, 0, chi)
    n = -(p * q + 1)
    assert (dual.tb_q * n, dual.rot_q * n, dual.order_r) == (1, n - p - q, n)
    assert bennequin_rational(dual) is CheckResult.VIOLATED


def test_command_certificates_violate_bennequin(run_cli):
    """``search-examples --p-max 40`` prints one certificate per coprime pair,
    and each dual violates the rational Bennequin bound, checked here with
    plain fractions and no library call."""
    code, doc = run_cli.json(["search-examples", "--p-max", str(P_MAX)])
    assert code == 0
    certificates = doc["certificates"]
    assert [c["knot"] for c in certificates] == [f"torus({p},{q})" for p, q in coprime_pairs(P_MAX)]
    for c in certificates:
        d = c["certificate"]["details"]
        tb_q, rot_q = Fraction(d["dual_tb_q"]), Fraction(d["dual_rot_q"])
        assert -abs(tb_q) + abs(rot_q) > Fraction(-d["chi"], d["dual_order_r"]), d


class TestWitnessLessTransfer:
    def test_hand_built_bound_is_inconclusive(self):
        bound = Certificate(
            Verdict.TENSION_UPPER_BOUND,
            {"tension_max": 2},
            (Reason("stabilization-violation-search", "test input"),),
        )
        for relation in ("approximation", "pushoff"):
            cert = transverse_transfer(bound, relation)
            assert cert.verdict is Verdict.INCONCLUSIVE
            assert cert.details["source_verdict"] == "TensionUpperBound"
            assert cert.reasons[0].rule == "transverse-transfer"

    def test_transferred_bound_does_not_transfer_again(self):
        legendrian = tension_certificate(ClassicalPair(3, 0, chi=-1), side="positive_only")
        once = transverse_transfer(legendrian, "approximation")
        assert once.verdict is Verdict.TENSION_UPPER_BOUND
        assert "witness" not in once.details
        twice = transverse_transfer(once, "approximation")
        assert twice.verdict is Verdict.INCONCLUSIVE
        assert twice.details["source_verdict"] == "TensionUpperBound"

    def test_stabilization_count_is_not_a_parameter(self):
        bound = tension_certificate(ClassicalPair(3, 0, chi=-1), side="positive_only")
        with pytest.raises(TypeError):
            transverse_transfer(bound, "approximation", p_stabs_used=0)
        # the evidence flag is keyword-only, so an old positional count cannot land in it
        with pytest.raises(TypeError):
            transverse_transfer(bound, "approximation", 2)
