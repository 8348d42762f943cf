"""Each strict comparison of the Bennequin checks, the unknot classification
and the dual tension criterion, tested exactly on its boundary and one step
past it.  A check that turned < into <= (or > into >=) passes every test
that stays off the boundary, so each case here sits on it."""

from fractions import Fraction

import pytest

from nonloose.calculus import ClassicalPair, RationalData
from nonloose.certify import (
    CheckResult,
    Verdict,
    bennequin_null,
    bennequin_rational,
    tension_one_dual,
    transverse_bennequin,
    unknot_verdict,
)

HOLDS, VIOLATED = CheckResult.HOLDS, CheckResult.VIOLATED


@pytest.mark.parametrize("rot, expected", [(1, HOLDS), (2, VIOLATED)])
def test_classical_bennequin_holds_with_equality(rot, expected):
    # -|0| + |rot| against -chi = 1
    assert bennequin_null(ClassicalPair(0, rot, -1)) is expected


@pytest.mark.parametrize("rot_q, expected", [(Fraction(1, 3), HOLDS), (Fraction(2, 3), VIOLATED)])
def test_rational_bennequin_holds_with_equality(rot_q, expected):
    # -|0| + |rot_Q| against -chi/r = 1/3
    assert bennequin_rational(RationalData(0, rot_q, 3, -1)) is expected


@pytest.mark.parametrize("sl_q, expected", [(Fraction(1, 3), HOLDS), (Fraction(2, 3), VIOLATED)])
def test_transverse_bennequin_holds_with_equality(sl_q, expected):
    assert transverse_bennequin(sl_q, -1, 3) is expected


@pytest.mark.parametrize(
    "tb, rot, rule",
    [(1, 1, "unknot-classification"), (0, 0, "unknot-tb-nonpositive")],
)
def test_unknot_at_the_tb_boundary(tb, rot, rule):
    cert = unknot_verdict(ClassicalPair(tb, rot))
    assert cert.verdict is Verdict.LOOSE_CERTIFIED
    assert [r.rule for r in cert.reasons] == [rule]


@pytest.mark.parametrize(
    "tb, rot, chi, failed",
    [
        (-1, -1, 1, ("tb < -1",)),
        (-2, 0, 1, ("rot < 0",)),
        (-4, -1, -3, ("tb + rot + 2 < chi",)),  # tb + rot + 2 == chi
    ],
)
def test_dual_tension_criterion_fails_on_each_boundary(tb, rot, chi, failed):
    cert = tension_one_dual(tb, rot, chi, True)
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.details["failed_conditions"] == failed


@pytest.mark.parametrize("tb, rot, chi", [(-2, -1, 1), (-4, -2, -3)])
def test_dual_tension_criterion_holds_one_step_inside(tb, rot, chi):
    cert = tension_one_dual(tb, rot, chi, True)
    assert cert.verdict is Verdict.TENSION_EXACTLY_ONE
    assert (cert.details["tension_min"], cert.details["tension_max"]) == (1, 1)
