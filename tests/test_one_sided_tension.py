"""The one-sided stabilization search is a closed form: on each side it
agrees with the reference loop at a budget far past any answer, so one
budget of 10^12 costs what a budget of 0 does.  The boundaries pin the
strict inequality at the half-point, a non-integral rational case, an
integer too large for a float, and the budget's edge."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from test_tension_pins import classical, rational, reference_search

from nonloose.calculus import ClassicalPair, RationalData
from nonloose.certify import tension_upper_bound

ONE_SIDED = ("positive_only", "negative_only")
BUDGET = 10**12
# On one side the least violating total s is 0 or at most the ceiling of tb
# (the excess stops growing at s = tb), and the strategies keep tb <= 120.
REFERENCE_BUDGET = 121


@pytest.mark.parametrize("side", ONE_SIDED)
@settings(max_examples=200, deadline=None)
@given(data=classical | rational)
def test_closed_form_agrees_with_the_reference_loop_past_every_answer(side, data):
    assert tension_upper_bound(data, BUDGET, side) == reference_search(data, REFERENCE_BUDGET, side)


@pytest.mark.parametrize(
    "data, side, expected",
    [
        # rhs + c + tb = 1 + 0 + 3 is even: at s = 2 the excess 2s - c - tb
        # equals rhs = 1, which does not violate, so s = 3.
        (ClassicalPair(3, 0, -1), "positive_only", (3, (3, 0))),
        (ClassicalPair(3, 0, -1), "negative_only", (3, (0, 3))),
        # rhs + c + tb = 1 + 0 + 4 is odd: s = 3 is the first integer past 5/2
        (ClassicalPair(4, 0, -1), "positive_only", (3, (3, 0))),
        # rhs = 2/7, c = 3/7, tb = 29/7: the half-point 17/7 is not an integer
        (RationalData(Fraction(29, 7), Fraction(-3, 7), 7, -2), "positive_only", (3, (3, 0))),
        # c = -3/7: the half-point is the integer 2, where the excess equals rhs
        (RationalData(Fraction(29, 7), Fraction(-3, 7), 7, -2), "negative_only", (3, (0, 3))),
        # the knot itself violates: s = 0 on either side
        (ClassicalPair(-1, 3, -1), "positive_only", (0, (0, 0))),
        (ClassicalPair(-1, 3, -1), "negative_only", (0, (0, 0))),
        # c = 3 >= tb = 2: the excess never grows, on any budget
        (ClassicalPair(2, -3, -5), "positive_only", None),
        # tb - c = 1 - 0 stays within rhs = 5 however far the search goes
        (ClassicalPair(1, 0, -5), "positive_only", None),
        (ClassicalPair(1, 0, -5), "negative_only", None),
    ],
)
def test_boundaries_of_the_closed_form(data, side, expected):
    assert tension_upper_bound(data, BUDGET, side) == expected
    assert reference_search(data, REFERENCE_BUDGET, side) == expected


def test_a_total_past_float_precision_stays_exact():
    # s = (1 + 0 + 10^30) // 2 + 1; true division would round the half-point
    tb = 10**30
    s = tb // 2 + 1
    assert tension_upper_bound(ClassicalPair(tb, 0, -1), 10**31, "positive_only") == (s, (s, 0))
    assert tension_upper_bound(ClassicalPair(tb, 0, -1), s - 1, "positive_only") is None


@pytest.mark.parametrize("side", ONE_SIDED)
@pytest.mark.parametrize(
    "data",
    [
        ClassicalPair(3, 0, -1),
        ClassicalPair(40, -7, -21),
        RationalData(Fraction(29, 7), Fraction(-3, 7), 7, -2),
        RationalData(Fraction(5, 3), Fraction(-1, 3), 3, -1),
    ],
)
def test_the_budget_bounds_the_total(data, side):
    s, witness = tension_upper_bound(data, BUDGET, side)
    assert tension_upper_bound(data, s, side) == (s, witness)
    assert tension_upper_bound(data, s - 1, side) is None
