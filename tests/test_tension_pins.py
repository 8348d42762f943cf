"""Exact answers of the stabilization search at the edges of its loop: the
signs of a rational move, the side filter, the budget and its default.
Each case pins one place where a changed search would still pass the
property tests in ``test_certify.py``.  The search also agrees with its
reference loop, which tries every candidate split, filters the splits by
side and states the Bennequin inequality itself, so it shares no code with
``nonloose.certify``."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonloose.calculus import ClassicalPair, RationalData
from nonloose.certify import Verdict, tension_certificate, tension_upper_bound

SIDES = ("both", "positive_only", "negative_only")


def _violates(data: ClassicalPair | RationalData, a: int, b: int) -> bool:
    """Bennequin fails after a positive and b negative stabilizations:
    -|tb - a - b| + |rot + a - b| > -chi, or > -chi/r for rational data."""
    if isinstance(data, RationalData):
        tb, rot, rhs = data.tb_q, data.rot_q, Fraction(-data.chi, data.order_r)
    else:
        tb, rot, rhs = data.tb, data.rot, -data.chi
    return -abs(tb - a - b) + abs(rot + a - b) > rhs


def reference_search(data, max_n, side):
    """The search as a loop over every split of every total, skipping the
    splits ``side`` forbids."""
    for total in range(max_n + 1):
        for a in range(total + 1):
            b = total - a
            if side == "positive_only" and b != 0:
                continue
            if side == "negative_only" and a != 0:
                continue
            if _violates(data, a, b):
                return total, (a, b)
    return None


classical = st.builds(
    ClassicalPair,
    st.integers(-40, 40),
    st.integers(-40, 40),
    st.integers(-11, 0).map(lambda k: 2 * k + 1),  # odd chi in [-21, 1]
)
# tb_Q and rot_Q lie in (1/r) Z: integers over the drawn r
rational = st.integers(1, 6).flatmap(
    lambda r: st.builds(
        RationalData,
        st.integers(-120, 120).map(lambda k: Fraction(k, r)),
        st.integers(-120, 120).map(lambda k: Fraction(k, r)),
        st.just(r),
        st.integers(-12, 1),
    )
)


@pytest.mark.parametrize("side", SIDES)
@settings(max_examples=100, deadline=None)
@given(data=classical | rational)
def test_search_agrees_with_the_reference_loop(side, data):
    for max_n in range(25):
        assert tension_upper_bound(data, max_n, side) == reference_search(data, max_n, side), max_n


# -|tb_Q| + |rot_Q| > -chi/r = 1/3 first after one negative stabilization, or
# after two positive ones.
RATIONAL = RationalData(Fraction(5, 3), Fraction(-1, 3), 3, -1)


@pytest.mark.parametrize(
    "side, expected",
    [("both", (1, (0, 1))), ("negative_only", (1, (0, 1))), ("positive_only", (2, (2, 0)))],
)
def test_rational_search_moves_tb_and_rot_by_each_sign(side, expected):
    assert tension_upper_bound(RATIONAL, 8, side) == expected


@pytest.mark.parametrize(
    "data, both, negative",
    [
        # three positive stabilizations violate before four negative ones
        (ClassicalPair(4, 1, -1), (3, (3, 0)), (4, (0, 4))),
        # positive ones violate after two; negative ones never do
        (ClassicalPair(2, 1, -1), (2, (2, 0)), None),
    ],
)
def test_negative_only_skips_every_positive_stabilization(data, both, negative):
    assert tension_upper_bound(data, 16, "both") == both
    assert tension_upper_bound(data, 16, "negative_only") == negative


@pytest.mark.parametrize("side", ["both", "negative_only"])
def test_a_witness_at_the_budget_is_found(side):
    data = ClassicalPair(3, 0, -1)  # first violated at (0, 3)
    assert tension_upper_bound(data, 3, side) == (3, (0, 3))
    assert tension_upper_bound(data, 2, side) is None


@pytest.mark.parametrize("side", ["both", "positive_only", "negative_only"])
def test_a_budget_of_zero_checks_the_knot_itself(side):
    assert tension_upper_bound(ClassicalPair(0, 3, -1), 0, side) == (0, (0, 0))
    assert tension_upper_bound(ClassicalPair(3, 0, -1), 0, side) is None


def test_the_default_budget_is_64():
    # with rot 0 and chi -1 the least violating total is the least s with
    # 2s - tb > 1: 64 for tb 125, 65 for tb 127
    at_64, at_65 = ClassicalPair(125, 0, -1), ClassicalPair(127, 0, -1)
    assert tension_upper_bound(at_64) == (64, (0, 64))
    assert tension_upper_bound(at_65) is None
    assert tension_upper_bound(at_65, 65) == (65, (0, 65))
    found = tension_certificate(at_64)
    assert found.verdict is Verdict.TENSION_UPPER_BOUND
    assert found.details["tension_max"] == 64
    absent = tension_certificate(at_65)
    assert absent.verdict is Verdict.NO_OBSTRUCTION
    assert absent.details["max_n"] == 64
