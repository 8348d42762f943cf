"""Library calls given values outside their domain raise InvalidParams."""

from fractions import Fraction
from math import inf, nan

import pytest

from nonloose.calculus import ClassicalPair, pushoff_sl
from nonloose.certify import (
    Certificate,
    Reason,
    Verdict,
    bundle_is_consistent,
    certificate_bounds,
    check_consistency,
)
from nonloose.errors import InvalidParams


@pytest.mark.parametrize("sign", ["x", "", "+-", "plus", None, 1])
def test_pushoff_sl_bad_sign(sign):
    with pytest.raises(InvalidParams, match="sign must be"):
        pushoff_sl(ClassicalPair(-2, 1), sign)


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
