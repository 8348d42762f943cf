import pytest

from nonloose.calculus import ClassicalPair, RationalData
from nonloose.errors import InvalidParams


class TestClassicalPair:
    def test_chi_validation(self):
        ClassicalPair(0, 0, chi=-7)
        with pytest.raises(InvalidParams):
            ClassicalPair(0, 0, chi=2)
        with pytest.raises(InvalidParams):
            ClassicalPair(0, 0, chi=0)


class TestRational:
    def test_order_validation(self):
        with pytest.raises(InvalidParams):
            RationalData(0, 0, 0, 1)
