from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonloose.calculus import ClassicalPair, RationalData
from nonloose.errors import InvalidParams
from nonloose.surgery import dual_invariants

stab_counts = st.integers(0, 8)


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


class TestPipelineAnchor:
    # the rational stabilization rule is anchored by the surgery pipeline:
    # stabilizing the push-off before the computation commutes with
    # a positive and b negative stabilizations after it (tb_Q -= a + b,
    # rot_Q += a - b)
    @settings(max_examples=60, deadline=None)
    @given(st.integers(-12, -2), st.integers(-6, -1), stab_counts, stab_counts)
    def test_dual_commutes_with_stabilization(self, tb, rot, a, b):
        chi = -7
        base = dual_invariants(tb, rot, 0, 0, chi)
        moved = base.replace(tb_q=base.tb_q - a - b, rot_q=base.rot_q + a - b)
        assert dual_invariants(tb, rot, a, b, chi) == moved

    def test_closed_forms_once_positively_stabilized(self):
        tb, rot = -15, -2
        d = dual_invariants(tb, rot, 1, 0, -7)
        assert d.tb_q == Fraction(-1, tb + 1)
        assert d.rot_q == Fraction(rot + tb + 1, tb + 1)
