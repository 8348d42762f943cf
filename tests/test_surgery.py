from fractions import Fraction

import pytest
from examples import README_DIAGRAM
from hypothesis import given, settings
from hypothesis import strategies as st

from linalg_oracles import det_cofactor, extended_matrix
from nonloose.calculus import dual_invariants
from nonloose.errors import DiagramError, MeridionalSlope, SingularMatrix
from nonloose.linalg import det_exact
from nonloose.surgery import (
    SurgeryComponent,
    SurgeryDiagram,
    diagram_from_json,
    linking_matrix,
    rational_invariants,
)


def single(tb, coeff, lk, dist_tb=-1, dist_rot=0):
    """The passive K linking L lk times; L's rot is 0 or 1, whichever makes tb + rot odd."""
    comps = (
        SurgeryComponent("K", dist_tb, dist_rot, "passive"),
        SurgeryComponent("L", tb, (tb + 1) % 2, coeff),
    )
    return SurgeryDiagram.build(comps, [("K", "L", lk)], "K")


MERIDIAN_PAIR = SurgeryDiagram.build(
    (
        SurgeryComponent("K", -3, 0, "passive"),
        SurgeryComponent("L1", -1, 0, "+1"),
        SurgeryComponent("L2", -1, 0, "+1"),
    ),
    [("K", "L1", 1), ("K", "L2", 1), ("L1", "L2", -1)],
    "K",
)


class TestLinkingMatrix:
    def test_plus_one(self):
        assert linking_matrix(single(-15, "+1", -15)) == ((-14,),)

    def test_minus_one(self):
        assert linking_matrix(single(-2, "-1", 0)) == ((-3,),)

    def test_two_unknots(self):
        comps = (
            SurgeryComponent("K", 0, 1, "passive"),
            SurgeryComponent("A", -1, 0, "+1"),
            SurgeryComponent("B", -1, 0, "+1"),
        )
        diag = SurgeryDiagram.build(comps, [], "K")
        assert linking_matrix(diag) == ((0, 0), (0, 0))
        with pytest.raises(SingularMatrix):
            rational_invariants(diag, 1)


class TestExtendedMatrix:
    def test_pushoff_border(self):
        diag = single(-15, "+1", -15, dist_tb=-15)
        assert extended_matrix(diag) == ((0, -15), (-15, -14))
        assert det_exact(extended_matrix(diag)) == -225

    def test_empty_surgered_set(self):
        diag = SurgeryDiagram.build(
            (SurgeryComponent("K", -5, 2, "passive"),), [], "K"
        )
        assert extended_matrix(diag) == ((0,),)

    def test_meridian_pair_configuration(self):
        m0 = extended_matrix(MERIDIAN_PAIR)
        assert m0 == ((0, 1, 1), (1, 0, -1), (1, -1, 0))
        assert det_exact(m0) == -2

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_border_determinant_two_ways(self, rng):
        def legendrian(name, coeff):
            """tb in [-9, 9] and rot in [-5, 5] with tb + rot odd, as for any Legendrian knot."""
            tb = rng.randint(-9, 9)
            return SurgeryComponent(name, tb, rng.choice([r for r in range(-5, 6) if (tb + r) % 2]), coeff)

        k = rng.randint(0, 3)
        comps = [legendrian("K", "passive")]
        pairs = []
        names = []
        for i in range(k):
            name = f"L{i}"
            names.append(name)
            comps.append(legendrian(name, rng.choice(["+1", "-1"])))
        for i, a in enumerate(["K"] + names):
            for b in names[max(i, 0):]:
                if a != b and rng.random() < 0.7:
                    pairs.append((a, b, rng.randint(-4, 4)))
        diag = SurgeryDiagram.build(tuple(comps), pairs, "K")
        m0 = extended_matrix(diag)
        assert det_exact(m0) == det_cofactor(m0)


class TestRationalInvariants:
    def test_stabilized_pushoff_distinguished(self):
        d = rational_invariants(diagram_from_json(README_DIAGRAM), -7)
        assert (d.tb_q, d.rot_q, d.order_r, d.chi) == (
            Fraction(1, 14),
            Fraction(8, 7),
            14,
            -7,
        )

    def test_unstabilized_pushoff(self):
        comps = (
            SurgeryComponent("Lstar", -15, -2, "passive"),
            SurgeryComponent("L", -15, -2, "+1"),
        )
        diag = SurgeryDiagram.build(comps, [("Lstar", "L", -15)], "Lstar")
        d = rational_invariants(diag, -7)
        assert (d.tb_q, d.rot_q) == (Fraction(15, 14), Fraction(1, 7))
        # closed forms tb/(tb+1) and rot/(tb+1)
        assert d.tb_q == Fraction(-15, -14)
        assert d.rot_q == Fraction(-2, -14)

    def test_no_surgered_components(self):
        diag = SurgeryDiagram.build(
            (SurgeryComponent("K", -5, 2, "passive"),), [], "K"
        )
        d = rational_invariants(diag, 1)
        assert (d.tb_q, d.rot_q, d.order_r) == (-5, 2, 1)

    def test_reverse_distinguished(self):
        diag = diagram_from_json(README_DIAGRAM)
        fwd = rational_invariants(diag, -7)
        rev = rational_invariants(diag, -7, reverse_distinguished=True)
        assert rev.tb_q == fwd.tb_q
        assert rev.rot_q == -fwd.rot_q
        assert rev.order_r == fwd.order_r

    def test_meridian_pair_order_one(self):
        d = rational_invariants(MERIDIAN_PAIR, 1)
        assert d.order_r == 1
        assert d.tb_q == -1


class TestDualInvariants:
    def test_examples(self):
        d = dual_invariants(-15, -2, 1, 0, -7)
        assert (d.tb_q, d.rot_q, d.order_r, d.chi) == (
            Fraction(1, 14),
            Fraction(8, 7),
            14,
            -7,
        )
        d0 = dual_invariants(-15, -2, 0, 0, -7)
        assert (d0.tb_q, d0.rot_q, d0.order_r, d0.chi) == (
            Fraction(15, 14),
            Fraction(1, 7),
            14,
            -7,
        )
        d2 = dual_invariants(-2, -1, 0, 0, -1)
        assert (d2.tb_q, d2.rot_q, d2.order_r, d2.chi) == (2, 1, 1, -1)

    def test_meridional_slope(self):
        with pytest.raises(MeridionalSlope):
            dual_invariants(-1, 0, 0, 0, 1)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(-20, -2),
        st.integers(-10, 10),
        st.integers(0, 8),
        st.integers(0, 8),
    )
    def test_commutes_with_rational_stabilization(self, tb, rot, a, b):
        base = dual_invariants(tb, rot, 0, 0, -7)
        moved = base.replace(tb_q=base.tb_q - a - b, rot_q=base.rot_q + a - b)
        assert dual_invariants(tb, rot, a, b, -7) == moved

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-20, -2), st.integers(-10, -1))
    def test_order_is_abs_tb_plus_one(self, tb, rot):
        assert dual_invariants(tb, rot, 0, 0, -7).order_r == abs(tb + 1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(-20, -2),
        st.integers(-10, 10),
        st.integers(0, 4),
        st.integers(0, 4),
    )
    def test_denominators_divide_order(self, tb, rot, a, b):
        d = dual_invariants(tb, rot, a, b, -7)
        assert d.order_r % d.tb_q.denominator == 0
        assert d.order_r % d.rot_q.denominator == 0


class TestDiagramStructure:
    def test_json_round_trip(self):
        doc = {
            "components": [
                {"id": "K", "tb": -3, "rot": 0, "coeff": "passive"},
                {"id": "L1", "tb": -1, "rot": 0, "coeff": "+1"},
                {"id": "L2", "tb": -1, "rot": 0, "coeff": "+1"},
            ],
            "lk": [["K", "L1", 1], ["K", "L2", 1], ["L1", "L2", -1]],
            "distinguished": "K",
        }
        assert diagram_from_json(doc) == MERIDIAN_PAIR

    def test_missing_lk_defaults_to_zero(self):
        doc = {
            "components": [
                {"id": "K", "tb": 0, "rot": 1, "coeff": "passive"},
                {"id": "L", "tb": -1, "rot": 0, "coeff": "+1"},
            ],
            "distinguished": "K",
        }
        diag = diagram_from_json(doc)
        assert diag.lk == ((0, 0), (0, 0))

    def test_validation_errors(self):
        comps = (
            SurgeryComponent("K", 0, 1, "passive"),
            SurgeryComponent("L", -1, 0, "+1"),
        )
        with pytest.raises(DiagramError):
            SurgeryDiagram.build(comps, [("K", "K", 1)], "K")
        with pytest.raises(DiagramError):
            SurgeryDiagram.build(comps, [("K", "L", 1), ("L", "K", 2)], "K")
        with pytest.raises(DiagramError):
            SurgeryDiagram.build(comps, [("K", "M", 1)], "K")
        with pytest.raises(DiagramError):
            SurgeryDiagram.build(comps, [], "L")
        with pytest.raises(DiagramError):
            SurgeryDiagram.build(
                (comps[0], SurgeryComponent("L", -1, 0, "passive")), [], "K"
            )
        with pytest.raises(DiagramError):
            SurgeryComponent("K", 0, 1, "+2")
        with pytest.raises(DiagramError):
            diagram_from_json({"components": []})
