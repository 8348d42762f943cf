"""``dual_invariants`` is closed form; the two-component surgery diagram it
stands for, run through the matrix pipeline, is its oracle."""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nonloose.calculus import dual_invariants
from nonloose.surgery import SurgeryComponent, SurgeryDiagram, rational_invariants

TBS = st.integers(-40, 40).filter(lambda tb: tb != -1)
CHIS = st.integers(-21, 0).map(lambda k: 2 * k + 1)


def diagram_dual(tb, rot, a, b, chi):
    """The surgered knot with coefficient +1 and its (a, b)-stabilized push-off."""
    comps = (
        SurgeryComponent("L", tb, rot, "+1"),
        SurgeryComponent("L*", tb - a - b, rot + a - b, "passive"),
    )
    diag = SurgeryDiagram.build(comps, [("L", "L*", tb)], "L*")
    return rational_invariants(diag, chi)


@settings(max_examples=400, deadline=None)
@given(TBS, st.integers(-9, 9), st.integers(0, 6), st.integers(0, 6), CHIS)
@example(0, 1, 0, 0, -1)
@example(1, 0, 6, 6, 1)
@example(40, -9, 0, 6, -41)
@example(-2, -1, 0, 0, -1)
@example(-40, 9, 6, 0, -7)
def test_closed_form_matches_diagram_pipeline(tb, rot, a, b, chi):
    assume((tb + rot) % 2)  # as for any Legendrian knot
    assert dual_invariants(tb, rot, a, b, chi) == diagram_dual(tb, rot, a, b, chi)


def test_every_tb_matches_diagram_pipeline():
    for tb in range(-40, 41):
        if tb == -1:
            continue
        rot = (tb + 1) % 2
        for a in range(4):
            for b in range(4):
                assert dual_invariants(tb, rot, a, b, -7) == diagram_dual(tb, rot, a, b, -7)

