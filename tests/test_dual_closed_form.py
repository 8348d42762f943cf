"""``dual_invariants`` is closed form; the two-component surgery diagram it
stands for, run through the matrix pipeline, is its oracle."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonloose import linalg, surgery
from nonloose.certify import tension_less_than_depth_search
from nonloose.surgery import SurgeryComponent, SurgeryDiagram, dual_invariants, rational_invariants
from test_one_solve import assert_moved_to_oracles

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
    assert dual_invariants(tb, rot, a, b, chi) == diagram_dual(tb, rot, a, b, chi)


def test_every_tb_matches_diagram_pipeline():
    for tb in range(-40, 41):
        if tb == -1:
            continue
        rot = (tb + 1) % 2
        for a in range(4):
            for b in range(4):
                assert dual_invariants(tb, rot, a, b, -7) == diagram_dual(tb, rot, a, b, -7)


CERTIFY_DUAL = "certify-dual --tb -15 --rot -2 --chi -7 --surgery-overtwisted --complement-tight"


def test_certify_path_runs_no_linear_algebra(run_cli, monkeypatch):
    expected = (dual_invariants(-15, -2, 1, 0, -7), tension_less_than_depth_search(13), run_cli(CERTIFY_DUAL))

    def forbidden(*args, **kwargs):
        raise AssertionError("linear algebra on the certify path")

    assert_moved_to_oracles()
    monkeypatch.setattr(linalg, "det_exact", forbidden)
    for name in ("solve_exact", "rational_invariants"):
        monkeypatch.setattr(surgery, name, forbidden)

    assert dual_invariants(-15, -2, 1, 0, -7) == expected[0]
    assert tension_less_than_depth_search(13) == expected[1]
    assert run_cli(CERTIFY_DUAL) == expected[2]
    assert expected[2][0] == 0 and len(expected[1]) > 0
