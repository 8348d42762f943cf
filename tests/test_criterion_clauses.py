"""The clause rule of the hypothesis-checked theorems.

``tension_one_dual``, ``depth2_check`` and ``possurg_depth_one`` each give
their verdict and bound window exactly when every clause holds, and
otherwise Inconclusive with ``failed_conditions`` naming the failing clauses
in the order the theorem states them.  The clauses are restated here from
the theorems, not read from the library.  ``depth2_check`` is run on all 128
combinations of its seven clauses.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from nonloose.certify import (
    Depth2Witness,
    Verdict,
    depth2_check,
    possurg_depth_one,
    tension_one_dual,
)


def check(cert, clauses, verdict, window):
    """``clauses``: (name, holds) in the theorem's order."""
    failed = tuple(name for name, holds in clauses if not holds)
    if failed:
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert cert.details["failed_conditions"] == failed
        assert not set(window) & set(cert.details)
    else:
        assert cert.verdict is verdict
        assert "failed_conditions" not in cert.details
        assert {k: cert.details[k] for k in window} == window
    assert len(cert.reasons) == 1


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-8, 4),
    st.integers(-8, 4),
    st.integers(-5, 0).map(lambda k: 2 * k + 1),
    st.booleans(),
)
def test_tension_one_dual(tb, rot, chi, surgery_overtwisted):
    cert = tension_one_dual(tb, rot, chi, surgery_overtwisted)
    clauses = [
        ("tb < -1", tb < -1),
        ("rot < 0", rot < 0),
        ("tb + rot + 2 < chi", tb + rot + 2 < chi),
        ("surgery_overtwisted", surgery_overtwisted),
    ]
    check(cert, clauses, Verdict.TENSION_EXACTLY_ONE, {"tension_min": 1, "tension_max": 1})
    assert cert.details["tb"] == tb and cert.details["rot"] == rot and cert.details["chi"] == chi
    assert dict(cert.assumptions) == {"surgery_overtwisted": surgery_overtwisted}


DEPTH2_CLAUSES = (
    "complement_tight",
    "not_a_stabilization",
    "tw_boundary == 0",
    "tw_curve == +1",
    "essential",
    "non_separating",
    "orientation_preserving",
)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(-4, 4).filter(lambda n: n != 0),
    st.integers(-4, 4).filter(lambda n: n != 1),
    st.sampled_from(["punctured-torus", "punctured-klein-bottle"]),
)
def test_depth2_check_on_every_clause_combination(tw_boundary_off, tw_curve_off, surface):
    seen = set()
    for holds in product((True, False), repeat=len(DEPTH2_CLAUSES)):
        tight, not_stab, tw_boundary_ok, tw_curve_ok, essential, non_separating, preserving = holds
        w = Depth2Witness(
            surface,
            0 if tw_boundary_ok else tw_boundary_off,
            1 if tw_curve_ok else tw_curve_off,
            essential,
            non_separating,
            preserving,
        )
        cert = depth2_check(w, not not_stab, tight)
        check(cert, zip(DEPTH2_CLAUSES, holds), Verdict.DEPTH_EXACTLY_TWO, {"depth_min": 2, "depth_max": 2})
        assert cert.details["surface_kind"] == surface
        assert dict(cert.assumptions) == {"is_stabilization": not not_stab, "complement_tight": tight}
        seen.add(cert.details.get("failed_conditions"))
    assert len(seen) == 128


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.one_of(st.integers(-3, 12), st.none()))
def test_possurg_depth_one(g_s, tb):
    tb = 2 * g_s - 1 if tb is None else tb  # draw the sharp case often
    cert = possurg_depth_one(tb, g_s)
    clauses = [("tb == 2*g_s - 1", tb == 2 * g_s - 1), ("tb > 1", tb > 1)]
    window = {"depth_min": 1, "depth_max": 1, "applies_to": "meridian-surgered image"}
    check(cert, clauses, Verdict.DEPTH_ONE, window)
    assert (cert.details["tb"], cert.details["g_s"]) == (tb, g_s)
    assert dict(cert.assumptions) == {}
