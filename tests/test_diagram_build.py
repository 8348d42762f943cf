"""``SurgeryDiagram.build`` checks a diagram once: it derives the diagram it
assembled instead of handing it to the constructor, which would read every
component and entry again.  Only a diagram with an lk value that is not a
plain int goes to the constructor, to name the fault.
``value_oracles.CheckedSurgeryDiagram``, the class as it stood before, is
its oracle."""

from fractions import Fraction

from examples import README_DIAGRAM
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli_golden import sparse_forty_component_diagram
from value_oracles import CheckedSurgeryDiagram

from nonloose import surgery
from nonloose.surgery import SurgeryComponent, SurgeryDiagram, diagram_from_json, rational_invariants

IDS = ("a", "b", "c", "d", "e")
BAD_VALUES = (True, False, 1.5, 0.0, "1", None)
# each fault a drawn diagram may carry
FAULTS = (
    "duplicate id", "no passive", "two passive", "distinguished absent", "distinguished not a string",
    "component not a component", "unknown id", "repeated pair", "self pair", "entry of two", "entry of four",
    "entry a string", "lk not a list", "bad values",
)


def outcome(call, *args):
    """What ``call(*args)`` returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def diagrams(draw):
    """Components, lk pairs and a distinguished id: a valid diagram of 1 to 5
    components, its pairs in any order and orientation, with up to three faults."""
    n = draw(st.integers(1, 5))
    ids = list(draw(st.permutations(IDS))[:n])
    passive = draw(st.integers(0, n - 1))
    coeffs = [draw(st.sampled_from(["+1", "-1"])) for _ in range(n)]
    coeffs[passive] = "passive"
    tbs = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    rots = [draw(st.sampled_from([rot for rot in range(-3, 4) if (tb + rot) % 2])) for tb in tbs]
    pairs = [
        [ids[i], ids[j], draw(st.integers(-3, 3))]
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    pairs = [pair if draw(st.booleans()) else [pair[1], pair[0], pair[2]] for pair in draw(st.permutations(pairs))]
    distinguished = ids[passive]
    lk = pairs
    # bad values are named after every other fault, so they are drawn most often
    faults = draw(st.lists(st.one_of(st.sampled_from(FAULTS), st.just("bad values")), max_size=3))

    def place(entry):
        pairs.insert(draw(st.integers(0, len(pairs))), entry)

    for fault in faults:
        k = draw(st.integers(0, n - 1))
        triples = [pair for pair in pairs if isinstance(pair, list) and len(pair) == 3]
        if fault == "duplicate id" and n > 1:
            ids[k] = ids[(k + 1) % n]
        elif fault == "no passive":
            coeffs[passive] = "+1"
        elif fault == "two passive":
            coeffs[k] = "passive"
        elif fault == "distinguished absent":
            distinguished = "z"
        elif fault == "distinguished not a string":
            distinguished = draw(st.sampled_from([7, None, ["a"]]))
        elif fault == "unknown id":
            place([ids[k], draw(st.sampled_from(["z", 3, ("a",)])), 1])
        elif fault == "repeated pair" and triples:
            a, b, _ = draw(st.sampled_from(triples))
            place(draw(st.sampled_from([[a, b, 1], [b, a, 0]])))
        elif fault == "self pair":
            place([ids[k], ids[k], draw(st.integers(-1, 1))])
        elif fault == "entry of two":
            place([ids[k], ids[0]])
        elif fault == "entry of four":
            place([ids[k], ids[0], 1, 1])
        elif fault == "entry a string":
            place("ab1")
        elif fault == "lk not a list":
            lk = draw(st.sampled_from([None, "ab", 5, {"a": 1}]))
        elif fault == "bad values" and triples:
            for pair in draw(st.lists(st.sampled_from(triples), min_size=1, max_size=2)):
                pair[2] = draw(st.sampled_from(BAD_VALUES))
        elif fault == "bad values" and n > 1:
            place([ids[0], ids[1], draw(st.sampled_from(BAD_VALUES))])
    comps = [SurgeryComponent(*fields) for fields in zip(ids, tbs, rots, coeffs)]
    if "component not a component" in faults:
        comps[draw(st.integers(0, n - 1))] = draw(st.sampled_from(["a", None, 5]))
    if draw(st.booleans()) and isinstance(lk, list):
        lk = tuple(tuple(entry) if isinstance(entry, list) and draw(st.booleans()) else entry for entry in lk)
    return comps, lk, distinguished


def assert_same(new, old):
    """``new`` is a ``SurgeryDiagram`` with the fields of the oracle's ``old``,
    or both are the same error with the same message."""
    if isinstance(old, tuple):
        assert new == old
        return
    assert type(new) is SurgeryDiagram, new
    assert (new.components, new.lk, new.distinguished) == (old.components, old.lk, old.distinguished)
    assert type(new.lk) is tuple and all(type(row) is tuple for row in new.lk)
    assert SurgeryDiagram(new.components, new.lk, new.distinguished) == new


@settings(max_examples=600, deadline=None)
@given(diagrams())
def test_build_matches_the_constructor_it_replaced(drawn):
    """``build`` gives the value the old ``build`` and constructor gave, or
    the same error with the same message, whatever fault the input holds."""
    assert_same(outcome(SurgeryDiagram.build, *drawn), outcome(CheckedSurgeryDiagram.build, *drawn))


def test_build_reads_no_matrix_and_runs_no_constructor(monkeypatch):
    """The diagrams of the README and of the forty-component golden case
    build, and give their golden invariants, with the matrix rule and the
    constructor made to raise."""

    def forbidden(*args, **kwargs):
        raise AssertionError("build read the diagram it assembled again")

    monkeypatch.setattr(surgery, "_read_matrix", forbidden)
    monkeypatch.setattr(SurgeryDiagram, "__init__", forbidden)
    monkeypatch.setattr(SurgeryDiagram, "_set", forbidden)
    cases = [
        (README_DIAGRAM, -7, (Fraction(1, 14), Fraction(8, 7), 14)),
        (
            sparse_forty_component_diagram(),
            -5,
            (Fraction(32616100023, 16560175141), Fraction(-691902597201, 16560175141), 33120350282),
        ),
    ]
    for doc, chi, want in cases:
        data = rational_invariants(diagram_from_json(doc), chi)
        assert (data.tb_q, data.rot_q, data.order_r, data.chi) == (*want, chi)
