"""``rational_invariants`` reads tb_Q, rot_Q and r off one solution vector
x = M^{-1} lk.  The four-elimination formulas it replaced (det M, det M0 of
the bordered matrix, the inverse and the Smith normal form) are its oracle."""

import json
from fractions import Fraction

from examples import README_DIAGRAM, README_DOC
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linalg_oracles import det_cofactor, homological_order
from nonloose import linalg, surgery
from nonloose.surgery import SurgeryComponent, SurgeryDiagram, diagram_from_json, rational_invariants

# the matrix routines that left the library for the test oracles
MOVED_TO_ORACLES = (
    "INFINITE", "Infinite", "freeze", "identity", "mat_mul", "mat_vec", "det_cofactor", "invert_exact",
    "SmithDecomposition", "smith_normal_form", "homological_order", "extended_matrix",
)


def assert_moved_to_oracles():
    """No moved routine is left in ``linalg`` or ``surgery``, nor ``det_exact`` in ``surgery``."""
    for module in (linalg, surgery):
        assert not [name for name in MOVED_TO_ORACLES if hasattr(module, name)], module.__name__
    assert not hasattr(surgery, "det_exact")


def four_eliminations(diag, chi, reverse):
    """tb_0 + det M0 / det M, rot through Cramer's rule, r through the SNF.

    M and the border are built here from the components, not by the library,
    and every determinant is a cofactor expansion, so no elimination runs.
    Reversing the passive component negates its rot and its linking numbers.
    """
    sign = -1 if reverse else 1
    d = next(i for i, c in enumerate(diag.components) if c.coeff == "passive")
    idx = [i for i, c in enumerate(diag.components) if c.coeff != "passive"]
    comps = [diag.components[i] for i in idx]
    m = tuple(
        tuple(
            comps[a].tb + (1 if comps[a].coeff == "+1" else -1) if a == b else diag.lk[i][j]
            for b, j in enumerate(idx)
        )
        for a, i in enumerate(idx)
    )
    border = tuple(diag.lk[d][i] for i in idx)
    m0 = ((0,) + border,) + tuple((border[a],) + row for a, row in enumerate(m))
    lkvec = tuple(sign * v for v in border)
    dist = diag.components[d]
    det_m = det_cofactor(m)
    tb_q = dist.tb + Fraction(det_cofactor(m0), det_m)
    # x_k = det(M with column k replaced by lkvec) / det M
    solved = [
        Fraction(det_cofactor(tuple(row[:k] + (v,) + row[k + 1 :] for row, v in zip(m, lkvec))), det_m)
        for k in range(len(m))
    ]
    rot_q = sign * dist.rot - sum(c.rot * s for c, s in zip(comps, solved))
    return (tb_q, rot_q, homological_order(m, lkvec), chi)


def legendrian(draw, cid, coeff):
    """A component with tb in [-9, 9] and rot in [-5, 5], tb + rot odd as for any Legendrian knot."""
    tb = draw(st.integers(-9, 9))
    return SurgeryComponent(cid, tb, draw(st.integers(-5, 5).filter(lambda rot: (tb + rot) % 2)), coeff)


@st.composite
def diagrams(draw):
    n = draw(st.integers(0, 5))
    comps = [legendrian(draw, f"L{i}", draw(st.sampled_from(["+1", "-1"]))) for i in range(n)]
    passive = legendrian(draw, "K", "passive")
    comps.insert(draw(st.integers(0, n)), passive)
    ids = [c.id for c in comps]
    pairs = [(a, b, draw(st.integers(-4, 4))) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    return SurgeryDiagram.build(tuple(comps), pairs, "K")


@settings(max_examples=300, deadline=None)
@given(diagrams(), st.integers(-21, 1), st.booleans())
def test_one_solve_matches_four_eliminations(diag, chi, reverse):
    m = surgery.linking_matrix(diag)
    assume(det_cofactor(m) != 0)
    got = rational_invariants(diag, chi, reverse_distinguished=reverse)
    assert (got.tb_q, got.rot_q, got.order_r, got.chi) == four_eliminations(diag, chi, reverse)


SINGULAR_MESSAGE = "surgery linking matrix is singular"
SINGULAR_DIAGRAMS = {
    # M = [0]: (+1)-surgery on a tb = -1 knot
    "one component": {
        "components": [
            {"id": "K", "tb": 0, "rot": 1, "coeff": "passive"},
            {"id": "L", "tb": -1, "rot": 0, "coeff": "+1"},
        ],
        "lk": [["K", "L", 1]],
        "distinguished": "K",
    },
    # M = [[1, 1], [1, 1]]: singular only after the first pivot
    "rank one": {
        "components": [
            {"id": "K", "tb": 0, "rot": 1, "coeff": "passive"},
            {"id": "A", "tb": 0, "rot": 1, "coeff": "+1"},
            {"id": "B", "tb": 2, "rot": 1, "coeff": "-1"},
        ],
        "lk": [["A", "B", 1], ["K", "A", 2]],
        "distinguished": "K",
    },
}


def test_singular_diagram_keeps_its_error(run_cli):
    for name, doc in SINGULAR_DIAGRAMS.items():
        for extra in ([], ["--reverse-distinguished"]):
            argv = ["surgery-invariants", "-", "--chi", "1", *extra]
            code, out = run_cli.json(argv, json.dumps(doc))
            assert code == 1, name
            assert out == {"error": {"type": "SingularMatrix", "message": SINGULAR_MESSAGE}}, name


def test_no_determinant_or_smith_form_on_the_surgery_path(run_cli, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a second elimination on the surgery path")

    assert_moved_to_oracles()
    monkeypatch.setattr(linalg, "det_exact", forbidden)

    data = rational_invariants(diagram_from_json(README_DIAGRAM), -7)
    assert (data.tb_q, data.rot_q, data.order_r, data.chi) == (Fraction(1, 14), Fraction(8, 7), 14, -7)
    assert run_cli.json("surgery-invariants diagram.json --chi -7") == (0, README_DOC)
    reversed_doc = dict(README_DOC, rot_q="-8/7")
    assert run_cli.json("surgery-invariants diagram.json --chi -7 --reverse-distinguished") == (0, reversed_doc)
