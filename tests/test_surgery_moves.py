"""Moves that change a contact surgery diagram but not the surgered contact
manifold or the passive knot leave its (tb_Q, rot_Q, r) unchanged.

The other checks of ``rational_invariants`` (``test_one_solve``'s cofactor
and Smith form route, ``linalg_oracles``) recompute its formula from the
same linking matrix, so a fault in turning a diagram into that matrix (a
sign, the passive row, a framing tb +- 1) passes them.  These laws need no
formula:

- cancellation: contact (+1)-surgery on a Legendrian C and (-1)-surgery on
  its Legendrian push-off C' cancel (Ding and Geiges, "Handle moves in
  contact surgery diagrams", 2009).  C and C' have the same tb and rot,
  lk(C, C') = tb, and every other component links them equally.  Their block
  [[tb + 1, tb], [tb, tb - 1]] of M is unimodular and the entries of its
  inverse sum to 0, so the rest of the system is unchanged;
- reversing a surgered component negates its rot and its linking numbers,
  a change of basis of M;
- the order of the components and of the pairs, and of the two ids in a
  pair, is no part of the diagram.

A singular M stays singular under each move, so the law covers that
outcome too.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli_golden import sparse_forty_component_diagram

from nonloose.errors import SingularMatrix
from nonloose.surgery import diagram_from_json, rational_invariants

IDS = ("a", "b", "c", "d", "e")
CHI = -1


def invariants(doc):
    """(tb_Q, rot_Q, r) of the document's distinguished component, or
    ``"singular"`` when its linking matrix is."""
    try:
        data = rational_invariants(diagram_from_json(doc), CHI)
    except SingularMatrix:
        return "singular"
    return data.tb_q, data.rot_q, data.order_r


@st.composite
def legendrian(draw):
    """tb and rot with tb + rot odd."""
    tb = draw(st.integers(-4, 4))
    return tb, draw(st.sampled_from([rot for rot in range(-3, 4) if (tb + rot) % 2]))


@st.composite
def diagrams(draw):
    """A valid diagram document of 1 to 5 components, each pair linked or
    not, its pairs in any order and orientation."""
    n = draw(st.integers(1, 5))
    ids = draw(st.permutations(IDS))[:n]
    passive = draw(st.integers(0, n - 1))
    components = []
    for k, cid in enumerate(ids):
        tb, rot = draw(legendrian())
        coeff = "passive" if k == passive else draw(st.sampled_from(["+1", "-1"]))
        components.append({"id": cid, "tb": tb, "rot": rot, "coeff": coeff})
    pairs = [
        [ids[i], ids[j], draw(st.integers(-3, 3))]
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    pairs = [pair if draw(st.booleans()) else [pair[1], pair[0], pair[2]] for pair in draw(st.permutations(pairs))]
    return {"components": components, "lk": pairs, "distinguished": ids[passive]}


def add_cancelling_pair(draw, doc):
    """``doc`` with C (+1) and its push-off C' (-1) inserted anywhere: the same
    tb and rot, lk(C, C') = tb, and the same drawn link to every other component."""
    tb, rot = draw(legendrian())
    components, lk = list(doc["components"]), list(doc["lk"])
    for cid, coeff in (("C", "+1"), ("C'", "-1")):
        components.insert(draw(st.integers(0, len(components))), {"id": cid, "tb": tb, "rot": rot, "coeff": coeff})
    for other in doc["components"]:
        value = draw(st.integers(-3, 3))
        lk += [["C", other["id"], value], ["C'", other["id"], value]]
    lk.append(["C", "C'", tb])
    return {"components": components, "lk": draw(st.permutations(lk)), "distinguished": doc["distinguished"]}


@settings(max_examples=300, deadline=None)
@given(diagrams(), st.data())
def test_a_cancelling_pair_changes_nothing(doc, data):
    assert invariants(add_cancelling_pair(data.draw, doc)) == invariants(doc)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_a_cancelling_pair_in_the_forty_component_diagram(data):
    """The pair also cancels in a 39 x 39 M, whose invariants are golden."""
    doc = add_cancelling_pair(data.draw, sparse_forty_component_diagram())
    assert invariants(doc) == (
        Fraction(32616100023, 16560175141), Fraction(-691902597201, 16560175141), 33120350282
    )


@settings(max_examples=200, deadline=None)
@given(diagrams(), st.data())
def test_reversing_a_surgered_component_changes_nothing(doc, data):
    surgered = [c["id"] for c in doc["components"] if c["coeff"] != "passive"]
    if not surgered:
        return
    k = data.draw(st.sampled_from(surgered))
    components = [dict(c, rot=-c["rot"]) if c["id"] == k else c for c in doc["components"]]
    lk = [[a, b, -value if k in (a, b) else value] for a, b, value in doc["lk"]]
    assert invariants(dict(doc, components=components, lk=lk)) == invariants(doc)


@settings(max_examples=200, deadline=None)
@given(diagrams(), st.data())
def test_shuffling_components_and_pairs_changes_nothing(doc, data):
    components = data.draw(st.permutations(doc["components"]))
    lk = [pair if data.draw(st.booleans()) else [pair[1], pair[0], pair[2]] for pair in doc["lk"]]
    lk = data.draw(st.permutations(lk))
    assert invariants(dict(doc, components=components, lk=lk)) == invariants(doc)
