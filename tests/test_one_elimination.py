"""``det_exact`` and ``solve_exact`` share one elimination; the oracle
``invert_exact`` runs its own.

Each is checked against an oracle that does not eliminate: the product back
to v or to the identity, Cramer's rule and the cofactor expansion.  The
surgery path solves M x = lk and builds no inverse."""

from fractions import Fraction

import pytest
from examples import README_DIAGRAM, README_DOC
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linalg_oracles import det_cofactor, identity, invert_exact, mat_mul, mat_vec
from nonloose import linalg, surgery
from nonloose.errors import InvalidParams, SingularMatrix
from nonloose.linalg import det_exact, solve_exact
from nonloose.surgery import diagram_from_json, rational_invariants
from test_one_solve import assert_moved_to_oracles

INTS = st.integers(-9, 9)
FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
ENTRIES = st.one_of(INTS, FRACTIONS)


def squares(entries, n_max=5):
    return st.integers(0, n_max).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(entries, min_size=n, max_size=n).map(tuple), min_size=n, max_size=n).map(tuple),
            st.lists(entries, min_size=n, max_size=n).map(tuple),
        )
    )


SYSTEMS = st.one_of(squares(INTS), squares(ENTRIES))


def cramer(m, v):
    """x_i = det(m with column i replaced by v) / det m, by cofactor expansion."""
    d = det_cofactor(m)
    return tuple(
        Fraction(det_cofactor(tuple(row[:i] + (v[r],) + row[i + 1 :] for r, row in enumerate(m)))) / d
        for i in range(len(m))
    )


@st.composite
def singular_squares(draw):
    """A square matrix with one row a multiple of another, so det = 0."""
    n = draw(st.integers(1, 5))
    rows = [tuple(draw(st.lists(ENTRIES, min_size=n, max_size=n))) for _ in range(n)]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    k = draw(ENTRIES)
    rows[i] = tuple(k * x for x in rows[j]) if i != j else tuple(0 for _ in range(n))
    return tuple(rows)


@settings(max_examples=200, deadline=None)
@given(SYSTEMS)
def test_solve_exact_matches_cramer(system):
    m, v = system
    assume(det_cofactor(m) != 0)
    x = solve_exact(m, v)
    assert all(isinstance(xi, Fraction) for xi in x)
    assert mat_vec(m, x) == v
    assert x == cramer(m, v)


@settings(max_examples=200, deadline=None)
@given(SYSTEMS)
def test_invert_exact_is_an_inverse(system):
    m, _ = system
    assume(det_cofactor(m) != 0)
    inv = invert_exact(m)
    assert isinstance(inv, tuple) and all(isinstance(row, tuple) for row in inv)
    assert all(isinstance(x, Fraction) for row in inv for x in row)
    assert mat_mul(m, inv) == identity(len(m))


@settings(max_examples=200, deadline=None)
@given(st.one_of(SYSTEMS.map(lambda s: s[0]), singular_squares()))
def test_det_exact_matches_cofactor(m):
    d = det_exact(m)
    assert d == det_cofactor(m)
    if all(isinstance(x, int) for row in m for x in row):
        assert type(d) is int


@settings(max_examples=200, deadline=None)
@given(singular_squares(), st.data())
def test_singular_matrix_raises(m, data):
    v = tuple(data.draw(st.lists(ENTRIES, min_size=len(m), max_size=len(m))))
    assert det_cofactor(m) == 0
    assert det_exact(m) == 0
    with pytest.raises(SingularMatrix, match="matrix has determinant 0"):
        invert_exact(m)
    with pytest.raises(SingularMatrix, match="matrix has determinant 0"):
        solve_exact(m, v)


def test_singular_integer_matrix_gives_int_zero():
    assert type(det_exact(((1, 2), (2, 4)))) is int
    assert det_exact(((1, 2), (2, 4))) == 0


def test_empty_matrix():
    assert det_exact(()) == 1 and type(det_exact(())) is int
    assert invert_exact(()) == ()
    assert solve_exact((), ()) == ()


@pytest.mark.parametrize(
    "m, v",
    [
        ((), (1,)),
        (((1, 0), (0, 1)), (1,)),
        (((1, 0), (0, 1)), (1, 2, 3)),
        (((1, 2),), (1,)),
        (((1, 2), (3,)), (1, 2)),
    ],
)
def test_shape_errors(m, v):
    with pytest.raises(InvalidParams):
        solve_exact(m, v)


@pytest.mark.parametrize("m", [((1, 2),), ((1, 2), (3,)), ((1,), (2,))])
def test_non_square_det_and_inverse(m):
    with pytest.raises(InvalidParams):
        det_exact(m)
    with pytest.raises(InvalidParams):
        invert_exact(m)


def test_surgery_path_builds_no_inverse(run_cli, monkeypatch):
    solved = []

    def one_vector(m, v):
        solved.append(v)
        return linalg.solve_exact(m, v)

    assert_moved_to_oracles()
    monkeypatch.setattr(surgery, "solve_exact", one_vector)

    data = rational_invariants(diagram_from_json(README_DIAGRAM), -7)
    assert (data.tb_q, data.rot_q, data.order_r, data.chi) == (Fraction(1, 14), Fraction(8, 7), 14, -7)
    assert run_cli.json("surgery-invariants diagram.json --chi -7") == (0, README_DOC)
    reversed_doc = dict(README_DOC, rot_q="-8/7")
    assert run_cli.json("surgery-invariants diagram.json --chi -7 --reverse-distinguished") == (0, reversed_doc)
    # one right-hand side per diagram, never the identity's columns
    assert solved == [(-15,)] * 3
