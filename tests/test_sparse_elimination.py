"""``solve_exact`` and ``det_exact`` on sparse systems, the shape of a large
surgery diagram's linking matrix.

``test_one_elimination`` draws dense matrices of size 5 or less.  Here n is
6 to 16 and about 30% of the off-diagonal entries are nonzero, with zero
diagonals, int and ``Fraction`` entries and right-hand sides that hold
zeros, so the elimination meets rows with no entry in the pivot column and
updates that cancel.  Each result is checked against an oracle of
``linalg_oracles`` that eliminates densely on its own: the product back to
v, the Gauss-Jordan inverse, the cofactor determinant for n <= 7 and, above
that, the Smith normal form, whose invariant factors multiply to |det|.
"""

from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linalg_oracles import det_cofactor, invert_exact, mat_vec, smith_normal_form
from nonloose.errors import SingularMatrix
from nonloose.linalg import det_exact, solve_exact

INTS = st.integers(-9, 9).filter(bool)
FRACTIONS = st.builds(Fraction, INTS, st.integers(1, 5))
NONZERO = st.one_of(INTS, FRACTIONS)


@st.composite
def sparse_entry(draw, percent, entries=NONZERO):
    """An entry of ``entries`` with probability ``percent``/100, else 0."""
    return draw(entries) if draw(st.integers(1, 100)) <= percent else 0


@st.composite
def sparse_squares(draw, n_min=6, n_max=16, entries=NONZERO):
    """An n x n matrix with about 30% of its off-diagonal entries nonzero and
    about 30% of its diagonal zero."""
    n = draw(st.integers(n_min, n_max))
    off, diagonal = sparse_entry(30, entries), sparse_entry(70, entries)
    return tuple(tuple(draw(diagonal if i == j else off) for j in range(n)) for i in range(n))


def squares(n_min=6, n_max=16):
    """Sparse matrices of ints, or of ints and ``Fraction``s."""
    return st.one_of(sparse_squares(n_min, n_max, INTS), sparse_squares(n_min, n_max))


@st.composite
def sparse_systems(draw):
    """A sparse matrix and a right-hand side with about half its entries 0."""
    m = draw(squares())
    return m, tuple(draw(st.lists(sparse_entry(50), min_size=len(m), max_size=len(m))))


@st.composite
def singular_sparse_squares(draw):
    """A sparse matrix whose row k is a x row i + b x row j, for i, j, k
    distinct: the elimination cancels row k to no entry partway through."""
    m = [list(row) for row in draw(sparse_squares())]
    i, j, k = draw(st.permutations(range(len(m))))[:3]
    a, b = draw(NONZERO), draw(NONZERO)
    m[k] = [a * x + b * y for x, y in zip(m[i], m[j])]
    return tuple(tuple(row) for row in m)


def smith_abs_det(m):
    """|det m| from the Smith form of L m, L the lcm of the denominators:
    det(L m) = L^n det m, and the invariant factors multiply to |det(L m)|."""
    scale = lcm(*(Fraction(x).denominator for row in m for x in row))
    scaled = tuple(tuple(int(x * scale) for x in row) for row in m)
    return Fraction(prod(smith_normal_form(scaled).diagonal()), scale ** len(m))


@settings(max_examples=100, deadline=None)
@given(sparse_systems())
def test_sparse_solve_matches_the_inverse(system):
    m, v = system
    try:
        inverse = invert_exact(m)
    except SingularMatrix:
        with pytest.raises(SingularMatrix, match="matrix has determinant 0"):
            solve_exact(m, v)
        return
    x = solve_exact(m, v)
    assert all(isinstance(xi, Fraction) for xi in x)
    assert mat_vec(m, x) == v
    assert x == mat_vec(inverse, v)


@settings(max_examples=100, deadline=None)
@given(squares(6, 7))
def test_sparse_det_matches_cofactor(m):
    d = det_exact(m)
    assert d == det_cofactor(m)
    if all(isinstance(x, int) for row in m for x in row):
        assert type(d) is int


@settings(max_examples=50, deadline=None)
@given(st.one_of(squares(8, 16), singular_sparse_squares()))
def test_sparse_det_matches_smith_form(m):
    assert abs(det_exact(m)) == smith_abs_det(m)


@settings(max_examples=60, deadline=None)
@given(singular_sparse_squares(), st.data())
def test_singular_sparse_matrix_raises(m, data):
    v = tuple(data.draw(st.lists(sparse_entry(50), min_size=len(m), max_size=len(m))))
    assert det_exact(m) == 0
    with pytest.raises(SingularMatrix, match="matrix has determinant 0"):
        solve_exact(m, v)
