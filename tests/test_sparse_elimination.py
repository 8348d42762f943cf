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

Two properties run at the surgery workload's sizes and past them.  Symmetric
int matrices of size 17 to 40, shaped like linking matrices, are checked by
the exact residual, an int determinant and Cramer's rule (det m times each
x_i is an integer).  And over int systems of size 1 to 30, dense and sparse,
every pivot ``_eliminate`` returns stays within Hadamard's bound on
[m | v]: the elimination divides each updated row by the gcd of its entries,
so its entries are minors of [m | v] over that gcd and cannot grow step by
step.
"""

from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linalg_oracles import det_cofactor, invert_exact, mat_vec, smith_normal_form
from nonloose.errors import SingularMatrix
from nonloose.linalg import _eliminate, det_exact, solve_exact

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


LINKING = st.integers(-3, 3).filter(bool)


@st.composite
def linking_systems(draw):
    """A symmetric int matrix of size 17 to 40 shaped like a linking matrix,
    with each diagonal entry in -9..2 and about 30% of the off-diagonal
    entries +-1 to +-3, and a right-hand side about 30% nonzero.  About one
    matrix in five is made singular: with S its leading block and u a sparse
    vector of +-1, the last column becomes S u and the last entry u^T S u,
    so (u, -1) is in its kernel."""
    n = draw(st.integers(17, 40))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = draw(st.integers(-9, 2))
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(sparse_entry(30, LINKING))
    if draw(st.integers(1, 5)) == 1:
        u = [draw(sparse_entry(30, st.sampled_from((-1, 1)))) for _ in range(n - 1)]
        column = [sum(x * y for x, y in zip(row, u)) for row in m[:-1]]
        for i, x in enumerate(column):
            m[i][-1] = m[-1][i] = x
        m[-1][-1] = sum(x * y for x, y in zip(column, u))
    return tuple(map(tuple, m)), tuple(draw(sparse_entry(30, LINKING)) for _ in range(n))


@settings(max_examples=25, deadline=None)
@given(linking_systems())
def test_linking_sized_solve_meets_cramers_rule(system):
    m, v = system
    d = det_exact(m)
    assert type(d) is int
    if d == 0:
        with pytest.raises(SingularMatrix, match="matrix has determinant 0"):
            solve_exact(m, v)
        return
    x = solve_exact(m, v)
    assert mat_vec(m, x) == v
    assert all((d * xi).denominator == 1 for xi in x)


@st.composite
def int_systems(draw):
    """An int matrix of size 1 to 30, dense or about 30% nonzero, and a
    right-hand side of the same density."""
    n = draw(st.integers(1, 30))
    entry = sparse_entry(draw(st.sampled_from((100, 30))), INTS)
    return tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n)), tuple(draw(entry) for _ in range(n))


@settings(max_examples=40, deadline=None)
@given(int_systems())
def test_pivots_stay_within_hadamards_bound(system):
    m, v = system
    try:
        _, pivots, _ = _eliminate(m, (v,))
    except SingularMatrix:
        return
    bound = prod(max(1, sum(x * x for x in row) + y * y) for row, y in zip(m, v))
    assert all(p * p <= bound for p in pivots)
