"""``solve_exact`` against Cramer's rule on small systems chosen to run each
branch of the integer back substitution, so no branch waits on a hypothesis
draw.

The back substitution keeps x_j = y_j / D with ints y_j and one common
denominator D.  Row i, with pivot p, computes t = D b_i - sum a_ij y_j and
g = gcd(p, t) with the sign of p; when the step p/g is not 1 it multiplies
the earlier y_j and D by it.  Each case names the branch it runs."""

from fractions import Fraction

import pytest

from linalg_oracles import mat_vec
from nonloose.linalg import _eliminate, solve_exact
from test_one_elimination import cramer

CASES = {
    # p = -2 on the last row: g = -1, so D = 2 > 0 and y = -1
    "negative last pivot": (((1, 0), (0, -2)), (1, 1), (1, Fraction(-1, 2))),
    # t = 0 on the last row with p = -3: g = -3, a step of 1, y = 0
    "zero entry under a negative pivot": (((1, 0), (0, -3)), (1, 0), (1, 0)),
    # t = 0 in the middle of an integer solve
    "zero entry above a pivot": (((1, 1), (0, 1)), (1, 0), (1, 0)),
    # every row's pivot divides its t: D stays 1
    "every step 1": (((2, 1), (1, 1)), (3, 2), (1, 1)),
    # the last row sets D = 3, the first multiplies it and y_1 by 2
    "step > 1 rescales the solved entries": (((2, 1), (0, 3)), (0, 1), (Fraction(-1, 6), Fraction(1, 3))),
    # a step > 1 and then a step of 1 on a row whose t the pivot divides
    "step > 1 then step 1": (((2, 1), (0, 3)), (1, 1), (Fraction(1, 3), Fraction(1, 3))),
    # rows of Fractions are scaled to ints before the elimination
    "Fraction entries": (
        ((Fraction(1, 2), Fraction(1, 3)), (1, -1)),
        (Fraction(1, 4), 2),
        (Fraction(11, 10), Fraction(-9, 10)),
    ),
    # int rows whose right-hand side alone holds a Fraction are scaled too
    "Fraction right-hand side": (((2, 1), (0, 3)), (Fraction(1, 2), 0), (Fraction(1, 4), 0)),
    # negative pivots, steps of 1 on the last two rows (one with t = 0), and a
    # step of 2 on the first that rescales both solved entries
    "3 x 3 with every branch": (
        ((-2, 1, 0), (0, 3, 1), (0, 0, -4)),
        (1, -1, 4),
        (Fraction(-1, 2), 0, -1),
    ),
}


@pytest.mark.parametrize("m, v, x", CASES.values(), ids=CASES)
def test_back_substitution_matches_cramer(m, v, x):
    solved = solve_exact(m, v)
    assert solved == x == cramer(m, v)
    assert mat_vec(m, solved) == v
    assert all(type(xi) is Fraction for xi in solved)


def test_negative_last_pivot_is_negative():
    """The case named for it reaches the back substitution with p < 0."""
    m, v, _ = CASES["negative last pivot"]
    assert _eliminate(m, v)[1][-1] < 0
