"""The one exact solve the surgery path runs, and the determinant.

Matrices are tuples of tuples (row major) over Python ints or
``fractions.Fraction``; everything is computed exactly and no floating point
appears anywhere.  Sizes stay in the dozens, so plain O(n^3) elimination
fits.  One pivoted Gaussian elimination over the rationals, ``_eliminate``,
gives ``solve_exact``, which ``surgery.rational_invariants`` runs once per
diagram, and ``det_exact``.  The elimination forms no determinant: it
returns the sign of its row swaps and its pivots, and ``det_exact``
multiplies them, so a solve pays for no product it throws away.  The
cofactor determinant, the inverse and the Smith normal form live with the
tests, as oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Sequence, Union

from .errors import InvalidParams, SingularMatrix

Entry = Union[int, Fraction]
Matrix = tuple[tuple[Entry, ...], ...]
Vector = tuple[Entry, ...]


def _check_square(m: Matrix) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise InvalidParams("matrix is not square")
    return n


def _eliminate(m: Matrix, columns: Sequence[Sequence[Entry]]) -> tuple[int, list[Fraction], list[Vector]]:
    """The sign of the row swaps, the pivots and each x_j with m x_j = columns[j]:
    forward elimination with first-nonzero row pivots carries the columns along,
    then back substitution.  det m is the sign times the product of the pivots.
    Raises ``SingularMatrix`` at the first column with no pivot."""
    n = _check_square(m)
    if any(len(col) != n for col in columns):
        raise InvalidParams("vector length must match matrix dimension")
    a = [[Fraction(x) for x in row] + [Fraction(col[i]) for col in columns] for i, row in enumerate(m)]
    sign = 1
    for c in range(n):
        pivot_row = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot_row is None:
            raise SingularMatrix("matrix has determinant 0")
        if pivot_row != c:
            a[c], a[pivot_row] = a[pivot_row], a[c]
            sign = -sign
        for r in range(c + 1, n):
            if a[r][c]:
                factor = a[r][c] / a[c][c]
                a[r][c:] = [x - factor * y for x, y in zip(a[r][c:], a[c][c:])]
    pivots = [a[c][c] for c in range(n)]
    for i in reversed(range(n)):
        a[i][n:] = [y / a[i][i] for y in a[i][n:]]
        for r in range(i):
            if a[r][i]:
                a[r][n:] = [x - a[r][i] * y for x, y in zip(a[r][n:], a[i][n:])]
    return sign, pivots, [tuple(row[j] for row in a) for j in range(n, n + len(columns))]


def det_exact(m: Matrix) -> Entry:
    """Determinant by ``_eliminate``, the product of its pivots and its swap
    sign: 0 if singular, 1 for the 0x0 matrix, an int for int input."""
    try:
        sign, pivots, _ = _eliminate(m, ())
    except SingularMatrix:
        return 0
    det = prod(pivots, start=Fraction(sign))
    if all(isinstance(x, int) for row in m for x in row):
        assert det.denominator == 1
        return int(det)
    return det


def solve_exact(m: Matrix, v: Sequence[Entry]) -> Vector:
    """The exact rational x with m x = v, by ``_eliminate``; no inverse or determinant is formed."""
    return _eliminate(m, (v,))[2][0]
