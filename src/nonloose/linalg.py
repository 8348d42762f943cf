"""The one exact solve the surgery path runs, and the determinant.

Matrices are tuples of tuples (row major) over Python ints or
``fractions.Fraction``; everything is computed exactly and no floating point
appears anywhere.  An entry of a matrix or a vector that is not an int (a
bool is not) or a ``Fraction``, or a matrix, row or vector that is not a
tuple or a list, raises ``InvalidParams``: nothing is converted.  Sizes stay
in the dozens, so plain O(n^3) elimination fits.  One pivoted Gaussian
elimination over the rationals, ``_eliminate``, gives ``solve_exact``, which
``surgery.rational_invariants`` runs once per diagram, and ``det_exact``.
The elimination forms no determinant: it returns the sign of its row swaps
and its pivots, and ``det_exact`` multiplies them, so a solve pays for no
product it throws away.  The cofactor determinant, the inverse and the Smith
normal form live with the tests, as oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Sequence, Union

from .calculus import read_fraction
from .errors import InvalidParams, SingularMatrix

Entry = Union[int, Fraction]
Matrix = tuple[tuple[Entry, ...], ...]
Vector = tuple[Entry, ...]


def _entries(values: object, what: str, entry: str) -> list[Fraction]:
    """``values``, a row or a vector, as ``Fraction``s; each entry is read with ``read_fraction``."""
    if not isinstance(values, (tuple, list)):
        raise InvalidParams(f"{what} must be a tuple or a list, got {values!r}")
    # a plain int, every entry on the surgery path, needs no call to the rule
    return [Fraction(x) if type(x) is int else read_fraction(x, entry, InvalidParams) for x in values]


def _eliminate(m: Matrix, columns: Sequence[Sequence[Entry]]) -> tuple[int, list[Fraction], list[Vector]]:
    """The sign of the row swaps, the pivots and each x_j with m x_j = columns[j]:
    forward elimination with first-nonzero row pivots carries the columns along,
    then back substitution.  det m is the sign times the product of the pivots.
    Raises ``SingularMatrix`` at the first column with no pivot."""
    if not isinstance(m, (tuple, list)):
        raise InvalidParams(f"matrix must be a tuple or a list of rows, got {m!r}")
    a = [_entries(row, "matrix row", "matrix entry") for row in m]
    n = len(a)
    if any(len(row) != n for row in a):
        raise InvalidParams("matrix is not square")
    columns = [_entries(col, "vector", "vector entry") for col in columns]
    if any(len(col) != n for col in columns):
        raise InvalidParams("vector length must match matrix dimension")
    for i, row in enumerate(a):
        row += [col[i] for col in columns]
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
