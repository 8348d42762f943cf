"""The one exact solve the surgery path runs, and the determinant.

Matrices are tuples of tuples (row major) over Python ints or
``fractions.Fraction``; everything is computed exactly and no floating point
appears anywhere.  An entry of a matrix or a vector that is not an int (a
bool is not) or a ``Fraction``, or a matrix, row or vector that is not a
tuple or a list, raises ``InvalidParams``: nothing is converted.  One
pivoted, fraction-free Gaussian elimination, ``_eliminate``, gives
``solve_exact``, which ``surgery.rational_invariants`` runs once per
diagram, and ``det_exact``.  A linking matrix of a large diagram is mostly
zeros, so the elimination keeps each row as a dict of its nonzero entries,
pivots on the row with the fewest of them (the row count of Markowitz's
rule, "The elimination form of the inverse and its application to linear
programming", 1957) and touches no zero.  Its rows hold ints: a row with a
``Fraction`` is scaled by the lcm of its denominators, each update is an
integer combination of two rows, and each updated row is divided by the gcd
of its entries.  So a row stays primitive, and its entries, minors of the
input over their gcd, stay within Hadamard's bound.  This is not Bareiss's
elimination ("Sylvester's identity and multistep integer-preserving Gaussian
elimination", 1968), which divides every remaining row by the previous
pivot, rows with no entry in the pivot column too; here only the rows the
pivot meets change.  The elimination forms no determinant: it returns sign /
scale, the factor by which its row swaps and row scalings changed det m,
and its pivots, and ``det_exact`` multiplies them, so a solve pays for no
product it throws away.  Back substitution divides in ``Fraction``s.  The
cofactor determinant, the inverse and the Smith normal form live with the
tests, as oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence, Union

from .calculus import read_fraction
from .errors import InvalidParams, SingularMatrix

Entry = Union[int, Fraction]
Matrix = tuple[tuple[Entry, ...], ...]
Vector = tuple[Entry, ...]


def _entries(values: object, what: str, entry: str) -> dict[int, Entry]:
    """The nonzero entries of ``values``, a row or a vector, by position; each
    entry is read with ``read_fraction``, and an int is kept as it is."""
    if not isinstance(values, (tuple, list)):
        raise InvalidParams(f"{what} must be a tuple or a list, got {values!r}")
    # a plain int, every entry on the surgery path, needs no call to the rule
    read = [x if type(x) is int else read_fraction(x, entry, InvalidParams) for x in values]
    return {j: x for j, x in enumerate(read) if x}


def _eliminate(m: Matrix, columns: Sequence[Sequence[Entry]]) -> tuple[Fraction, list[int], list[Vector]]:
    """sign / scale, the pivots and each x_j with m x_j = columns[j].

    Each row of m, with its entries of the columns appended at n, n + 1, ...,
    is a dict of its nonzero entries, multiplied by the lcm of their
    denominators if any is a ``Fraction``, so every entry is an int.  At
    column c the pivot is the row, of those not yet pivots, with an entry in
    c and the fewest entries (the lowest of them on a tie, so a dense matrix
    pivots on its first nonzero row); it is swapped into place c.  Only the
    rows with an entry b in c are updated: with p the pivot and g = gcd(p, b),
    a row becomes (p/g) row - (b/g) pivot row, subtracted only where the pivot
    row has entries, an entry that cancels is dropped, and the row is divided
    by the gcd of its entries.  An updated row is then primitive, so its
    entries stay within Hadamard's bound on the minors of [m | columns] and do
    not grow step by step.  ``scale`` is the product of the row lcms and the
    multipliers p/g over the contents divided out, each a factor by which a
    row operation multiplied det m; so det m is sign / scale times the product
    of the pivots, where sign is that of the row swaps.  Back substitution
    runs over the stored entries in ``Fraction``s.  Raises ``SingularMatrix``
    at the first column with no pivot."""
    if not isinstance(m, (tuple, list)):
        raise InvalidParams(f"matrix must be a tuple or a list of rows, got {m!r}")
    rows = [_entries(row, "matrix row", "matrix entry") for row in m]
    n = len(rows)
    if any(len(row) != n for row in m):
        raise InvalidParams("matrix is not square")
    vectors = [_entries(col, "vector", "vector entry") for col in columns]
    if any(len(col) != n for col in columns):
        raise InvalidParams("vector length must match matrix dimension")
    for j, vector in enumerate(vectors, n):
        for i, y in vector.items():
            rows[i][j] = y
    sign, scale = 1, Fraction(1)
    for row in rows:
        if any(type(y) is not int for y in row.values()):
            d = lcm(*(y.denominator for y in row.values()))
            for j, y in row.items():
                row[j] = y.numerator * (d // y.denominator)
            scale *= d
    for c in range(n):
        best = None
        for r in range(c, n):
            if c in rows[r] and (best is None or len(rows[r]) < len(rows[best])):
                best = r
        if best is None:
            raise SingularMatrix("matrix has determinant 0")
        if best != c:
            rows[c], rows[best] = rows[best], rows[c]
            sign = -sign
        pivot_row = rows[c]
        pivot = pivot_row[c]
        rest = [(j, y) for j, y in pivot_row.items() if j != c]
        for row in rows[c + 1 :]:
            below = row.pop(c, None)
            if below is None:
                continue
            g = gcd(pivot, below)
            a, b = pivot // g, below // g
            if a != 1:
                for j in row:
                    row[j] *= a
                scale *= a
            for j, y in rest:
                value = row.get(j, 0) - b * y
                if value:
                    row[j] = value
                else:
                    del row[j]
            content = gcd(*row.values())
            if content > 1:
                for j in row:
                    row[j] //= content
                scale /= content
    pivots = [rows[c][c] for c in range(n)]
    solved: list[list[Fraction]] = [[]] * n
    for i in reversed(range(n)):
        row = rows[i]
        values = [row.get(j, 0) for j in range(n, n + len(columns))]
        for j, a in row.items():
            if i < j < n:
                values = [v - a * y for v, y in zip(values, solved[j])]
        solved[i] = [Fraction(v, pivots[i]) for v in values]
    return sign / scale, pivots, [tuple(x[j] for x in solved) for j in range(len(columns))]


def det_exact(m: Matrix) -> Entry:
    """Determinant by ``_eliminate``, the product of its pivots and its sign /
    scale: 0 if singular, 1 for the 0x0 matrix, an int for int input."""
    try:
        factor, pivots, _ = _eliminate(m, ())
    except SingularMatrix:
        return 0
    det = prod(pivots, start=factor)
    if all(isinstance(x, int) for row in m for x in row):
        assert det.denominator == 1
        return int(det)
    return det


def solve_exact(m: Matrix, v: Sequence[Entry]) -> Vector:
    """The exact rational x with m x = v, by ``_eliminate``; no inverse or determinant is formed."""
    return _eliminate(m, (v,))[2][0]
