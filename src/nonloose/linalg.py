"""The one exact solve the surgery path runs, and the determinant.

Matrices are tuples of tuples (row major) over Python ints or
``fractions.Fraction``; everything is computed exactly and no floating point
appears anywhere.  An entry of a matrix or a vector that is not an int (a
bool is not) or a ``Fraction``, or a matrix, row or vector that is not a
tuple or a list, raises ``InvalidParams``: nothing is converted.  One
pivoted, fraction-free Gaussian elimination, ``_eliminate``, gives
``_solve``, which ``surgery.rational_invariants`` runs once per
diagram, and ``det_exact``.  A linking matrix of a large diagram is mostly
zeros, so the elimination keeps each row as a dict of its nonzero entries,
pivots on the row with the fewest of them (the row count of Markowitz's
rule, "The elimination form of the inverse and its application to linear
programming", 1957) and touches no zero.  Its rows hold ints: if an entry is
a ``Fraction``, each row is scaled by the lcm of its denominators, each
update is an integer combination of two rows, and each updated row is
divided by the gcd of its entries.  So a row stays primitive, and its
entries, minors of the input over their gcd, stay within Hadamard's bound.
This is not Bareiss's elimination ("Sylvester's identity and multistep
integer-preserving Gaussian elimination", 1968), which divides every
remaining row by the previous pivot, rows with no entry in the pivot column
too; here only the rows the pivot meets change.  The elimination forms no
determinant: it returns its pivots and two ints, sign times den and num,
whose quotient times the product of the pivots is det m, and ``det_exact``
multiplies them and divides once, so a solve pays for no product it throws
away.  Back substitution, ``_solve``, stays in ints: it returns numerators y
over one common denominator D, and ``solve_exact`` builds the y_i / D.  The
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
_NO_VECTOR = object()  # v when there is none, for det_exact: None is a vector solve_exact must refuse


def _entries(values: object, what: str, entry: str, fractions: list[Fraction]) -> dict[int, Entry]:
    """The nonzero entries of ``values``, a row or a vector, by position, as
    given; each that is not an int is read with ``read_fraction`` into ``fractions``."""
    if not isinstance(values, (tuple, list)):
        raise InvalidParams(f"{what} must be a tuple or a list, got {values!r}")
    # a plain int, every entry on the surgery path, needs no call to the rule
    fractions += [read_fraction(x, entry, InvalidParams) for x in values if type(x) is not int]
    return {j: x for j, x in enumerate(values) if x}


def _eliminate(
    m: Matrix, v: Sequence[Entry] = _NO_VECTOR
) -> tuple[tuple[int, int], list[int], list[dict[int, int]]]:
    """(sign den, num), the pivots and the reduced rows of m, v at column n.

    Each row of m, with its entry of v appended at n, is a dict of its
    nonzero entries; if any entry of m or v is not an int, each row is
    multiplied by the lcm of its denominators, so every entry is an int.  At
    column c the pivot is the row, of those not yet pivots, with an entry in
    c and the fewest entries (the lowest of them on a tie, so a dense matrix
    pivots on its first nonzero row); it is swapped into place c.  Only the
    rows with an entry b in c are updated: with p the pivot and g = gcd(p, b),
    a row becomes (p/g) row - (b/g) pivot row, subtracted only where the pivot
    row has entries, an entry that cancels is dropped, and the row is divided
    by the gcd of its entries.  An updated row is then primitive, so its
    entries stay within Hadamard's bound on the minors of [m | v] and do not
    grow step by step.  ``num`` is the product of the row lcms and the
    multipliers p/g, and ``den`` that of the contents divided out: each is a
    factor by which a row operation multiplied or divided det m, so det m is
    sign den / num times the product of the pivots, where sign is that of the
    row swaps.  Raises ``SingularMatrix`` at the first column with no pivot."""
    if not isinstance(m, (tuple, list)):
        raise InvalidParams(f"matrix must be a tuple or a list of rows, got {m!r}")
    fractions: list[Fraction] = []
    rows = [_entries(row, "matrix row", "matrix entry", fractions) for row in m]
    n = len(rows)
    if any(len(row) != n for row in m):
        raise InvalidParams("matrix is not square")
    if v is not _NO_VECTOR:
        vector = _entries(v, "vector", "vector entry", fractions)
        if len(v) != n:
            raise InvalidParams("vector length must match matrix dimension")
        for i, y in vector.items():
            rows[i][n] = y
    sign, num, den = 1, 1, 1
    if fractions:
        for row in rows:
            d = lcm(*(y.denominator for y in row.values()))
            for j, y in row.items():
                row[j] = y.numerator * (d // y.denominator)
            num *= d
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
                num *= a
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
                den *= content
    return (sign * den, num), [rows[c][c] for c in range(n)], rows


def det_exact(m: Matrix) -> Entry:
    """Determinant by ``_eliminate``: the product of its pivots and of sign
    times den, divided once by num.  0 if singular, 1 for the 0x0 matrix, an
    int for int input."""
    try:
        (factor, num), pivots, _ = _eliminate(m)
    except SingularMatrix:
        return 0
    det = prod(pivots, start=factor)
    if all(isinstance(x, int) for row in m for x in row):
        det, rest = divmod(det, num)
        assert rest == 0
        return det
    return Fraction(det, num)


def _solve(m: Matrix, v: Sequence[Entry]) -> tuple[list[int], int]:
    """Ints y and D > 0 with m (y / D) = v, by ``_eliminate``; no inverse or determinant is formed.

    Back substitution keeps the solved y_j over one common denominator D, from
    D = 1: at row i, with pivot p, right-hand side b, t = D b - sum of a_ij y_j
    over j > i and g = gcd(p, t) signed as p, the earlier y_j and D are
    multiplied by p/g and y_i = t/g, so D and the y_j keep no common factor."""
    rows = _eliminate(m, v)[2]
    n = len(rows)
    common = 1
    solved = [0] * n
    for i in reversed(range(n)):
        row = rows[i]
        t = common * row.pop(n, 0)
        pivot = row.pop(i)
        for j, a in row.items():
            t -= a * solved[j]
        g = gcd(pivot, t)
        if pivot < 0:
            g = -g
        step = pivot // g
        if step != 1:
            for j in range(i + 1, n):
                solved[j] *= step
            common *= step
        solved[i] = t // g
    return solved, common


def solve_exact(m: Matrix, v: Sequence[Entry]) -> Vector:
    """The exact rational x with m x = v: ``Fraction(y_i, D)`` from ``_solve``."""
    solved, common = _solve(m, v)
    return tuple(Fraction(y, common) for y in solved)
