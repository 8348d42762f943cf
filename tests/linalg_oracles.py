"""Exact linear algebra that no command runs, kept as oracles for the tests.

The cofactor determinant, the inverse, the Smith normal form with its
unimodular transforms, the homological order it gives and the bordered
matrix M0 of a surgery diagram cross-check ``nonloose.linalg`` and
``nonloose.surgery``, which compute tb_Q, rot_Q and r from one solve of
M x = lk.  Each reduces on its own: from ``nonloose`` this module takes only
type aliases, value classes and error classes, never code it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from nonloose.errors import InvalidParams, SingularMatrix
from nonloose.linalg import Entry, Matrix, Vector
from nonloose.surgery import SurgeryDiagram


class Infinite:
    """Sentinel for an infinite homological order.  Compares unequal to ints."""

    _instance = None

    def __new__(cls) -> "Infinite":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Infinite"


INFINITE = Infinite()


def _check_square(m: Matrix) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise InvalidParams("matrix is not square")
    return n


def freeze(rows: Sequence[Sequence[Entry]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise InvalidParams("incompatible shapes")
    inner = len(b)
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols))
        for row in a
    )


def mat_vec(a: Matrix, v: Sequence[Entry]) -> Vector:
    if a and len(a[0]) != len(v):
        raise InvalidParams("incompatible shapes")
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def det_cofactor(m: Matrix) -> Entry:
    """Determinant by first-row cofactor expansion.

    Exponential; used as an independent cross-check for small matrices.
    """
    n = _check_square(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = tuple(row[:j] + row[j + 1 :] for row in m[1:])
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def invert_exact(m: Matrix) -> Matrix:
    """Exact inverse over the rationals: Gauss-Jordan elimination of [m | I]."""
    n = _check_square(m)
    a = [[Fraction(x) for x in (*row, *unit)] for row, unit in zip(m, identity(n))]
    for c in range(n):
        pivot_row = next((r for r in range(c, n) if a[r][c]), None)
        if pivot_row is None:
            raise SingularMatrix("matrix has determinant 0")
        a[c], a[pivot_row] = a[pivot_row], a[c]
        pivot = a[c][c]
        a[c] = [x / pivot for x in a[c]]
        for r in range(n):
            factor = a[r][c]
            if r != c and factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[c])]
    return freeze(row[n:] for row in a)


@dataclass(frozen=True)
class SmithDecomposition:
    """Unimodular U, V and diagonal D with U @ M @ V = D.

    Diagonal entries are nonnegative and each divides the next.
    """

    u: Matrix
    d: Matrix
    v: Matrix

    def diagonal(self) -> tuple[int, ...]:
        k = min(len(self.d), len(self.d[0]) if self.d else 0)
        return tuple(self.d[i][i] for i in range(k))


def _swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _row_sub(a, u, i, t, q):
    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
    u[i] = [x - q * y for x, y in zip(u[i], u[t])]


def _col_sub(a, v, j, t, q):
    for row in a:
        row[j] -= q * row[t]
    for row in v:
        row[j] -= q * row[t]


def smith_normal_form(m: Matrix) -> SmithDecomposition:
    """Smith normal form of an integer matrix by repeated gcd reduction.

    Works for any shape; the transforms are accumulated alongside the
    eliminations, so U and V are products of elementary unimodular steps.
    """
    nr = len(m)
    nc = len(m[0]) if m else 0
    if any(len(row) != nc for row in m):
        raise InvalidParams("ragged matrix")
    if any(not isinstance(x, int) for row in m for x in row):
        raise InvalidParams("Smith normal form requires integer entries")
    a = [list(row) for row in m]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    t = 0
    while t < min(nr, nc):
        piv = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = abs(a[i][j])
                if x and (best is None or x < best):
                    best, piv = x, (i, j)
        if piv is None:
            break
        _swap_rows(a, u, t, piv[0])
        _swap_cols(a, v, t, piv[1])

        while True:
            restart = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    _row_sub(a, u, i, t, a[i][t] // a[t][t])
                    if a[i][t]:
                        # remainder is strictly smaller; promote it to pivot
                        _swap_rows(a, u, t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, nc):
                if a[t][j]:
                    _col_sub(a, v, j, t, a[t][j] // a[t][t])
                    if a[t][j]:
                        _swap_cols(a, v, t, j)
                        restart = True
                        break
            if restart:
                continue

            # divisibility: the pivot must divide the remaining block
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            u[t] = [x + y for x, y in zip(u[t], u[offender])]

        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return SmithDecomposition(freeze(u), freeze(a), freeze(v))


def homological_order(m: Matrix, lkvec: Sequence[int]) -> int | Infinite:
    """Minimal r >= 1 with r*lkvec in the integer column image of M.

    Computed through the Smith decomposition: with U M V = D and w = U lkvec,
    the class of lkvec has order lcm_i d_i / gcd(d_i, w_i), infinite when a
    zero invariant factor meets a nonzero coordinate.
    """
    n = _check_square(m)
    if len(lkvec) != n:
        raise InvalidParams("vector length must match matrix dimension")
    if n == 0:
        return 1
    snf = smith_normal_form(m)
    w = mat_vec(snf.u, tuple(lkvec))
    r = 1
    for i in range(n):
        d = snf.d[i][i]
        if d == 0:
            if w[i] != 0:
                return INFINITE
        else:
            r = lcm(r, d // gcd(d, w[i]))
    return r


def extended_matrix(diag: SurgeryDiagram) -> Matrix:
    """M bordered by a zero corner and the distinguished linking numbers,
    built from the diagram's components and linking matrix: the passive
    component first, then the surgered ones in diagram order, with tb + 1 on
    the diagonal under (+1)-surgery and tb - 1 under (-1)-surgery.

    By the Schur complement, det M0 = -det M * lk^T M^{-1} lk.
    """
    comps = diag.components
    order = sorted(range(len(comps)), key=lambda i: comps[i].coeff != "passive")
    framing = [0 if c.coeff == "passive" else c.tb + int(c.coeff) for c in comps]
    return tuple(tuple(diag.lk[i][j] + (framing[i] if i == j else 0) for j in order) for i in order)
