"""Answers computed apart from the program, for the workload checkers.

Nothing here imports nonloose.  Each answer comes from a different route
than the library takes: one fraction-free solve instead of determinants, an
inverse and a Smith normal form; a one-dimensional scan instead of the
two-dimensional stabilization search; a direct count of writhe and cusps;
closed formulas for torus knots.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


def solve(m: list[list[int]], rhs: list[int]) -> list[Fraction] | None:
    """x with m x = rhs, by Bareiss elimination on integers; None if singular."""
    n = len(m)
    a = [list(row) + [b] for row, b in zip(m, rhs)]
    prev = 1
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][k]), None)
        if p is None:
            return None
        a[k], a[p] = a[p], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    x: list[Fraction] = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(a[i][n]) - sum(a[i][j] * x[j] for j in range(i + 1, n))
        x[i] = acc / a[i][i]
    return x


@dataclass(frozen=True)
class Rational:
    """Expected (tb_Q, rot_Q, r) of a passive component."""

    tb_q: Fraction
    rot_q: Fraction
    order_r: int


def surgery_invariants(
    m: list[list[int]], lkvec: list[int], rotvec: list[int], tb0: int, rot0: int
) -> Rational | None:
    """One solve M x = lk gives tb_Q = tb0 - <lk, x>, rot_Q = rot0 - <rot, x>
    and r = lcm of the denominators of x; None when M is singular."""
    x = solve(m, lkvec)
    if x is None:
        return None
    tb_q = tb0 - sum(l * xi for l, xi in zip(lkvec, x))
    rot_q = rot0 - sum(r * xi for r, xi in zip(rotvec, x))
    return Rational(Fraction(tb_q), Fraction(rot_q), lcm(*(xi.denominator for xi in x)))


def dual_invariants(tb: int, rot: int, a: int, b: int) -> Rational:
    """The (a, b)-stabilized push-off of the dual to (+1)-surgery on (tb, rot)."""
    return surgery_invariants([[tb + 1]], [tb], [rot], tb - a - b, rot + a - b)


def dual_closed_form(tb: int, rot: int) -> Rational:
    """Once positively stabilized dual: (-1/(tb+1), (rot+tb+1)/(tb+1), |tb+1|)."""
    return Rational(Fraction(-1, tb + 1), Fraction(rot + tb + 1, tb + 1), abs(tb + 1))


def bennequin_violated(tb, rot, rhs) -> bool:
    """-|tb| + |rot| > rhs, with rhs = -chi (classical) or -chi/r (rational)."""
    return -abs(tb) + abs(rot) > rhs


def least_violation(tb, rot, rhs, budget: int, side: str) -> tuple[int, tuple[int, int]] | None:
    """Least violating stabilization within ``budget``, lexicographically least split.

    For a fixed total s the excess -|tb - s| + |rot + 2a - s| is largest at
    a = 0 or a = s, so one scan over s finds the least violating total.  Past
    s = |tb| + |rot| + 1 the excess no longer changes, so the scan stops
    there when the budget is larger.
    """
    ends = {"both": (True, True), "positive_only": (True, False), "negative_only": (False, True)}
    pos, neg = ends[side]
    top = max(budget, int(abs(tb)) + int(abs(rot)) + 2)
    for s in range(top + 1):
        hit_pos = pos and bennequin_violated(tb - s, rot + s, rhs)
        hit_neg = neg and bennequin_violated(tb - s, rot - s, rhs)
        if not (hit_pos or hit_neg):
            continue
        if s > budget:
            return None
        if side == "positive_only":
            return s, (s, 0)
        if side == "negative_only":
            return s, (0, s)
        a = next(a for a in range(s + 1) if bennequin_violated(tb - s, rot + 2 * a - s, rhs))
        return s, (a, s - a)
    return None


def unknot_verdict(tb: int, rot: int) -> str:
    """tb <= 0 is loose; tb = n > 0 survives only with rot = +-(n - 1)."""
    if tb > 0 and abs(rot) == tb - 1:
        return "Inconclusive"
    return "LooseCertified"


def negative_torus_pairs(p_max: int) -> list[tuple[int, int]]:
    """Coprime (p, q) with -p > q >= 2 and |p| <= p_max."""
    return [
        (p, q)
        for p in range(-p_max, -2)
        for q in range(2, -p)
        if gcd(p, q) == 1
    ]


def negative_torus(p: int, q: int) -> dict:
    """Maximal tb pq with rot p + q; chi = 1 - 2g with g = (|p| - 1)(q - 1)/2."""
    return {
        "family": f"torus({p},{q})",
        "max_tb": p * q,
        "rot_at_max_tb": [p + q],
        "chi": 1 - (-p - 1) * (q - 1),
        "plus_one_surgery_overtwisted": True,
    }


def positive_torus(p: int, q: int) -> dict:
    """Maximal tb pq - p - q with rot 0; chi = 1 - 2g, g_s = g = (p-1)(q-1)/2."""
    g = (p - 1) * (q - 1) // 2
    return {
        "family": f"torus({p},{q})",
        "max_tb": p * q - p - q,
        "rot_at_max_tb": [0],
        "chi": 1 - 2 * g,
        "g_s": g,
    }


@dataclass(frozen=True)
class Front:
    """Invariants of a front word traversed from the first cusp's lower strand."""

    tb: int
    rot: int
    writhe: int
    up_cusps: int
    down_cusps: int
    crossings: int


def parse_events(text: str) -> list[tuple[str, int]]:
    """The token stream of a front word, without validating it."""
    body = " ".join(line.split("#")[0] for line in text.split("\n"))
    tokens = body.replace(";", " ").split()
    return [(tokens[k], int(tokens[k + 1])) for k in range(0, len(tokens), 2)]


def canonical(events: list[tuple[str, int]]) -> str:
    return "".join(f"{kind} {pos}\n" for kind, pos in events)


def front_invariants(events: list[tuple[str, int]]) -> Front | None:
    """Writhe and cusp counts of a single-component front, None if invalid.

    Every strand segment between two cusps gets an id.  Its left end sits at
    a left cusp and its right end at a right cusp; walking the knot, a
    segment run rightward ends at its right cusp, whose other segment is run
    leftward.  A cusp is "up" when entered on its lower segment.  A crossing
    is positive when both segments run the same way.
    """
    strands: list[int] = []
    at_left: dict[int, tuple[int, bool]] = {}
    at_right: dict[int, tuple[int, bool]] = {}
    crossed: list[tuple[int, int]] = []
    for kind, pos in events:
        if kind == "l" and 1 <= pos <= len(strands) + 1:
            low, high = len(at_left), len(at_left) + 1
            at_left[low], at_left[high] = (high, True), (low, False)
            strands[pos - 1 : pos - 1] = [low, high]
        elif kind == "r" and 1 <= pos < len(strands):
            low, high = strands[pos - 1], strands[pos]
            at_right[low], at_right[high] = (high, True), (low, False)
            del strands[pos - 1 : pos + 1]
        elif kind == "x" and 1 <= pos < len(strands):
            crossed.append((strands[pos - 1], strands[pos]))
            strands[pos - 1], strands[pos] = strands[pos], strands[pos - 1]
        else:
            return None
    if strands or not at_left:
        return None
    runs_right: dict[int, bool] = {}
    up = down = 0
    seg, rightward = 0, True
    while seg not in runs_right:
        runs_right[seg] = rightward
        seg, entered_low = (at_right if rightward else at_left)[seg]
        up, down = up + entered_low, down + (not entered_low)
        rightward = not rightward
    if len(runs_right) != len(at_left):
        return None
    writhe = sum(1 if runs_right[a] == runs_right[b] else -1 for a, b in crossed)
    return Front(
        writhe - (up + down) // 2, (down - up) // 2, writhe, up, down, len(crossed)
    )
