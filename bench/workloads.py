"""The four workloads: seeded inputs, the timed operations and their checks.

A workload turns a seed into a fixed list of operations.  An operation is a
thunk that the runner times, plus a checker that compares the thunk's result
with answers computed by ``oracles`` while the list is built, before any
timing starts.  A checker returns None for a right answer and a message for a
wrong one; a result may also be the exception the thunk raised.

The library is always reached through module attributes (``surgery.
rational_invariants(...)``), never through names bound here, so the tracer
can rebind them.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Any, Callable

import oracles
from nonloose import calculus, certify, cli, diagram, surgery


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    # the program fault that makes this input fail on every run, if any
    known_fault: str | None = None


@dataclass
class Workload:
    ops: list[Op]
    # module a fresh interpreter imports to measure set-up time
    setup_module: str = "nonloose"
    # runs the operations in-process; used by the traced run of ``cli``
    in_process: list[Op] | None = None


def _odd_chi(rng: random.Random) -> int:
    """An Euler characteristic of a knot's Seifert surface: odd and at most 1."""
    return rng.randrange(-11, 2, 2)


def _rot_for(rng: random.Random, tb: int, spread: int) -> int:
    """A rotation number with tb + rot odd, as for any Legendrian knot."""
    return rng.choice([r for r in range(-spread, spread + 1) if (tb + r) % 2])


def _rational_matches(got: Any, want: oracles.Rational, chi: int) -> str | None:
    if isinstance(got, BaseException):
        return f"raised {got!r}"
    seen = (got.tb_q, got.rot_q, got.order_r, got.chi)
    expected = (want.tb_q, want.rot_q, want.order_r, chi)
    return None if seen == expected else f"got {seen}, expected {expected}"


# ---------------------------------------------------------------------------
# surgery: linalg and surgery on diagrams of 2 to 28 surgered components.

# Diagrams per size, and the dual_invariants operations beside them.  The
# counts put the median on the n = 4 plateau and the 90th percentile on the
# n = 8 plateau, so that neither rests on a few random matrices.
SURGERY_SIZES = {2: 14, 4: 108, 8: 20, 16: 1, 20: 1, 24: 2, 28: 2}
SURGERY_DUALS = 24
# Fully linked small diagrams cost nearly the same for every seed.  Large
# ones are sparser, with about the same number of links at every component:
# that keeps their cost steady too (a coin per pair gives 3x the spread),
# and fully linked n = 28 diagrams reach 10^5-bit SNF entries.
DENSE_UP_TO = 8
SPARSE_DENSITY = 0.3
LK_VALUES = (-3, -2, -1, 1, 2, 3)


def random_diagram(rng: random.Random, n: int) -> tuple[dict, int, oracles.Rational]:
    """A JSON diagram with n surgered components and a nonsingular linking matrix.

    Every pair of components links when n <= DENSE_UP_TO.  Above that the
    links are the union of round(SPARSE_DENSITY * (n - 1)) random perfect
    matchings, so each component links about that many others, and the
    passive component links a SPARSE_DENSITY share of the surgered ones.
    Returns the document, a chi for the passive component and the expected
    invariants of its given orientation.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    density = 1.0 if n <= DENSE_UP_TO else SPARSE_DENSITY
    while True:
        tbs = [rng.randint(-8, 1) for _ in range(n)]
        rots = [_rot_for(rng, tb, 4) for tb in tbs]
        coeffs = [rng.choice((1, -1)) for _ in range(n)]
        lk = [[0] * n for _ in range(n)]
        if density == 1.0:
            links = pairs
        else:
            links = []
            for _ in range(round(density * (n - 1))):
                order = rng.sample(range(n), n)
                links += zip(order[::2], order[1::2])
        for i, j in links:
            lk[i][j] = lk[j][i] = rng.choice(LK_VALUES)
        lkvec = [0] * n
        for i in rng.sample(range(n), max(1, round(density * n))):
            lkvec[i] = rng.choice(LK_VALUES)
        tb0 = rng.randint(-6, 0)
        rot0 = _rot_for(rng, tb0, 3)
        m = [[tbs[i] + coeffs[i] if i == j else lk[i][j] for j in range(n)] for i in range(n)]
        want = oracles.surgery_invariants(m, lkvec, rots, tb0, rot0)
        if want is not None:
            break
    ids = [f"K{i}" for i in range(n)]
    components = [
        {"id": ids[i], "tb": tbs[i], "rot": rots[i], "coeff": "+1" if coeffs[i] > 0 else "-1"}
        for i in range(n)
    ]
    components.insert(rng.randrange(n + 1), {"id": "P", "tb": tb0, "rot": rot0, "coeff": "passive"})
    links = [[ids[i], ids[j], lk[i][j]] for i, j in pairs if lk[i][j]]
    links += [["P", ids[i], lkvec[i]] for i in range(n) if lkvec[i]]
    rng.shuffle(links)
    doc = {"components": components, "lk": links, "distinguished": "P"}
    return doc, _odd_chi(rng), want


def _reversed(want: oracles.Rational) -> oracles.Rational:
    return oracles.Rational(want.tb_q, -want.rot_q, want.order_r)


def surgery_workload(seed: int) -> Workload:
    rng = random.Random(f"surgery:{seed}")
    ops = []
    for n in [n for n, count in SURGERY_SIZES.items() for _ in range(count)]:
        doc, chi, want = random_diagram(rng, n)
        for rev, expect in ((False, want), (True, _reversed(want))):
            ops.append(
                Op(
                    f"rational_invariants n={n}{' reversed' if rev else ''}",
                    lambda doc=doc, chi=chi, rev=rev: surgery.rational_invariants(
                        surgery.diagram_from_json(doc), chi, reverse_distinguished=rev
                    ),
                    lambda got, want=expect, chi=chi: _rational_matches(got, want, chi),
                )
            )
    for _ in range(SURGERY_DUALS):
        tb = rng.choice([t for t in range(-30, 21) if t != -1])
        rot = _rot_for(rng, tb, 6)
        a, b, chi = rng.randint(0, 3), rng.randint(0, 3), _odd_chi(rng)
        ops.append(
            Op(
                f"dual_invariants tb={tb} a={a} b={b}",
                lambda tb=tb, rot=rot, a=a, b=b, chi=chi: surgery.dual_invariants(tb, rot, a, b, chi),
                lambda got, want=oracles.dual_invariants(tb, rot, a, b), chi=chi: _rational_matches(
                    got, want, chi
                ),
            )
        )
    return Workload(ops)


# ---------------------------------------------------------------------------
# certify: the stabilization search, the torus search and the Bennequin checks.

BUDGET = 64  # the CLI default
BIG_BUDGET = 256
SIDES = ("both", "positive_only", "negative_only")
# Grid points per class.  A class fixes what the three searches return, and
# with it their cost: "0" is violated before any stabilization; "W" finds
# witnesses of total 1 to SMALL_TOTAL on every side; "M+" ("M-") finds them
# on 'both' and the positive (negative) side only; "H" never violates.  The
# counts put the median among the classical one-sided searches that find
# nothing and the 90th percentile among the classical two-sided ones, whose
# cost is the same for every seed.
CLASSICAL_CLASSES = {"0": 4, "W": 4, "M+": 4, "M-": 4, "H": 24}
RATIONAL_CLASSES = {"0": 8, "H": 2}
SMALL_TOTAL = 6
P_MAX_VALUES = (9, 11, 13)
CHECK_BATCH = 4


def _class_of(tb, rot, rhs) -> str | None:
    both, pos, neg = (
        None if hit is None else hit[0]
        for hit in (oracles.least_violation(tb, rot, rhs, BUDGET, side) for side in SIDES)
    )
    small = lambda *totals: all(t is not None and t <= SMALL_TOTAL for t in totals)  # noqa: E731
    if (both, pos, neg) == (0, 0, 0):
        return "0"
    if small(both, pos, neg):
        return "W"
    if neg is None and small(both, pos):
        return "M+"
    if pos is None and small(both, neg):
        return "M-"
    if both is pos is neg is None:
        return "H"
    return None


def _classical_point(rng: random.Random) -> tuple[int, int, int]:
    tb = rng.randint(-12, 12)
    return tb, _rot_for(rng, tb, 12), _odd_chi(rng)


def _rational_point(rng: random.Random) -> tuple[Fraction, Fraction, int, int]:
    r = rng.randint(2, 9)
    tb_q = Fraction(rng.randint(-12 * r, 12 * r), r)
    rot_q = Fraction(rng.randint(-12 * r, 12 * r), r)
    return tb_q, rot_q, _odd_chi(rng), r


def _grid(rng: random.Random, make: Callable, rhs: Callable, quotas: dict[str, int]) -> list[tuple]:
    """Points of each class in the numbers ``quotas`` asks for, by rejection."""
    left = dict(quotas)
    points = []
    while any(left.values()):
        pt = make(rng)
        cls = _class_of(pt[0], pt[1], rhs(pt))
        if left.get(cls):
            left[cls] -= 1
            points.append((cls, pt))
    return [pt for _, pt in sorted(points, key=lambda cp: list(quotas).index(cp[0]))]


def _tension_op(data, tb, rot, rhs, budget: int, side: str, label: str) -> Op:
    want = oracles.least_violation(tb, rot, rhs, budget, side)

    def check(got, want=want):
        if isinstance(got, BaseException):
            return f"raised {got!r}"
        if got is not None:
            got = (got[0], tuple(got[1]))
        return None if got == want else f"got {got}, expected {want}"

    return Op(
        f"tension_upper_bound {label} max_n={budget} {side}",
        lambda: certify.tension_upper_bound(data, max_n=budget, side=side),
        check,
    )


def _large_total_point(rng: random.Random) -> tuple[int, int, int]:
    """Classical point whose least violating total lies between the two budgets."""
    while True:
        tb = rng.randint(150, 220)
        rot = _rot_for(rng, tb, 4)
        chi = -rng.randrange(61, 120, 2)
        hit = oracles.least_violation(tb, rot, -chi, BIG_BUDGET, "both")
        if hit is not None and hit[0] > BUDGET:
            return tb, rot, chi


def search_problem(details: list[dict], p_max: int) -> str | None:
    """Certificates of tension_less_than_depth_search, as JSON details: one per
    coprime (p, q) with -p > q >= 2 and |p| <= p_max, with the torus formulas
    and the closed-form stabilized dual."""
    seen = []
    for d in details:
        p, q = (int(v) for v in d["knot"][len("torus(") : -1].split(","))
        rec = oracles.negative_torus(p, q)
        dual = oracles.dual_closed_form(rec["max_tb"], p + q)
        got = (d["tb"], d["rot"], d["chi"], d["dual_tb_q"], d["dual_rot_q"], d["dual_order_r"])
        want = (rec["max_tb"], p + q, rec["chi"], str(dual.tb_q), str(dual.rot_q), dual.order_r)
        if got != want:
            return f"{d['knot']}: {got}, expected {want}"
        seen.append((p, q))
    pairs = oracles.negative_torus_pairs(p_max)
    return None if sorted(seen) == sorted(pairs) else f"{len(seen)} certificates, expected {len(pairs)}"


def _search_op(p_max: int) -> Op:
    def check(got):
        if isinstance(got, BaseException):
            return f"raised {got!r}"
        return search_problem([cert.to_dict()["details"] for cert in got], p_max)

    return Op(
        f"tension_less_than_depth_search p_max={p_max}",
        lambda: certify.tension_less_than_depth_search(p_max),
        check,
    )


def _checks_op(points: list[tuple]) -> Op:
    """unknot_verdict and the three Bennequin checks on a few grid points."""
    want = []
    for tb, rot, chi in points:
        want.append(
            (
                oracles.unknot_verdict(tb, rot),
                oracles.bennequin_violated(tb, rot, -chi),
                oracles.bennequin_violated(Fraction(tb, 3), Fraction(rot, 3), Fraction(-chi, 3)),
                Fraction(tb - rot, 3) > Fraction(-chi, 3),
            )
        )

    def run():
        out = []
        for tb, rot, chi in points:
            out.append(
                (
                    certify.unknot_verdict(calculus.ClassicalPair(tb, rot)).verdict.value,
                    certify.bennequin_null(calculus.ClassicalPair(tb, rot, chi)).value == "Violated",
                    certify.bennequin_rational(
                        calculus.RationalData(Fraction(tb, 3), Fraction(rot, 3), 3, chi)
                    ).value
                    == "Violated",
                    certify.transverse_bennequin(Fraction(tb - rot, 3), chi, 3).value == "Violated",
                )
            )
        return out

    def check(got):
        if isinstance(got, BaseException):
            return f"raised {got!r}"
        return None if got == want else f"got {got}, expected {want}"

    return Op(f"unknot_verdict and Bennequin checks x{len(points)}", run, check)


def certify_workload(seed: int) -> Workload:
    rng = random.Random(f"certify:{seed}")
    ops = []
    classical = _grid(rng, _classical_point, lambda pt: -pt[2], CLASSICAL_CLASSES)
    for tb, rot, chi in classical:
        data = calculus.ClassicalPair(tb, rot, chi)
        for side in SIDES:
            ops.append(_tension_op(data, tb, rot, -chi, BUDGET, side, f"({tb},{rot},{chi})"))
    rational = _grid(rng, _rational_point, lambda pt: Fraction(-pt[2], pt[3]), RATIONAL_CLASSES)
    for tb_q, rot_q, chi, r in rational:
        data = calculus.RationalData(tb_q, rot_q, r, chi)
        label = f"({tb_q},{rot_q},{chi},r={r})"
        for side in SIDES:
            ops.append(_tension_op(data, tb_q, rot_q, Fraction(-chi, r), BUDGET, side, label))
    # the larger budget: a search that finds nothing, and one that needs it
    tb, rot, chi = classical[-1]
    ops.append(_tension_op(calculus.ClassicalPair(tb, rot, chi), tb, rot, -chi, BIG_BUDGET, "both", f"({tb},{rot},{chi})"))
    tb, rot, chi = _large_total_point(rng)
    for budget in (BUDGET, BIG_BUDGET):
        ops.append(_tension_op(calculus.ClassicalPair(tb, rot, chi), tb, rot, -chi, budget, "both", f"({tb},{rot},{chi})"))
    ops += [_search_op(p_max) for p_max in P_MAX_VALUES]
    ops += [_checks_op(classical[k : k + CHECK_BATCH]) for k in range(0, len(classical), CHECK_BATCH)]
    return Workload(ops)


# ---------------------------------------------------------------------------
# fronts: the diagram layer alone.

# Word lengths: FRONT_SPREAD words log-spaced over the range, and two
# plateaus of words of one length each, placed where the median and the 90th
# percentile fall, so that neither rests on one or two random words.
FRONT_MIN_EVENTS, FRONT_MAX_EVENTS = 20, 2000
FRONT_SPREAD = 60
FRONT_PLATEAUS = {430: 30, 1800: 20}
FRONT_MAX_WIDTH = 16


def random_front(rng: random.Random, length: int, max_width: int = FRONT_MAX_WIDTH) -> list[tuple[str, int]]:
    """A single-component front word of about ``length`` events.

    Each live strand belongs to an open chain of segments with two live
    ends.  A right cusp that joins two different chains never closes a
    component, so every right cusp but the last joins different chains and
    the word is one knot by construction.
    """
    events: list[tuple[str, int]] = []
    chain_of: list[int] = []  # chain id of each live strand, bottom to top
    root: dict[int, int] = {}

    def find(c: int) -> int:
        while root[c] != c:
            c = root[c]
        return c

    def joinable() -> list[int]:
        return [i for i in range(1, len(chain_of)) if find(chain_of[i - 1]) != find(chain_of[i])]

    def right(i: int) -> None:
        root[find(chain_of[i - 1])] = find(chain_of[i])
        del chain_of[i - 1 : i + 1]
        events.append(("r", i))

    while True:
        width = len(chain_of)
        if width == 0:
            if events:
                return events
            root[0] = 0
            chain_of[:] = [0, 0]
            events.append(("l", 1))
            continue
        if width == 2 and find(chain_of[0]) == find(chain_of[1]) and len(events) >= length - 1:
            events.append(("r", 1))
            chain_of.clear()
            continue
        ends = joinable()
        if len(events) + width // 2 >= length and ends:
            right(rng.choice(ends))
            continue
        moves = ["x"] * 4 + ["r"] * 2 * bool(ends)
        if width + 2 <= max_width:
            moves += ["l"] * 3
        move = rng.choice(moves)
        if move == "l":
            i = rng.randint(1, width + 1)
            c = len(root)
            root[c] = c
            chain_of[i - 1 : i - 1] = [c, c]
            events.append(("l", i))
        elif move == "x":
            i = rng.randint(1, width - 1)
            chain_of[i - 1], chain_of[i] = chain_of[i], chain_of[i - 1]
            events.append(("x", i))
        else:
            right(rng.choice(ends))


def front_text(rng: random.Random, events: list[tuple[str, int]]) -> str:
    """Render a word with the separators the parser accepts: spaces, ';',
    newlines and '#' comments."""
    out = ["# generated front\n"]
    for kind, pos in events:
        out.append(f"{kind} {pos}" + rng.choice((" ", " ; ", "\n", "  # note\n")))
    return "".join(out)


@dataclass(frozen=True)
class FrontResult:
    right: tuple[int, int, int, int, int]
    left: tuple[int, int]
    plus: tuple[int, int, str]
    minus: tuple[int, int, str]
    pair: tuple[int, int] | None
    restored: str | None
    text: str


def _front_doc(front) -> tuple[int, int, int, int, int]:
    return (diagram.tb(front), diagram.rot(front), front.writhe, front.up_cusps, front.down_cusps)


def front_pipeline(text: str, destab_plus: bool) -> FrontResult:
    """Parse, orient both ways, stabilize + and -, detect and remove a zigzag, serialize."""
    word = diagram.parse_front(text)
    right = diagram.resolve_orientation(word)
    left = diagram.reverse_orientation(right)
    plus = diagram.stabilize_front(right, "+")
    minus = diagram.stabilize_front(right, "-")
    stabilized = (plus if destab_plus else minus).word
    pair = diagram.detect_syntactic_destabilization(stabilized)
    restored = None if pair is None else diagram.destabilize_front(stabilized, pair)
    return FrontResult(
        _front_doc(right),
        (diagram.tb(left), diagram.rot(left)),
        (diagram.tb(plus), diagram.rot(plus), diagram.serialize_front(plus.word)),
        (diagram.tb(minus), diagram.rot(minus), diagram.serialize_front(minus.word)),
        pair,
        None if restored is None else diagram.serialize_front(restored),
        diagram.serialize_front(word),
    )


def check_front(got: Any, events: list[tuple[str, int]], want: oracles.Front, destab_plus: bool, memo: dict) -> str | None:
    """Every front property the workload promises, against oracles.front_invariants.

    ``want`` holds the invariants of ``events``; the stabilized words the
    program returns are recounted, once each (``memo``).
    """
    if isinstance(got, BaseException):
        return f"raised {got!r}"
    tb, rot = want.tb, want.rot
    if got.right != (tb, rot, want.writhe, want.up_cusps, want.down_cusps):
        return f"(tb, rot, writhe, up, down) = {got.right}, expected {(tb, rot, want.writhe, want.up_cusps, want.down_cusps)}"
    if (tb + rot) % 2 != 1 or tb + abs(rot) > want.crossings - 1:
        return f"(tb, rot) = {(tb, rot)} breaks parity or tb + |rot| <= crossings - 1"
    if got.left != (tb, -rot):
        return f"reversed (tb, rot) = {got.left}, expected {(tb, -rot)}"
    for sign, (s_tb, s_rot, s_text) in (("+", got.plus), ("-", got.minus)):
        if s_text not in memo:
            memo[s_text] = oracles.front_invariants(oracles.parse_events(s_text))
        actual = memo[s_text]
        step = 1 if sign == "+" else -1
        if actual is None or (s_tb, s_rot) != (actual.tb, actual.rot) or (s_tb, s_rot) != (tb - 1, rot + step):
            return f"stabilized {sign}: reported {(s_tb, s_rot)}, word gives {actual}, expected {(tb - 1, rot + step)}"
    original = oracles.canonical(events)
    if got.pair is None or got.restored != original:
        return f"destabilizing the {'+' if destab_plus else '-'} stabilization at {got.pair} does not restore the word"
    if got.text != original:
        return "parse and serialize do not round-trip"
    return None


def fronts_workload(seed: int) -> Workload:
    rng = random.Random(f"fronts:{seed}")
    ratio = FRONT_MAX_EVENTS / FRONT_MIN_EVENTS
    lengths = [round(FRONT_MIN_EVENTS * ratio ** (k / (FRONT_SPREAD - 1))) for k in range(FRONT_SPREAD)]
    lengths += [length for length, count in FRONT_PLATEAUS.items() for _ in range(count)]
    ops = []
    memo: dict = {}
    for k, length in enumerate(lengths):
        events = random_front(rng, length)
        text = front_text(rng, events)
        destab_plus = k % 2 == 0
        ops.append(
            Op(
                f"front pipeline {len(events)} events",
                lambda text=text, plus=destab_plus: front_pipeline(text, plus),
                lambda got, ev=events, want=oracles.front_invariants(events), plus=destab_plus: check_front(
                    got, ev, want, plus, memo
                ),
            )
        )
    return Workload(ops)


# ---------------------------------------------------------------------------
# cli: fresh `python -m nonloose.cli` processes, one after another.

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], stdin_text: str, env: dict) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(argv: list[str], stdin_text: str) -> tuple[int, str, str]:
    """cli.main with stdin and stdout swapped for strings."""
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(stdin_text), io.StringIO()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        out = sys.stdout.getvalue()
        sys.stdin, sys.stdout = saved
    return code, out, ""


def _json_result(got: Any) -> tuple[dict | None, str | None]:
    if isinstance(got, BaseException):
        return None, f"raised {got!r}"
    code, out, err = got
    if code != 0:
        return None, f"exit {code}: {(out + err).strip()[-300:]}"
    try:
        return json.loads(out), None
    except json.JSONDecodeError:
        return None, f"stdout is not JSON: {out[:200]!r}"


def _expect(want: dict) -> Callable[[Any], str | None]:
    """Check that the JSON document holds every key of ``want`` with that value."""

    def check(got):
        doc, err = _json_result(got)
        if err:
            return err
        wrong = {k: doc.get(k) for k, v in want.items() if doc.get(k) != v}
        return None if not wrong else f"got {wrong}, expected {want}"

    return check


def _expect_error(got: Any) -> str | None:
    """Malformed input must end in exit 1 with an error document on stdout."""
    if isinstance(got, BaseException):
        return f"raised {got!r}"
    code, out, err = got
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        doc = None
    if code == 1 and isinstance(doc, dict) and "error" in doc:
        return None
    return f"exit {code}, stdout {out.strip()[:120]!r}, stderr tail {err.strip()[-120:]!r}"


def _rational_doc(r: oracles.Rational, chi: int) -> dict:
    return {"tb_q": str(r.tb_q), "rot_q": str(r.rot_q), "r": r.order_r, "chi": chi}


def _front_expect(events: list[tuple[str, int]], reverse: bool) -> dict:
    f = oracles.front_invariants(events)
    if reverse:
        return {"tb": f.tb, "rot": -f.rot, "writhe": f.writhe, "up_cusps": f.down_cusps, "down_cusps": f.up_cusps}
    return {"tb": f.tb, "rot": f.rot, "writhe": f.writhe, "up_cusps": f.up_cusps, "down_cusps": f.down_cusps}


def _check_stabilized(events, sign: str, reverse: bool):
    f = oracles.front_invariants(events)
    tb, rot = f.tb, -f.rot if reverse else f.rot
    step = 1 if sign == "+" else -1

    def check(got):
        doc, err = _json_result(got)
        if err:
            return err
        actual = oracles.front_invariants(oracles.parse_events(doc["word"]))
        if actual is None:
            return "stabilized word is not a valid knot front"
        actual_rot = -actual.rot if reverse else actual.rot
        if (doc["tb"], doc["rot"]) != (tb - 1, rot + step) or (actual.tb, actual_rot) != (tb - 1, rot + step):
            return f"reported {(doc['tb'], doc['rot'])}, word gives {(actual.tb, actual_rot)}, expected {(tb - 1, rot + step)}"
        return None

    return check


def _check_destab(events):
    want = _front_expect(events, False)

    def check(got):
        doc, err = _json_result(got)
        if err:
            return err
        if not doc.get("found") or doc.get("word") != oracles.canonical(events):
            return f"zigzag not removed: {doc}"
        wrong = {k: doc.get(k) for k in want if doc.get(k) != want[k]}
        return f"got {wrong}, expected {want}" if wrong else None

    return check


def _check_tension(want):
    def check(got):
        doc, err = _json_result(got)
        if err:
            return err
        seen = None if doc["bound"] is None else (doc["bound"], tuple(doc["witness"]))
        return None if seen == want else f"got {seen}, expected {want}"

    return check


def _check_search(p_max: int):
    def check(got):
        doc, err = _json_result(got)
        if err:
            return err
        return search_problem([entry["certificate"]["details"] for entry in doc["certificates"]], p_max)

    return check


def _check_dual(tb: int, rot: int, chi: int, overtwisted: bool, tight: bool, stab: bool):
    dual = oracles.dual_closed_form(tb, rot)
    violated = oracles.bennequin_violated(dual.tb_q, dual.rot_q, Fraction(-chi, dual.order_r))
    tension = (
        "TensionExactlyOne"
        if tb < -1 and rot < 0 and tb + rot + 2 < chi and overtwisted
        else "Inconclusive"
    )
    depth = "LooseCertified" if not tight else ("DepthOne" if stab else "DepthAtLeastTwo")

    def check(got):
        doc, err = _json_result(got)
        if err:
            return err
        seen = (
            doc["stabilized_dual"],
            doc["bennequin_rational"],
            doc["tension"]["verdict"],
            doc["depth"]["verdict"],
        )
        want = (_rational_doc(dual, chi), "Violated" if violated else "Holds", tension, depth)
        return None if seen == want else f"got {seen}, expected {want}"

    return check


MALFORMED_LK = {
    "components": [
        {"id": "P", "tb": -2, "rot": 1, "coeff": "passive"},
        {"id": "L", "tb": -3, "rot": 0, "coeff": "+1"},
    ],
    "lk": [["P", "L", "x"]],
    "distinguished": "P",
}
MALFORMED_TB = {
    "components": [
        {"id": "Lstar", "tb": -16.7, "rot": -1, "coeff": "passive"},
        {"id": "L", "tb": -15, "rot": -2, "coeff": "+1"},
    ],
    "lk": [["Lstar", "L", -15]],
    "distinguished": "Lstar",
}
CLI_P_MAX = 8
MALFORMED_RECORD = [{"family": "k", "max_tb": -3, "rot_at_max_tb": [0], "chi": "x"}]


def cli_commands(seed: int) -> list[tuple[str, list[str], str, Callable, str | None]]:
    """(label, argv, stdin, checker, known fault) for each process of one round."""
    rng = random.Random(f"cli:{seed}")
    OUT_DIR.mkdir(exist_ok=True)
    cmds: list[tuple[str, list[str], str, Callable, str | None]] = []

    def add(label, argv, check, stdin="", fault=None):
        cmds.append((label, argv, stdin, check, fault))

    def small_word():
        return random_front(rng, rng.randint(12, 40), 8)

    # front-invariants: the (2, q) torus front, and a random word run leftward
    q = rng.randrange(1, 16, 2)
    torus = "l 1 l 2 " + "x 1 " * q + "r 2 r 1\n"
    add(f"front-invariants (2,{q}) torus", ["front-invariants", "-"], _expect({"tb": q - 2, "rot": 0}), torus)
    ev = small_word()
    add("front-invariants leftward", ["front-invariants", "-", "--base-direction", "leftward"],
        _expect(_front_expect(ev, True)), oracles.canonical(ev))
    ev, sign, reverse = small_word(), rng.choice("+-"), rng.random() < 0.5
    direction = "leftward" if reverse else "rightward"
    add(f"front-stabilize {sign} {direction}", ["front-stabilize", "-", "--sign", sign, "--base-direction", direction],
        _check_stabilized(ev, sign, reverse), oracles.canonical(ev))
    ev = small_word()
    zigzag = rng.choice(([("l", 1), ("r", 2)], [("l", 2), ("r", 1)]))
    add("front-destab", ["front-destab", "-"], _check_destab(ev), oracles.canonical(ev[:1] + zigzag + ev[1:]))

    doc, chi, want = random_diagram(rng, rng.randint(2, 4))
    argv = ["surgery-invariants", "-", "--chi", str(chi)]
    if rng.random() < 0.5:
        argv.append("--reverse-distinguished")
        want = _reversed(want)
    add("surgery-invariants", argv, _expect(_rational_doc(want, chi)), json.dumps(doc))
    stabs = rng.choice((["+1"], ["+2", "-1"], ["-1"]))
    tb = rng.choice([t for t in range(-20, 11) if t != -1])
    rot, chi = _rot_for(rng, tb, 5), _odd_chi(rng)
    a = sum(int(s) for s in stabs if int(s) > 0)
    b = sum(-int(s) for s in stabs if int(s) < 0)
    add("dual-invariants", ["dual-invariants", "--tb", str(tb), "--rot", str(rot), "--chi", str(chi)]
        + [f"--stab={s}" for s in stabs], _expect(_rational_doc(oracles.dual_invariants(tb, rot, a, b), chi)))

    tb, rot, chi = _classical_point(rng)
    add("certify-bennequin classical", ["certify-bennequin", "--tb", str(tb), "--rot", str(rot), "--chi", str(chi)],
        _expect({"check": "classical", "result": "Violated" if oracles.bennequin_violated(tb, rot, -chi) else "Holds"}))
    tb_q, rot_q, chi, r = _rational_point(rng)
    add("certify-bennequin rational", ["certify-bennequin", f"--tb-q={tb_q}", f"--rot-q={rot_q}", "--order", str(r), "--chi", str(chi)],
        _expect({"check": "rational", "result": "Violated" if oracles.bennequin_violated(tb_q, rot_q, Fraction(-chi, r)) else "Holds"}))
    sl_q = tb_q - rot_q
    add("certify-bennequin transverse", ["certify-bennequin", f"--sl-q={sl_q}", "--order", str(r), "--chi", str(chi)],
        _expect({"check": "transverse", "result": "Violated" if sl_q > Fraction(-chi, r) else "Holds"}))
    tb = rng.randint(-4, 8)
    rot = rng.choice((tb - 1, 1 - tb, rng.randint(-8, 8)))
    add("certify-unknot", ["certify-unknot", "--tb", str(tb), "--rot", str(rot)], _expect({"verdict": oracles.unknot_verdict(tb, rot)}))
    tb = rng.randint(-25, -2)
    rot, chi = _rot_for(rng, tb, 6), _odd_chi(rng)
    flags = [f for f in ("--surgery-overtwisted", "--complement-tight", "--is-stabilization") if rng.random() < 0.6]
    add("certify-dual", ["certify-dual", "--tb", str(tb), "--rot", str(rot), "--chi", str(chi), *flags],
        _check_dual(tb, rot, chi, "--surgery-overtwisted" in flags, "--complement-tight" in flags, "--is-stabilization" in flags))
    # one search that finds nothing and one that stops at once: fixed costs
    ((tb, rot, chi),) = _grid(rng, _classical_point, lambda pt: -pt[2], {"H": 1})
    side = rng.choice(SIDES)
    add(f"certify-tension {side}", ["certify-tension", "--tb", str(tb), "--rot", str(rot), "--chi", str(chi), "--side", side],
        _check_tension(oracles.least_violation(tb, rot, -chi, BUDGET, side)))
    ((tb_q, rot_q, chi, r),) = _grid(rng, _rational_point, lambda pt: Fraction(-pt[2], pt[3]), {"0": 1})
    add("certify-tension rational", ["certify-tension", f"--tb-q={tb_q}", f"--rot-q={rot_q}", "--order", str(r), "--chi", str(chi)],
        _check_tension(oracles.least_violation(tb_q, rot_q, Fraction(-chi, r), BUDGET, "both")))
    add(f"search-examples p_max={CLI_P_MAX}", ["search-examples", "--p-max", str(CLI_P_MAX)], _check_search(CLI_P_MAX))

    p, q = rng.choice(oracles.negative_torus_pairs(12))
    add("knot-record negative-torus", ["knot-record", "--family", "negative-torus", "--p", str(p), "--q", str(q)], _expect(oracles.negative_torus(p, q)))
    p, q = rng.choice([(p, q) for p in range(2, 10) for q in range(p + 1, 12) if gcd(p, q) == 1])
    add("knot-record positive-torus", ["knot-record", "--family", "positive-torus", "--p", str(p), "--q", str(q)], _expect(oracles.positive_torus(p, q)))
    record = {"family": f"user-{rng.randrange(10**6)}", "max_tb": -rng.randint(2, 9), "rot_at_max_tb": [0], "chi": -rng.randrange(9, 21, 2)}
    records = OUT_DIR / f"records-{seed}.json"
    records.write_text(json.dumps([record]))
    add("knot-record --records", ["--records", str(records), "knot-record", "--name", record["family"]], _expect(record))

    bad_records = OUT_DIR / "records-malformed.json"
    bad_records.write_text(json.dumps(MALFORMED_RECORD))
    add("malformed lk entry", ["surgery-invariants", "-", "--chi", "-1"], _expect_error, json.dumps(MALFORMED_LK),
        "surgery.diagram_from_json: a non-integer lk value raises ValueError (traceback, no error JSON)")
    add("malformed record chi", ["--records", str(bad_records), "knot-record", "--name", "k"], _expect_error, "",
        "knotdata.record_from_dict: a non-integer chi raises ValueError (traceback, no error JSON)")
    add("malformed float tb", ["surgery-invariants", "-", "--chi", "-7"], _expect_error, json.dumps(MALFORMED_TB),
        "surgery.diagram_from_json: tb = -16.7 is truncated to -16 and the command exits 0")
    return cmds


def cli_workload(seed: int) -> Workload:
    env = child_env()
    ops, local = [], []
    for label, argv, stdin, check, fault in cli_commands(seed):
        ops.append(Op(label, lambda argv=argv, stdin=stdin: spawn(["-m", "nonloose.cli", *argv], stdin, env), check, fault))
        local.append(Op(label, lambda argv=argv, stdin=stdin: run_in_process(argv, stdin), check, fault))
    return Workload(ops, setup_module="nonloose.cli", in_process=local)


WORKLOADS = {
    "surgery": surgery_workload,
    "certify": certify_workload,
    "fronts": fronts_workload,
    "cli": cli_workload,
}
