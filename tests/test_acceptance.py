"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Budgets are wall-clock ceilings for the checked computation.
"""

import random
import time
from fractions import Fraction
from math import gcd

from linalg_oracles import homological_order, invert_exact, mat_mul, mat_vec, smith_normal_form
from nonloose.calculus import ClassicalPair, dual_invariants
from nonloose.certify import (
    CheckResult,
    Verdict,
    bennequin_rational,
    check_consistency,
    depth_one_dual,
    order_bounds,
    order_zero_by_tb_bound,
    possurg_depth_one,
    tension_less_than_depth_search,
    tension_one_dual,
    tension_refinement,
    tension_upper_bound,
    transverse_transfer,
    unknot_verdict,
)
from nonloose.diagram import (
    Direction,
    parse_front,
    resolve_orientation,
    destabilize_front,
    detect_syntactic_destabilization,
    rot,
    serialize_front,
    stabilize_front,
    tb,
)
from nonloose.knotdata import negative_torus_record, positive_torus_record
from nonloose.linalg import det_exact


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"budget exceeded: {self.elapsed:.2f}s >= {self.seconds}s"
            )
        return False


def test_criterion_1_closed_form_equivalence():
    with Budget(1.0) as budget:
        for tb_val in range(-20, -1):
            for rot_val in range(-10, 0):
                d = dual_invariants(tb_val, rot_val, 1, 0, -7)
                assert d.tb_q == Fraction(-1, tb_val + 1)
                assert d.rot_q == Fraction(rot_val + tb_val + 1, tb_val + 1)
                assert d.order_r == abs(tb_val + 1)
    print(
        f"\nACCEPTANCE 1: PASS - dual_invariants matches the closed forms on "
        f"tb in [-20,-2] x rot in [-10,-1] ({budget.elapsed:.3f}s); the matrix "
        "pipeline is checked in tests/test_dual_closed_form.py"
    )


def test_criterion_2_flagship_example():
    with Budget(1.0) as budget:
        rec = negative_torus_record(-5, 3)
        tb_val, chi = rec.max_tb, rec.chi
        (rot_val,) = rec.rot_at_max_tb
        assert (tb_val, rot_val, chi) == (-15, -2, -7)

        dual = dual_invariants(tb_val, rot_val, 1, 0, chi)
        assert (dual.tb_q, dual.rot_q, dual.order_r, dual.chi) == (
            Fraction(1, 14),
            Fraction(8, 7),
            14,
            -7,
        )
        assert bennequin_rational(dual) is CheckResult.VIOLATED
        tension = tension_one_dual(tb_val, rot_val, chi, rec.plus_one_surgery_overtwisted)
        assert tension.verdict is Verdict.TENSION_EXACTLY_ONE
        assert tb_val == rec.max_tb
        depth = depth_one_dual(is_stabilization=False, complement_tight=True)
        assert depth.verdict is Verdict.DEPTH_AT_LEAST_TWO
    print(
        f"\nACCEPTANCE 2: PASS - torus(-5,3) dual has (1/14, 8/7, 14, -7), "
        f"violated rational bound, tension exactly 1, depth >= 2 ({budget.elapsed:.3f}s)"
    )


def test_criterion_3_l2q_tension_bounds():
    with Budget(1.0) as budget:
        for q in (3, 5, 7, 9):
            found = tension_upper_bound(ClassicalPair(q, 0, 2 - q), max_n=2 * q)
            assert found is not None and found[0] == q
    print(
        f"\nACCEPTANCE 3: PASS - stabilization search gives bound exactly q for "
        f"the (2,q) family, q in {{3,5,7,9}} ({budget.elapsed:.3f}s)"
    )


def test_criterion_4_unknot_classification():
    with Budget(1.0) as budget:
        for n in range(1, 11):
            for r in range(-n - 3, n + 4):
                cert = unknot_verdict(ClassicalPair(n, r))
                if abs(r) == n - 1:
                    assert cert.verdict is Verdict.INCONCLUSIVE
                    assert cert.details["if_nonloose"] == {
                        "depth": 1,
                        "tension": 1,
                        "order_bar": 0,
                    }
                else:
                    assert cert.verdict is Verdict.LOOSE_CERTIFIED
        for tb_val in range(-5, 1):
            for r in range(-3, 4):
                assert (
                    unknot_verdict(ClassicalPair(tb_val, r)).verdict
                    is Verdict.LOOSE_CERTIFIED
                )
    print(
        "\nACCEPTANCE 4: PASS - exactly the pairs (n, +-(n-1)) survive as "
        f"possibly non-loose with d = t = 1, order 0 ({budget.elapsed:.3f}s)"
    )


def test_criterion_5_diagram_property_suite():
    from wordgen import random_front_word

    rng = random.Random(20260810)
    with Budget(30.0) as budget:
        for _ in range(1000):
            word = random_front_word(rng, max_events=40)
            assert len(word) <= 40

            text = serialize_front(word)
            again = parse_front(text)
            assert again == word
            assert serialize_front(again) == text

            f = resolve_orientation(word, Direction.RIGHTWARD)
            g = resolve_orientation(word, Direction.LEFTWARD)
            assert tb(f) == tb(g)
            assert rot(f) == -rot(g)

            sign = rng.choice("+-")
            s = stabilize_front(f, sign)
            assert tb(s) == tb(f) - 1
            assert rot(s) == rot(f) + (1 if sign == "+" else -1)

            pair = detect_syntactic_destabilization(s.word)
            assert pair is not None
            back = resolve_orientation(destabilize_front(s.word, pair))
            assert (tb(back), rot(back)) == (tb(f), rot(f))
    print(
        f"\nACCEPTANCE 5: PASS - 1000 random front words satisfy round-trip, "
        f"reversal and stabilization laws ({budget.elapsed:.2f}s)"
    )


def test_criterion_6_linear_algebra_oracle_suite():
    rng = random.Random(444)
    with Budget(30.0) as budget:
        oracle_runs = 0
        for _ in range(500):
            n = rng.randint(1, 5)
            m = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
            snf = smith_normal_form(m)
            assert mat_mul(mat_mul(snf.u, m), snf.v) == snf.d
            assert det_exact(snf.u) in (1, -1)
            assert det_exact(snf.v) in (1, -1)
            diag = snf.diagonal()
            assert all(x >= 0 for x in diag)
            for a, b in zip(diag, diag[1:]):
                assert b == 0 if a == 0 else b % a == 0
            prod = 1
            for x in diag:
                prod *= x
            det = det_exact(m)
            assert abs(det) == prod

            if det != 0:
                lkvec = tuple(rng.randint(-9, 9) for _ in range(n))
                solved = mat_vec(invert_exact(m), lkvec)
                expected = None
                for r in range(1, abs(det) + 1):
                    if all((r * x.numerator) % x.denominator == 0 for x in solved):
                        expected = r
                        break
                assert expected is not None
                assert homological_order(m, lkvec) == expected
                oracle_runs += 1
        assert oracle_runs >= 400
    print(
        f"\nACCEPTANCE 6: PASS - 500 random matrices pass the Smith checks; "
        f"order matched brute force on all {oracle_runs} nonsingular instances "
        f"({budget.elapsed:.2f}s)"
    )


def test_criterion_7_global_inequality_check():
    with Budget(5.0) as budget:
        bundle = list(tension_less_than_depth_search(8))
        for n in range(1, 11):
            for r in range(-n - 2, n + 3):
                bundle.append(unknot_verdict(ClassicalPair(n, r)))
        bundle.append(depth_one_dual(True, True))
        bundle.append(depth_one_dual(False, True))
        bundle.append(depth_one_dual(True, False))
        bundle.append(possurg_depth_one(7, 4))
        bundle.append(possurg_depth_one(1, 1))
        bundle.append(order_bounds(2, 3, True))
        bundle.append(order_bounds(0, 0, True))
        bundle.append(order_zero_by_tb_bound(True))
        refinement = tension_refinement(True, True, True)
        bundle.append(refinement)
        bundle.append(transverse_transfer(refinement, "pushoff"))
        violations = check_consistency(bundle)
        assert violations == []
    print(
        f"\nACCEPTANCE 7: PASS - {len(bundle)} certificates all satisfy "
        f"order <= tension <= depth where bounded ({budget.elapsed:.2f}s)"
    )


def test_criterion_8_bennequin_sanity_on_knotdata():
    with Budget(1.0) as budget:
        count = 0
        for p in range(-12, -2):
            for q in range(2, -p):
                if gcd(p, q) != 1:
                    continue
                rec = negative_torus_record(p, q)
                for r in rec.rot_at_max_tb:
                    assert rec.max_tb + abs(r) <= -rec.chi
                count += 1
        for p in range(2, 13):
            for q in range(2, 13):
                if gcd(p, q) != 1:
                    continue
                rec = positive_torus_record(p, q)
                for r in rec.rot_at_max_tb:
                    assert rec.max_tb + abs(r) <= -rec.chi
                count += 1
    print(
        f"\nACCEPTANCE 8: PASS - {count} torus records with |p|,|q| <= 12 satisfy "
        f"max_tb + |rot| <= -chi ({budget.elapsed:.3f}s)"
    )
