"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Runs a few operations of every workload and requires each to pass its check
(the three malformed ``cli`` inputs excepted while their faults stand).  Then
it hands every checker a deliberately wrong answer (tb_Q off by one, a
witness shifted by one, the sign of rot flipped, ...) and requires the
checker to reject it.  It also checks the oracles against closed forms, the
tracer's metric names against BENCHMARK.json, and that two traced rounds of
the same operations count the same.  Exits 1 if anything is off.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def run(op):
    try:
        return op.call()
    except Exception as exc:  # the checker judges raised exceptions too
        return exc


def wrong_rational(r):
    yield "tb_Q off by one", dataclasses.replace(r, tb_q=r.tb_q + 1)
    if r.rot_q:
        yield "sign of rot_Q flipped", dataclasses.replace(r, rot_q=-r.rot_q)
    yield "order off by one", dataclasses.replace(r, order_r=r.order_r + 1)


def wrong_tension(found):
    if found is None:
        yield "a witness where none exists", (0, (0, 0))
        return
    total, (a, b) = found
    yield "witness shifted by one", (total, (a + 1, b - 1) if b else (a - 1, b + 1))
    yield "bound off by one", (total + 1, (a + 1, b))


def wrong_front(res):
    tb, rot = res.left
    yield "sign of reversed rot flipped", dataclasses.replace(res, left=(tb, -rot) if rot else (tb, rot + 2))
    ptb, prot, ptext = res.plus
    yield "stabilized rot off by one", dataclasses.replace(res, plus=(ptb, prot - 1, ptext))
    yield "zigzag left in place", dataclasses.replace(res, restored=ptext)


def wrong_document(got):
    code, out, err = got
    doc = json.loads(out)

    def edit(change):
        d = json.loads(out)
        change(d)
        return code, json.dumps(d), err

    if "tb_q" in doc:
        yield "tb_Q off by one", edit(lambda d: d.update(tb_q=str(Fraction(d["tb_q"]) + 1)))
    if doc.get("rot"):
        yield "sign of rot flipped", edit(lambda d: d.update(rot=-d["rot"]))
    elif "rot" in doc:
        yield "rot off by one", edit(lambda d: d.update(rot=d["rot"] + 1))
    if doc.get("witness"):
        yield "witness shifted by one", edit(lambda d: d["witness"].__setitem__(0, d["witness"][0] + 1))
    if doc.get("certificates"):
        yield "a certificate missing", edit(lambda d: d["certificates"].pop())
    if "result" in doc:
        yield "check result flipped", edit(lambda d: d.update(result="Holds" if d["result"] == "Violated" else "Violated"))
    if "verdict" in doc:
        yield "verdict changed", edit(lambda d: d.update(verdict="DepthOne"))
    if "max_tb" in doc:
        yield "max_tb off by one", edit(lambda d: d.update(max_tb=d["max_tb"] + 1))
    if "stabilized_dual" in doc:
        yield "dual tb_Q off by one", edit(lambda d: d["stabilized_dual"].update(tb_q=str(Fraction(d["stabilized_dual"]["tb_q"]) + 1)))


def wrongs(name, result):
    if name == "surgery":
        return wrong_rational(result)
    if name == "fronts":
        return wrong_front(result)
    if name == "cli":
        return wrong_document(result)
    if isinstance(result, list) and result and isinstance(result[0], tuple):
        return iter([("first verdict changed", [("DepthOne",) + result[0][1:]] + result[1:])])
    if isinstance(result, list):
        return iter([("a certificate missing", result[:-1])])
    return wrong_tension(result)


def test_workloads() -> None:
    for name, make in workloads.WORKLOADS.items():
        workload = make(0)
        ops = workload.in_process or workload.ops
        if name == "certify":
            picked = [op for op in ops if "max_n=256" not in op.label]
        elif name == "cli":
            picked = ops
        else:
            picked = ops[:6] + ops[-4:]
        for op in picked:
            result = run(op)
            problem = op.check(result)
            if op.known_fault:
                expect(problem is not None, f"{name}: {op.label}: fails while its fault stands ({problem})")
                continue
            expect(problem is None, f"{name}: {op.label}: passes ({problem})")
            if problem is None:
                for what, bad in wrongs(name, result):
                    expect(op.check(bad) is not None, f"{name}: {op.label}: rejects {what}")
        if name == "cli":
            process = workload.ops[0]
            expect(process.check(run(process)) is None, f"cli: {process.label} passes as a fresh process")


def test_oracles() -> None:
    for q in range(1, 16, 2):
        events = oracles.parse_events("l 1 l 2 " + "x 1 " * q + "r 2 r 1")
        f = oracles.front_invariants(events)
        expect((f.tb, f.rot) == (q - 2, 0), f"oracle: (2,{q}) torus front has tb = {q - 2}, rot = 0")
    expect(
        all(
            oracles.dual_invariants(tb, rot, 1, 0) == oracles.dual_closed_form(tb, rot)
            for tb in range(-12, 10) if tb != -1
            for rot in range(-5, 6)
        ),
        "oracle: the solved dual equals the closed form over a grid",
    )
    two_link = oracles.parse_events("l 1 l 2 x 1 x 1 r 2 r 1")
    expect(oracles.front_invariants(two_link) is None, "oracle: a two-component word is rejected")
    brute = {}
    for tb in range(-6, 8):
        for rot in range(-7, 8):
            for chi in (-5, -1, 1):
                for side in ("both", "positive_only", "negative_only"):
                    found = None
                    for s in range(21):
                        splits = [(a, s - a) for a in range(s + 1)]
                        splits = [ab for ab in splits if side == "both" or (ab[1] == 0 if side == "positive_only" else ab[0] == 0)]
                        hit = next((ab for ab in splits if oracles.bennequin_violated(tb - s, rot + ab[0] - ab[1], -chi)), None)
                        if hit:
                            found = (s, hit)
                            break
                    brute[tb, rot, chi, side] = found == oracles.least_violation(tb, rot, -chi, 20, side)
    expect(all(brute.values()), f"oracle: the 1-D scan agrees with the 2-D search on {len(brute)} cases")


def test_tracer() -> None:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    expect(
        [(m["name"], m["unit"], m["better"]) for m in declared] == tracing.PER_LAYER,
        "tracer: BENCHMARK.json lists exactly the tracer's per-layer metrics",
    )
    runner_made = {"cli.import_ms", "cli.interpreter_ms", "trace.overhead_pct"}
    for name, make in workloads.WORKLOADS.items():
        workload = make(1)
        ops = (workload.in_process or workload.ops)[:5]
        tracer = tracing.Tracer()
        for _ in range(2):
            tracer.install()
            try:
                for i, op in enumerate(ops):
                    tracer.op = i
                    run(op)
                    tracer.end_op()
            finally:
                tracer.uninstall()
                tracer.end_round()
        first, second = (tracing.round_metrics(*r) for r in tracer.rounds)
        names = {m for m, _, _ in tracing.PER_LAYER} - runner_made
        expect(names <= set(first), f"tracer: {name} yields every per-layer metric")
        counts = {m for m, u, _ in tracing.PER_LAYER if u in ("count", "bits", "ratio")}
        expect(all(first[m] == second[m] for m in counts), f"tracer: {name} counts repeat between rounds")
        expect(any(first[m] for m in counts), f"tracer: {name} counts some work")


def main() -> int:
    test_oracles()
    test_workloads()
    test_tracer()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
